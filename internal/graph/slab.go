package graph

import (
	"fmt"
	"reflect"

	"github.com/serenity-ml/serenity/internal/reuse"
)

// Slab builds a graph in one pass into a few exactly sized allocations: every
// Node lives in one []Node, every Shape, Preds and Succs in one []int arena,
// and the node list is one []*Node. Graphs derived from another graph —
// decoded, rewritten, partitioned — are built this way, so each is a handful
// of heap objects for the garbage collector to mark instead of four per node.
// AddNode stays for graphs grown incrementally.
//
// A Slab may build one graph after another. Reset starts the next one in the
// same buffers, and from then on the graph built before it is invalid: its
// nodes, slices and the *Graph itself are rewritten in place. A caller that
// resets a Slab must therefore be done with everything that reads its last
// graph. A Slab that is never reset hands its buffers to its one graph.
type Slab struct {
	nodes []Node
	spans []slabSpan // parallel to nodes
	ints  []int      // every node's shape then preds, back to back
	list  []*Node    // the built graph's node list
	g     *Graph     // the built graph, reused by the next Build after a Reset
}

type span struct{ off, len int }

// slabSpan says where one node's shape and preds sit in ints, and how many
// successors it turned out to have.
type slabSpan struct {
	shape, preds span
	succs        int
}

// NewSlab returns a Slab with room for nodes nodes taking ints arena entries
// between them (ArenaInts each). Sized exactly, Build allocates only the node
// list and the Graph.
func NewSlab(nodes, ints int) *Slab {
	return &Slab{nodes: make([]Node, 0, nodes), spans: make([]slabSpan, 0, nodes), ints: make([]int, 0, ints)}
}

// Reset empties s for the next graph, with room for nodes nodes and ints arena
// entries, keeping the buffers it already has when they are large enough.
// The graph s built before is invalid from here on.
func (s *Slab) Reset(nodes, ints int) {
	s.nodes = reuse.Empty(s.nodes, nodes)
	s.spans = reuse.Empty(s.spans, nodes)
	s.ints = reuse.Empty(s.ints, ints)
}

var (
	nodeBytes = int(reflect.TypeFor[Node]().Size())
	spanBytes = int(reflect.TypeFor[slabSpan]().Size())
)

// Bytes is the heap s keeps for reuse: the capacity of its buffers.
func (s *Slab) Bytes() int {
	return cap(s.nodes)*nodeBytes + cap(s.spans)*spanBytes + 8*cap(s.ints) + 8*cap(s.list)
}

// ArenaInts is how many arena entries a copy of n takes in a Slab: its shape,
// its operands, and one successor entry per operand.
func (n *Node) ArenaInts() int { return len(n.Shape) + 2*len(n.Preds) }

// Add appends a node with n's name, op, dtype and attributes, and copies of
// its Shape and Preds, and returns its ID. Every operand must name an earlier
// node; n.ID and n.Succs are ignored.
func (s *Slab) Add(n Node) int {
	id := len(s.nodes)
	for _, p := range n.Preds {
		if p < 0 || p >= id {
			panic(fmt.Sprintf("graph: slab node %d has operand %d, not an earlier node", id, p))
		}
	}
	s.nodes = append(s.nodes, Node{ID: id, Name: n.Name, Op: n.Op, DType: n.DType, Attr: n.Attr})
	s.spans = append(s.spans, slabSpan{shape: s.push(n.Shape), preds: s.push(n.Preds)})
	return id
}

func (s *Slab) push(xs []int) span {
	sp := span{len(s.ints), len(xs)}
	s.ints = append(s.ints, xs...)
	return sp
}

// Build returns the graph named name. It carves every Shape and Preds out of
// the arena at their staged offsets, and every Succs after them in the order
// AddEdge produces: by consumer, then by operand position. Sub-slices carry
// their own capacity, so appending to one never writes into its neighbour.
// The graph lives in s's buffers until the next Reset.
func (s *Slab) Build(name string) *Graph {
	if s.g == nil {
		s.g = new(Graph)
	}
	g := s.g
	*g = Graph{Name: name}
	if len(s.nodes) == 0 {
		return g
	}
	edges := 0
	for i := range s.spans {
		p := s.spans[i].preds
		edges += p.len
		for _, from := range s.ints[p.off : p.off+p.len] {
			s.spans[from].succs++
		}
	}
	staged := len(s.ints)
	if cap(s.ints) < staged+edges || s.ints == nil {
		// A nil arena would give an empty shape a nil slice, where AddNode
		// makes an empty one.
		grown := make([]int, staged, staged+edges)
		copy(grown, s.ints)
		s.ints = grown
	}
	arena := s.ints[:staged+edges]
	s.list = reuse.Len(s.list, len(s.nodes))
	g.Nodes = s.list[:len(s.nodes):len(s.nodes)]
	next := staged
	for i := range s.nodes {
		n, f := &s.nodes[i], &s.spans[i]
		g.Nodes[i] = n
		n.Shape = arena[f.shape.off : f.shape.off+f.shape.len : f.shape.off+f.shape.len]
		if f.preds.len > 0 {
			n.Preds = arena[f.preds.off : f.preds.off+f.preds.len : f.preds.off+f.preds.len]
		}
		if f.succs > 0 {
			n.Succs = arena[next : next : next+f.succs]
			next += f.succs
		}
	}
	for i, n := range g.Nodes {
		for _, from := range n.Preds {
			p := g.Nodes[from]
			p.Succs = append(p.Succs, i)
		}
	}
	return g
}
