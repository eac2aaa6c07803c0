package graph

import "fmt"

// Slab builds a graph in one pass into a few exactly sized allocations: every
// Node lives in one []Node, every Shape, Preds and Succs in one []int arena,
// and the node list is one []*Node. Graphs derived from another graph —
// decoded, rewritten, partitioned — are built this way, so each is a handful
// of heap objects for the garbage collector to mark instead of four per node.
// AddNode stays for graphs grown incrementally.
type Slab struct {
	nodes []Node
	spans []slabSpan // parallel to nodes
	ints  []int      // every node's shape then preds, back to back
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
// The graph owns the Slab's buffers: the Slab must not be used again.
func (s *Slab) Build(name string) *Graph {
	g := &Graph{Name: name}
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
	arena := s.ints
	if need := len(arena) + edges; cap(arena) < need || arena == nil {
		arena = make([]int, need)
		copy(arena, s.ints)
	} else {
		arena = arena[:need]
	}
	g.Nodes = make([]*Node, len(s.nodes))
	next := len(s.ints)
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
