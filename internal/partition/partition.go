// Package partition implements SERENITY's divide-and-conquer stage
// (Section 3.2, Figure 7): irregularly wired networks from NAS and random
// generators are hourglass-shaped — stacks of cells joined by single
// tensors — so the graph can be split at those waist nodes, each sub-graph
// scheduled independently, and the sub-schedules concatenated into a
// globally optimal schedule.
//
// A node v is a *cut* when (a) every other node is an ancestor or a
// descendant of v, and (b) no edge skips v: every ancestor's successors are
// themselves ancestors of v (or v). Under (a)+(b) the only tensor live at
// the moment v completes is v's own output, so: every topological order of
// the full graph is exactly a concatenation of per-segment topological
// orders, and the footprint of the combined schedule within segment k is
// independent of the choices made in other segments. Minimizing each
// segment independently therefore minimizes the global peak (the argument
// of Wilken et al. 2000 instantiated for tensor liveness).
//
// The cuts are found in one sweep over a topological order. The node v at
// position i satisfies (a)+(b) iff no edge runs from a position before i to
// one after i, no node before i is a sink and no node after i is a source.
// Forward: under (a) the nodes before i are exactly v's ancestors, so none is
// a sink, and those after it its descendants, so none is a source; (b) then
// forbids an edge across i. Backward: a node before i has a successor, which
// by the edge rule is v or lies between them, so by induction down from i it
// reaches v; symmetrically every node after i is reached from v — that is
// (a), and the edge rule is (b).
package partition

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"reflect"
	"strconv"

	"github.com/serenity-ml/serenity/internal/graph"
	"github.com/serenity-ml/serenity/internal/reuse"
	"github.com/serenity-ml/serenity/internal/sched"
)

// Segment is one sub-problem: a standalone graph whose node 0 may be a
// virtual Input standing for the producing cut of the previous segment.
type Segment struct {
	G *graph.Graph
	// ToOriginal maps segment node IDs to original-graph node IDs;
	// virtual boundary inputs map to the original cut node ID but are
	// flagged in VirtualInput.
	ToOriginal   []int
	VirtualInput int // segment node ID of the boundary input, or -1
}

// Fingerprint returns a canonical hash of the segment as a scheduling
// sub-problem: the segment graph's structural fingerprint (operation, dtype,
// shape, wiring, and scheduling-relevant attributes of every node, in ID
// order — names excluded, exactly as graph.Fingerprint) extended with the
// boundary liveness signature: which node, if any, is the virtual input
// standing for the previous cut's live output tensor. Two segments with equal
// fingerprints pose identical search problems, so a schedule computed for one
// is valid — order, peak, and optimality proof included — for the other. This
// is the key of the cross-request segment memo (serenity.SegmentMemo).
func (s *Segment) Fingerprint() string {
	var buf [2*sha256.Size + 8]byte
	b := binary.LittleEndian.AppendUint64(s.G.AppendFingerprint(buf[:0]), uint64(int64(s.VirtualInput)))
	sum := sha256.Sum256(b)
	return string(hex.AppendEncode(buf[:0], sum[:]))
}

// Partition is the result of Split.
type Partition struct {
	Original *graph.Graph
	Cuts     []int // cut node IDs in topological order (excludes the final sink unless it is a cut)
	Segments []*Segment
}

// CutNodes returns the graph's cut nodes in topological order. The final
// node of the graph is excluded (cutting after the last node is vacuous).
func CutNodes(g *graph.Graph) ([]int, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	return cutNodes(g, order, positions(order, nil), nil), nil
}

// positions inverts order into pos's array when it is large enough:
// pos[order[i]] = i.
func positions(order, pos []int) []int {
	pos = reuse.Len(pos, len(order))
	for i, v := range order {
		pos[v] = i
	}
	return pos
}

// cutNodes sweeps order (pos is its inverse) for the cuts of the package
// doc, appending them to cuts.
func cutNodes(g *graph.Graph, order, pos, cuts []int) []int {
	n := len(order)
	lastSource := -1 // position of the last source in order
	for i, v := range order {
		if len(g.Nodes[v].Preds) == 0 {
			lastSource = i
		}
	}
	reach := 0 // furthest position an edge from before i lands on
	for i, v := range order[:max(0, n-1)] {
		node := g.Nodes[v]
		if len(node.Succs) == 0 {
			break // a sink at or before i: no later node is a cut either
		}
		// A sourceless cut (the graph's single entry) would only carve off a
		// one-node segment; skip it so segments align with cells.
		if len(node.Preds) > 0 && reach <= i && i >= lastSource {
			cuts = append(cuts, v)
		}
		for _, s := range node.Succs {
			reach = max(reach, pos[s])
		}
	}
	return cuts
}

// Split partitions g at its cut nodes. A graph with no cuts yields a single
// segment identical to g.
func Split(g *graph.Graph) (*Partition, error) {
	return new(Splitter).Split(g)
}

// Splitter is Split with memory it keeps from one split to the next: the
// topological order, the segment structs, one slab per segment and one array
// for every segment's ToOriginal. The zero value is ready to use; a Splitter
// is not safe for concurrent use, and the Partition its Split returns —
// segments and segment graphs included — is valid until its next Split.
type Splitter struct {
	topo   graph.TopoScratch
	pos    []int
	preds  []int
	toOrig []int // every segment's ToOriginal, back to back
	p      Partition
	segs   []Segment
	slabs  []graph.Slab
}

// Bytes is the heap sp keeps for reuse.
func (sp *Splitter) Bytes() int {
	n := sp.topo.Bytes() + 8*(cap(sp.pos)+cap(sp.preds)+cap(sp.toOrig)+cap(sp.p.Cuts)+cap(sp.p.Segments)) +
		segmentBytes*cap(sp.segs)
	for i := range sp.slabs {
		n += sp.slabs[i].Bytes()
	}
	return n
}

var segmentBytes = int(reflect.TypeFor[Segment]().Size())

// Split is the package's Split in sp's memory.
func (sp *Splitter) Split(g *graph.Graph) (*Partition, error) {
	order, err := sp.topo.Order(g)
	if err != nil {
		return nil, err
	}
	sp.pos = positions(order, sp.pos)
	pos := sp.pos
	cuts := cutNodes(g, order, pos, sp.p.Cuts[:0])

	p := &sp.p
	*p = Partition{Original: g, Cuts: cuts, Segments: reuse.Empty(p.Segments, len(cuts)+1)}
	// Every node before a cut is its ancestor and every node after it its
	// descendant, so segment s is the run of order after cut s-1 up to and
	// including cut s, and the last segment runs to the end. A segment's node
	// IDs follow its run, after the virtual input standing for cut s-1, so
	// the segment ID of an original node u is pos[u] - base, with base the
	// position of cut s-1 (or 0 for the first segment). cutNodes never
	// returns the final node, so no segment is empty.
	sp.segs = reuse.Len(sp.segs, len(cuts)+1)
	if len(sp.slabs) < len(sp.segs) {
		// Each slab keeps the buffers of the segment it built last time.
		grown := make([]graph.Slab, len(sp.segs))
		copy(grown, sp.slabs)
		sp.slabs = grown
	}
	// Segment s holds its run and, after the first, the previous cut.
	sp.toOrig = reuse.Empty(sp.toOrig, len(order)+len(cuts))
	preds := sp.preds
	lo := 0 // position of the segment's first real node
	for s := 0; s <= len(cuts); s++ {
		hi := len(order) // one past the segment's last position
		if s < len(cuts) {
			hi = pos[cuts[s]] + 1
		}
		base := lo
		if s > 0 {
			base = lo - 1
		}
		seg := &sp.segs[s]
		*seg = Segment{VirtualInput: -1}
		start := len(sp.toOrig)
		var prev *graph.Node
		ints := 0
		if s > 0 {
			prev = g.Nodes[cuts[s-1]]
			ints = len(prev.Shape)
		}
		for _, v := range order[lo:hi] {
			ints += g.Nodes[v].ArenaInts()
		}
		slab := &sp.slabs[s]
		slab.Reset(hi-base, ints)
		if prev != nil {
			// Virtual input standing for the previous cut's output storage.
			seg.VirtualInput = slab.Add(graph.Node{Op: graph.OpInput, Name: prev.Name + "#boundary",
				Shape: prev.Shape, DType: prev.DType, Attr: graph.Attr{AliasOf: -1}})
			sp.toOrig = append(sp.toOrig, prev.ID)
		}
		for i := lo; i < hi; i++ {
			v := order[i]
			// Only the previous cut and the nodes placed before v in this
			// segment have segment IDs yet.
			remap := func(u int) (int, bool) {
				if pu := pos[u]; pu >= base && pu < i {
					return pu - base, true
				}
				return 0, false
			}
			orig := g.Nodes[v]
			preds = preds[:0]
			for _, pr := range orig.Preds {
				mapped, ok := remap(pr)
				if !ok {
					return nil, fmt.Errorf("partition: node %d pred %d crosses segment %d unexpectedly", v, pr, s)
				}
				preds = append(preds, mapped)
			}
			nn := *orig
			nn.Preds = preds
			if orig.Attr.AliasOf >= 0 {
				a, ok := remap(orig.Attr.AliasOf)
				if !ok {
					return nil, fmt.Errorf("partition: node %d aliases %d across segment boundary", v, orig.Attr.AliasOf)
				}
				nn.Attr.AliasOf = a
			}
			slab.Add(nn)
			sp.toOrig = append(sp.toOrig, v)
		}
		seg.ToOriginal = sp.toOrig[start:len(sp.toOrig):len(sp.toOrig)]
		seg.G = slab.Build(g.Name + "/seg" + strconv.Itoa(s))
		p.Segments = append(p.Segments, seg)
		lo = hi
	}
	sp.preds = preds
	return p, nil
}

// Combine maps per-segment schedules back to original node IDs and
// concatenates them (Figure 7's combine stage), dropping virtual boundary
// inputs. orders[i] must be a valid schedule of Segments[i].G.
func (p *Partition) Combine(orders []sched.Schedule) (sched.Schedule, error) {
	if len(orders) != len(p.Segments) {
		return nil, fmt.Errorf("partition: %d orders for %d segments", len(orders), len(p.Segments))
	}
	out := make(sched.Schedule, 0, p.Original.NumNodes())
	for i, seg := range p.Segments {
		if len(orders[i]) != seg.G.NumNodes() {
			return nil, fmt.Errorf("partition: segment %d order has %d entries, want %d", i, len(orders[i]), seg.G.NumNodes())
		}
		for _, v := range orders[i] {
			if v == seg.VirtualInput {
				continue
			}
			out = append(out, seg.ToOriginal[v])
		}
	}
	if len(out) != p.Original.NumNodes() {
		return nil, fmt.Errorf("partition: combined schedule has %d nodes, want %d", len(out), p.Original.NumNodes())
	}
	return out, nil
}

// Sizes returns the node count of each segment, as reported in Table 2
// (e.g. 62={21,19,22}).
func (p *Partition) Sizes() []int {
	out := make([]int, len(p.Segments))
	for i, s := range p.Segments {
		n := s.G.NumNodes()
		if s.VirtualInput >= 0 {
			n-- // virtual boundary inputs are bookkeeping, not graph nodes
		}
		out[i] = n
	}
	return out
}
