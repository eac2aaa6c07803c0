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

// Segment is one sub-problem: a graph whose node 0 may be a virtual Input
// standing for the producing cut of the previous segment. A Splitter's
// segments are views of the graph it split: ToOriginal is a run of its
// topological order, and the segment graph is built only when Graph asks.
type Segment struct {
	// G is the segment graph once it is built: Split builds every segment's,
	// a Splitter's segment its own on Graph. A Segment given only G is all
	// of G.
	G *graph.Graph
	// ToOriginal maps segment node IDs to original-graph node IDs;
	// virtual boundary inputs map to the original cut node ID but are
	// flagged in VirtualInput.
	ToOriginal   []int
	VirtualInput int // segment node ID of the boundary input, or -1

	sp      *Splitter  // the view's splitter; nil for a segment that is only G
	index   int        // the view's position in the partition
	virtual graph.Node // the view's virtual input, unnamed
	scratch []int      // Fits' marks, Graph's operands
}

// NumNodes is the segment graph's node count, the virtual input included.
func (s *Segment) NumNodes() int {
	if s.sp == nil {
		return s.G.NumNodes()
	}
	return len(s.ToOriginal)
}

// node returns segment node k as the node it copies, with the IDs that
// renumber that node's operands: operand u is segment node ids[u] - base, or
// u itself when ids is nil.
func (s *Segment) node(k int) (nd *graph.Node, ids []int, base int) {
	switch {
	case s.sp == nil:
		return s.G.Nodes[k], nil, 0
	case k == s.VirtualInput:
		return &s.virtual, nil, 0
	}
	return s.sp.p.Original.Nodes[s.ToOriginal[k]], s.sp.pos, s.sp.pos[s.ToOriginal[0]]
}

// Fits reports whether order is a topological order of the segment graph:
// every node exactly once, each after all of its predecessors. It is one
// O(n + e) pass over the view, in scratch the segment keeps, so it must not
// run concurrently on one segment.
func (s *Segment) Fits(order sched.Schedule) bool {
	n := s.NumNodes()
	s.scratch = reuse.Len(s.scratch, n) // 1 once placed
	clear(s.scratch)
	for _, k := range order {
		if k < 0 || k >= n || s.scratch[k] != 0 {
			return false // out of range or repeated: a longer order fails here
		}
		nd, ids, base := s.node(k)
		for _, u := range nd.Preds {
			if ids != nil {
				u = ids[u] - base
			}
			if s.scratch[u] == 0 {
				return false
			}
		}
		s.scratch[k] = 1
	}
	return len(order) == n
}

// Sum is the segment's fingerprint as a digest: Fingerprint is its hex. A
// view is hashed in its splitter's writer, so Sum must not run concurrently
// on segments of one partition.
func (s *Segment) Sum() [sha256.Size]byte {
	var buf [2*sha256.Size + 8]byte
	fp := buf[:0]
	if s.sp == nil {
		fp = s.G.AppendFingerprint(fp)
	} else {
		s.sp.fw.Begin(len(s.ToOriginal))
		for k := range s.ToOriginal {
			s.sp.fw.Node(s.node(k))
		}
		fp = s.sp.fw.AppendHex(fp)
	}
	return sha256.Sum256(binary.LittleEndian.AppendUint64(fp, uint64(int64(s.VirtualInput))))
}

// Fingerprint returns a canonical hash of the segment as a scheduling
// sub-problem: the segment graph's structural fingerprint (operation, dtype,
// shape, wiring, and scheduling-relevant attributes of every node, in ID
// order — names excluded, exactly as graph.Fingerprint) extended with the
// boundary liveness signature: which node, if any, is the virtual input
// standing for the previous cut's live output tensor. Two segments with equal
// fingerprints pose identical search problems, so a schedule computed for one
// is valid — order, peak, and optimality proof included — for the other. This
// is the key of the cross-request segment memo (serenity.SegmentMemo). A view
// is hashed without building its graph, to the same bytes.
func (s *Segment) Fingerprint() string {
	sum := s.Sum()
	return hex.EncodeToString(sum[:])
}

// Graph returns the segment graph, building a view's in its splitter's slab
// for this segment on first use: node IDs follow ToOriginal, the graph is
// named after the original with "/seg" and the segment index, and the virtual
// input after the cut it stands for with "#boundary". A view's graph is valid
// until the splitter's next Split. Graph may run concurrently on distinct
// segments of one partition.
func (s *Segment) Graph() *graph.Graph {
	if s.G != nil {
		return s.G
	}
	ints := 0
	for k := range s.ToOriginal {
		nd, _, _ := s.node(k)
		ints += nd.ArenaInts()
	}
	src, slab := s.sp.p.Original, &s.sp.slabs[s.index]
	slab.Reset(len(s.ToOriginal), ints)
	for k, v := range s.ToOriginal {
		nd, ids, base := s.node(k)
		nn := *nd
		if nd == &s.virtual {
			nn.Name = src.Nodes[v].Name + "#boundary"
		}
		s.scratch = s.scratch[:0]
		for _, u := range nd.Preds {
			s.scratch = append(s.scratch, ids[u]-base)
		}
		nn.Preds = s.scratch
		if a := nd.Attr.AliasOf; a >= 0 {
			nn.Attr.AliasOf = ids[a] - base
		}
		slab.Add(nn)
	}
	s.G = slab.Build(src.Name + "/seg" + strconv.Itoa(s.index))
	return s.G
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

// Split partitions g at its cut nodes, building every segment's graph. A
// graph with no cuts yields a single segment identical to g. It is
// Splitter.Split on fresh memory plus Graph on each segment, kept for callers
// that split once: benchmark/replay.go and testdata/golden/gen.go.
func Split(g *graph.Graph) (*Partition, error) {
	p, err := new(Splitter).Split(g)
	for i := 0; err == nil && i < len(p.Segments); i++ {
		p.Segments[i].Graph()
	}
	return p, err
}

// Splitter is Split with memory it keeps from one split to the next: the
// topological order, the segment structs and their scratch, one slab per
// segment for the graphs Graph builds, and a fingerprint writer. The zero
// value is ready to use; a Splitter is not safe for concurrent use, and the
// Partition its Split returns — segments and segment graphs included — is
// valid until its next Split.
type Splitter struct {
	topo  graph.TopoScratch
	pos   []int
	p     Partition
	segs  []Segment
	slabs []graph.Slab
	fw    graph.FingerprintWriter
}

// Bytes is the heap sp keeps for reuse.
func (sp *Splitter) Bytes() int {
	n := sp.topo.Bytes() + 8*(cap(sp.pos)+cap(sp.p.Cuts)+cap(sp.p.Segments)) + segmentBytes*cap(sp.segs)
	for i := range sp.segs {
		n += 8 * cap(sp.segs[i].scratch)
	}
	for i := range sp.slabs {
		n += sp.slabs[i].Bytes()
	}
	return n
}

var segmentBytes = int(reflect.TypeFor[Segment]().Size())

// Split is the package's Split in sp's memory, with every segment a view:
// no segment graph is built until its Graph is asked for.
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
	// position of cut s-1 (or 0 for the first segment), and ToOriginal is
	// order[base:hi]. No edge skips a cut, so every operand lies in its
	// node's segment or is cut s-1. cutNodes never returns the final node, so
	// no segment is empty. Each slab keeps the buffers of the segment graph
	// it built last time.
	sp.segs = reuse.Len(sp.segs, len(cuts)+1)
	sp.slabs = reuse.Len(sp.slabs, len(cuts)+1)
	lo := 0 // position of the segment's first real node
	for s := 0; s <= len(cuts); s++ {
		hi := len(order) // one past the segment's last position
		if s < len(cuts) {
			hi = pos[cuts[s]] + 1
		}
		base, virtual, vnode := lo, -1, graph.Node{}
		if s > 0 {
			cut := g.Nodes[order[lo-1]]
			base, virtual, vnode = lo-1, 0, graph.Node{Op: graph.OpInput, Shape: cut.Shape, DType: cut.DType, Attr: graph.Attr{AliasOf: -1}}
		}
		for i, v := range order[lo:hi] {
			if a := g.Nodes[v].Attr.AliasOf; a >= 0 && (pos[a] < base || pos[a] >= lo+i) {
				return nil, fmt.Errorf("partition: node %d aliases %d across segment boundary", v, a)
			}
		}
		seg := &sp.segs[s]
		*seg = Segment{ToOriginal: order[base:hi:hi], VirtualInput: virtual, sp: sp, index: s, virtual: vnode, scratch: seg.scratch}
		p.Segments = append(p.Segments, seg)
		lo = hi
	}
	return p, nil
}

// Combine maps per-segment schedules back to original node IDs and
// concatenates them (Figure 7's combine stage), dropping virtual boundary
// inputs. orders[i] must be a valid schedule of Segments[i]'s graph.
func (p *Partition) Combine(orders []sched.Schedule) (sched.Schedule, error) {
	if len(orders) != len(p.Segments) {
		return nil, fmt.Errorf("partition: %d orders for %d segments", len(orders), len(p.Segments))
	}
	out := make(sched.Schedule, 0, p.Original.NumNodes())
	for i, seg := range p.Segments {
		if len(orders[i]) != seg.NumNodes() {
			return nil, fmt.Errorf("partition: segment %d order has %d entries, want %d", i, len(orders[i]), seg.NumNodes())
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
		n := s.NumNodes()
		if s.VirtualInput >= 0 {
			n-- // virtual boundary inputs are bookkeeping, not graph nodes
		}
		out[i] = n
	}
	return out
}
