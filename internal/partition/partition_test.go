package partition

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/serenity-ml/serenity/internal/dp"
	"github.com/serenity-ml/serenity/internal/graph"
	"github.com/serenity-ml/serenity/internal/models"
	"github.com/serenity-ml/serenity/internal/rewrite"
	"github.com/serenity-ml/serenity/internal/sched"
)

func bytesShape(b int64) graph.Shape { return graph.Shape{int(b / 4)} }

// hourglass builds cells of parallel branches joined by single waist nodes:
//
//	in -> [branch x width] -> join -> [branch x width] -> join -> ...
func hourglass(cells, width int) *graph.Graph {
	g := graph.New("hourglass")
	cur := g.AddNode(graph.OpInput, "in", bytesShape(64))
	for c := 0; c < cells; c++ {
		branches := make([]int, width)
		for w := 0; w < width; w++ {
			h := g.AddNode(graph.OpReLU, "", bytesShape(int64(32+16*w)), cur)
			branches[w] = g.AddNode(graph.OpReLU, "", bytesShape(32), h)
		}
		cur = g.AddNode(graph.OpAdd, "", bytesShape(64), branches...)
	}
	for _, n := range g.Nodes {
		if n.Name == "" {
			n.Name = n.Op.String()
		}
	}
	return g
}

func TestCutNodesOnHourglass(t *testing.T) {
	g := hourglass(3, 3)
	cuts, err := CutNodes(g)
	if err != nil {
		t.Fatal(err)
	}
	// Cuts: the two inner join nodes. The input is a degenerate (sourceless)
	// cut and the final join is the graph's last node; both are excluded.
	if len(cuts) != 2 {
		t.Fatalf("cuts = %v, want 2 inner joins", cuts)
	}
	for _, c := range cuts {
		if g.Nodes[c].Op != graph.OpAdd {
			t.Errorf("cut %d is %v, want the Add joins", c, g.Nodes[c].Op)
		}
	}
}

func TestCutNodesRejectsSkippingEdges(t *testing.T) {
	// A -> B -> C plus A -> C: B is comparable with everything but edge A->C
	// skips it, so B must not be a cut.
	g := graph.New("skip")
	a := g.AddNode(graph.OpInput, "A", bytesShape(8))
	b := g.AddNode(graph.OpReLU, "B", bytesShape(8), a)
	g.AddNode(graph.OpAdd, "C", bytesShape(8), b, a)
	cuts, err := CutNodes(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cuts {
		if c == b {
			t.Fatalf("B reported as cut despite skipping edge: %v", cuts)
		}
	}
	_ = a
	if len(cuts) != 0 {
		t.Errorf("cuts = %v, want none (A is a sourceless cut)", cuts)
	}
}

func TestCutNodesNoCutInParallelGraph(t *testing.T) {
	// Two independent chains: nothing is comparable across chains.
	g := graph.New("par")
	a := g.AddNode(graph.OpInput, "a", bytesShape(8))
	g.AddNode(graph.OpReLU, "a2", bytesShape(8), a)
	c := g.AddNode(graph.OpInput, "c", bytesShape(8))
	g.AddNode(graph.OpReLU, "c2", bytesShape(8), c)
	cuts, err := CutNodes(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(cuts) != 0 {
		t.Errorf("cuts = %v, want none", cuts)
	}
}

func TestSplitSegmentSizes(t *testing.T) {
	g := hourglass(3, 3) // 1 + 3*(6+1) = 22 nodes
	p, err := Split(g)
	if err != nil {
		t.Fatal(err)
	}
	sizes := p.Sizes()
	total := 0
	for _, s := range sizes {
		total += s
	}
	if total != g.NumNodes() {
		t.Fatalf("segment sizes %v sum to %d, want %d", sizes, total, g.NumNodes())
	}
	if len(p.Segments) < 3 {
		t.Fatalf("expected >=3 segments, got %d (sizes %v)", len(p.Segments), sizes)
	}
	for i, seg := range p.Segments {
		if err := seg.G.Validate(); err != nil {
			t.Fatalf("segment %d invalid: %v", i, err)
		}
		if i > 0 && seg.VirtualInput != 0 {
			t.Errorf("segment %d: virtual input should be node 0, got %d", i, seg.VirtualInput)
		}
	}
}

func TestSplitSingleSegmentWhenNoCuts(t *testing.T) {
	g := graph.New("par")
	a := g.AddNode(graph.OpInput, "a", bytesShape(8))
	g.AddNode(graph.OpReLU, "a2", bytesShape(8), a)
	c := g.AddNode(graph.OpInput, "c", bytesShape(8))
	g.AddNode(graph.OpReLU, "c2", bytesShape(8), c)
	p, err := Split(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Segments) != 1 {
		t.Fatalf("segments = %d, want 1", len(p.Segments))
	}
	if p.Segments[0].G.NumNodes() != g.NumNodes() {
		t.Error("single segment should mirror the graph")
	}
}

// TestDivideAndConquerMatchesWholeGraphDP is the combine-stage optimality
// claim (Figure 7): concatenating per-segment optimal schedules equals the
// whole-graph optimum.
func TestDivideAndConquerMatchesWholeGraphDP(t *testing.T) {
	for _, cfg := range []struct{ cells, width int }{{2, 2}, {3, 2}, {2, 3}} {
		g := hourglass(cfg.cells, cfg.width)
		m := sched.NewMemModel(g)
		whole := dp.Optimal(m)
		if whole.Flag != dp.FlagSolution {
			t.Fatal("whole-graph DP failed")
		}

		p, err := Split(g)
		if err != nil {
			t.Fatal(err)
		}
		orders := make([]sched.Schedule, len(p.Segments))
		for i, seg := range p.Segments {
			r := dp.Optimal(sched.NewMemModel(seg.G))
			if r.Flag != dp.FlagSolution {
				t.Fatalf("segment %d DP failed", i)
			}
			orders[i] = r.Order
		}
		combined, err := p.Combine(orders)
		if err != nil {
			t.Fatal(err)
		}
		peak, err := m.Peak(combined)
		if err != nil {
			t.Fatalf("combined schedule invalid: %v", err)
		}
		if peak != whole.Peak {
			t.Errorf("cells=%d width=%d: combined peak %d != whole-graph %d",
				cfg.cells, cfg.width, peak, whole.Peak)
		}
	}
}

func TestCombineErrors(t *testing.T) {
	g := hourglass(2, 2)
	p, err := Split(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Combine(nil); err == nil {
		t.Error("Combine accepted wrong order count")
	}
	orders := make([]sched.Schedule, len(p.Segments))
	for i := range orders {
		orders[i] = sched.Schedule{0}
	}
	if _, err := p.Combine(orders); err == nil {
		t.Error("Combine accepted wrong-length segment orders")
	}
}

// TestSegmentBoundaryAccounting verifies the virtual boundary input models
// the live cut tensor: segment peaks never understate the combined profile.
func TestSegmentBoundaryAccounting(t *testing.T) {
	g := hourglass(3, 3)
	m := sched.NewMemModel(g)
	p, err := Split(g)
	if err != nil {
		t.Fatal(err)
	}
	var maxSegPeak int64
	orders := make([]sched.Schedule, len(p.Segments))
	for i, seg := range p.Segments {
		r := dp.Optimal(sched.NewMemModel(seg.G))
		orders[i] = r.Order
		if r.Peak > maxSegPeak {
			maxSegPeak = r.Peak
		}
	}
	combined, err := p.Combine(orders)
	if err != nil {
		t.Fatal(err)
	}
	peak, err := m.Peak(combined)
	if err != nil {
		t.Fatal(err)
	}
	if peak != maxSegPeak {
		t.Errorf("combined peak %d != max segment peak %d", peak, maxSegPeak)
	}
}

// TestSegmentFingerprintIdentifiesRepeatedCells: in an hourglass of
// identical cells, every interior segment (same wiring, same virtual
// boundary input) must hash identically — the property the cross-request
// segment memo keys on — while the entry segment (real input, no boundary)
// must not collide with them.
func TestSegmentFingerprintIdentifiesRepeatedCells(t *testing.T) {
	p, err := Split(hourglass(4, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Segments) < 4 {
		t.Fatalf("got %d segments, want >= 4", len(p.Segments))
	}
	interior := p.Segments[1].Fingerprint()
	for i := 2; i < len(p.Segments); i++ {
		if got := p.Segments[i].Fingerprint(); got != interior {
			t.Errorf("segment %d fingerprint %s != segment 1's %s; identical cells must share a memo key", i, got, interior)
		}
	}
	if first := p.Segments[0].Fingerprint(); first == interior {
		t.Error("entry segment (no virtual input) collides with interior segments")
	}
}

// TestSegmentFingerprintBoundarySignature: two segments with byte-identical
// graphs but different boundary liveness (virtual input vs. none) must hash
// differently, and the boundary signature must be the ONLY thing separating
// them from the plain graph fingerprint.
func TestSegmentFingerprintBoundarySignature(t *testing.T) {
	g := graph.New("seg")
	a := g.AddNode(graph.OpInput, "a", bytesShape(16))
	g.AddNode(graph.OpReLU, "b", bytesShape(16), a)

	noBoundary := &Segment{G: g, VirtualInput: -1}
	boundary := &Segment{G: g, VirtualInput: 0}
	if noBoundary.Fingerprint() == boundary.Fingerprint() {
		t.Error("boundary liveness signature not part of the fingerprint")
	}
	if noBoundary.Fingerprint() != (&Segment{G: g, VirtualInput: -1}).Fingerprint() {
		t.Error("fingerprint not deterministic")
	}
}

// TestSegmentFingerprintIgnoresNames mirrors graph.Fingerprint's contract:
// node names cannot affect any schedule, so they must not fragment the memo.
func TestSegmentFingerprintIgnoresNames(t *testing.T) {
	build := func(name string) *graph.Graph {
		g := graph.New("n")
		a := g.AddNode(graph.OpInput, name, bytesShape(16))
		g.AddNode(graph.OpReLU, name+"2", bytesShape(16), a)
		return g
	}
	s1 := &Segment{G: build("x"), VirtualInput: 0}
	s2 := &Segment{G: build("totally-different"), VirtualInput: 0}
	if s1.Fingerprint() != s2.Fingerprint() {
		t.Error("renamed segment changed fingerprint")
	}
	g3 := build("x")
	g3.Nodes[1].Op = graph.OpAdd
	s3 := &Segment{G: g3, VirtualInput: 0}
	if s1.Fingerprint() == s3.Fingerprint() {
		t.Error("structural change did not change fingerprint")
	}
}

func TestSplitPreservesRandomHourglasses(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		g := randomHourglass(rng, 3)
		m := sched.NewMemModel(g)
		whole := dp.Optimal(m)

		p, err := Split(g)
		if err != nil {
			t.Fatal(err)
		}
		orders := make([]sched.Schedule, len(p.Segments))
		for i, seg := range p.Segments {
			orders[i] = dp.Optimal(sched.NewMemModel(seg.G)).Order
		}
		combined, err := p.Combine(orders)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.MustPeak(combined); got != whole.Peak {
			t.Fatalf("trial %d: combined %d != whole %d", trial, got, whole.Peak)
		}
	}
}

// reachability returns, for every node v, the bitset of nodes reachable from
// v (excluding v itself), by a reverse-topological union of successor sets.
func reachability(g *graph.Graph) ([]*graph.Bitset, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	n := len(g.Nodes)
	reach := make([]*graph.Bitset, n)
	for i := range reach {
		reach[i] = graph.NewBitset(n)
	}
	for i := n - 1; i >= 0; i-- {
		v := order[i]
		for _, s := range g.Nodes[v].Succs {
			reach[v].Set(s)
			reach[v].Or(reach[s])
		}
	}
	return reach, nil
}

// ancestors returns, for every node v, the bitset of nodes that can reach v
// (excluding v itself), by a topological union of predecessor sets.
func ancestors(g *graph.Graph) ([]*graph.Bitset, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	n := len(g.Nodes)
	anc := make([]*graph.Bitset, n)
	for i := range anc {
		anc[i] = graph.NewBitset(n)
	}
	for _, v := range order {
		for _, s := range g.Nodes[v].Succs {
			anc[s].Set(v)
			anc[s].Or(anc[v])
		}
	}
	return anc, nil
}

// cutNodesReference is the cut definition of the package doc taken
// literally, over ancestor and descendant bitsets: (a) every other node is an
// ancestor or a descendant of v, and (b) every ancestor's successors are
// ancestors of v or v itself. CutNodes must return exactly its cuts.
func cutNodesReference(g *graph.Graph) ([]int, error) {
	n := g.NumNodes()
	reach, err := reachability(g)
	if err != nil {
		return nil, err
	}
	anc, err := ancestors(g)
	if err != nil {
		return nil, err
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	var cuts []int
	for _, v := range order[:max(0, n-1)] {
		if anc[v].Count() == 0 {
			// A sourceless cut (the graph's single entry) would only carve
			// off a one-node segment; skip it so segments align with cells.
			continue
		}
		if anc[v].Count()+reach[v].Count() != n-1 {
			continue // (a) fails: some node is incomparable with v
		}
		ok := true
		anc[v].ForEach(func(u int) {
			if !ok {
				return
			}
			for _, s := range g.Nodes[u].Succs {
				if s != v && !anc[v].Has(s) {
					ok = false // (b) fails: edge u->s skips v
					return
				}
			}
		})
		if ok {
			cuts = append(cuts, v)
		}
	}
	return cuts, nil
}

// splitReference is Split as first written: segment membership counted from
// the ancestor bitsets, a node-ID map per segment. Split must build the same
// segments.
func splitReference(g *graph.Graph) (*Partition, error) {
	cuts, err := cutNodesReference(g)
	if err != nil {
		return nil, err
	}
	anc, err := ancestors(g)
	if err != nil {
		return nil, err
	}
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}

	p := &Partition{Original: g, Cuts: cuts}
	// segmentOf[v] = index of the segment containing v: the number of cuts
	// that are proper ancestors of v... plus care for the cuts themselves,
	// which terminate their own segment.
	segmentOf := make([]int, g.NumNodes())
	for _, v := range order {
		seg := 0
		for _, c := range cuts {
			if c != v && anc[v].Has(c) {
				seg++
			}
		}
		segmentOf[v] = seg
	}
	numSegs := len(cuts) + 1
	// The last cut may be the final node; then the trailing segment is empty.
	counts := make([]int, numSegs)
	for _, v := range order {
		counts[segmentOf[v]]++
	}
	for numSegs > 1 && counts[numSegs-1] == 0 {
		numSegs--
	}

	for s := 0; s < numSegs; s++ {
		seg := &Segment{G: graph.New(fmt.Sprintf("%s/seg%d", g.Name, s)), VirtualInput: -1}
		remap := map[int]int{}
		if s > 0 {
			// Virtual input standing for the previous cut's output storage.
			prev := g.Nodes[cuts[s-1]]
			vid := seg.G.AddNode(graph.OpInput, prev.Name+"#boundary", prev.Shape)
			seg.G.Nodes[vid].DType = prev.DType
			seg.ToOriginal = append(seg.ToOriginal, prev.ID)
			seg.VirtualInput = vid
			remap[prev.ID] = vid
		}
		for _, v := range order {
			if segmentOf[v] != s {
				continue
			}
			orig := g.Nodes[v]
			var preds []int
			for _, pr := range orig.Preds {
				mapped, ok := remap[pr]
				if !ok {
					return nil, fmt.Errorf("partition: node %d pred %d crosses segment %d unexpectedly", v, pr, s)
				}
				preds = append(preds, mapped)
			}
			nid := seg.G.AddNode(orig.Op, orig.Name, orig.Shape, preds...)
			nn := seg.G.Nodes[nid]
			nn.DType = orig.DType
			nn.Attr = orig.Attr
			if orig.Attr.AliasOf >= 0 {
				if a, ok := remap[orig.Attr.AliasOf]; ok {
					nn.Attr.AliasOf = a
				} else {
					return nil, fmt.Errorf("partition: node %d aliases %d across segment boundary", v, orig.Attr.AliasOf)
				}
			}
			seg.ToOriginal = append(seg.ToOriginal, v)
			remap[v] = nid
		}
		p.Segments = append(p.Segments, seg)
	}
	return p, nil
}

// randomHourglass chains cells of 2-4 random branches by single waist nodes.
func randomHourglass(rng *rand.Rand, cells int) *graph.Graph {
	g := graph.New("rand-hourglass")
	cur := g.AddNode(graph.OpInput, "in", bytesShape(32))
	for c := 0; c < cells; c++ {
		nb := 2 + rng.Intn(3)
		var branches []int
		for w := 0; w < nb; w++ {
			n := g.AddNode(graph.OpReLU, "x", bytesShape(int64(4*(1+rng.Intn(16)))), cur)
			if rng.Intn(2) == 0 {
				n = g.AddNode(graph.OpReLU, "y", bytesShape(int64(4*(1+rng.Intn(16)))), n)
			}
			branches = append(branches, n)
		}
		cur = g.AddNode(graph.OpAdd, "join", bytesShape(32), branches...)
	}
	return g
}

// assertSplitMatchesReference fails unless CutNodes and Split agree with
// their references on g: the same cuts, and segment for segment the same
// name, node names, ToOriginal, VirtualInput and memo fingerprint, and
// deep-equal graphs (the slab-built segment against the one AddNode built).
func assertSplitMatchesReference(t testing.TB, g *graph.Graph, what string) {
	t.Helper()
	cuts, err := CutNodes(g)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	wantCuts, err := cutNodesReference(g)
	if err != nil {
		t.Fatalf("%s: reference: %v", what, err)
	}
	if !slices.Equal(cuts, wantCuts) {
		t.Fatalf("%s: cuts %v, reference %v", what, cuts, wantCuts)
	}
	got, err := Split(g)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want, err := splitReference(g)
	if err != nil {
		t.Fatalf("%s: reference: %v", what, err)
	}
	if !slices.Equal(got.Cuts, want.Cuts) || len(got.Segments) != len(want.Segments) {
		t.Fatalf("%s: cuts %v in %d segments, reference %v in %d", what, got.Cuts, len(got.Segments), want.Cuts, len(want.Segments))
	}
	for i, gs := range got.Segments {
		ws := want.Segments[i]
		if gs.G.Name != ws.G.Name || gs.VirtualInput != ws.VirtualInput || !slices.Equal(gs.ToOriginal, ws.ToOriginal) {
			t.Fatalf("%s: segment %d is %q virtual %d from %v, reference %q virtual %d from %v",
				what, i, gs.G.Name, gs.VirtualInput, gs.ToOriginal, ws.G.Name, ws.VirtualInput, ws.ToOriginal)
		}
		for v, n := range gs.G.Nodes {
			if n.Name != ws.G.Nodes[v].Name {
				t.Fatalf("%s: segment %d node %d named %q, reference %q", what, i, v, n.Name, ws.G.Nodes[v].Name)
			}
		}
		if gs.Fingerprint() != ws.Fingerprint() {
			t.Fatalf("%s: segment %d fingerprint differs from the reference", what, i)
		}
		if !reflect.DeepEqual(gs.G, ws.G) {
			t.Fatalf("%s: segment %d graph differs from the reference in a field or an edge", what, i)
		}
		if err := gs.G.Validate(); err != nil {
			t.Fatalf("%s: segment %d: %v", what, i, err)
		}
	}
}

// TestSplitMatchesReference holds the one-sweep partitioner to the bitset
// definition on the nine evaluation cells (as built, rewritten, and decoded
// from their JSON, the three slab-built forms a request hands it), random
// DAGs, random hourglasses and stacked WS cells.
func TestSplitMatchesReference(t *testing.T) {
	for _, c := range models.BenchmarkCells() {
		g := c.Build()
		assertSplitMatchesReference(t, g, g.Name)
		rw, _, err := rewrite.RewriteAll(g, rewrite.DefaultRules(), 0)
		if err != nil {
			t.Fatal(err)
		}
		assertSplitMatchesReference(t, rw, g.Name+" rewritten")
		data, err := rw.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		decoded := graph.New("")
		if err := decoded.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
		assertSplitMatchesReference(t, decoded, g.Name+" rewritten decoded")
	}
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 100; i++ {
		g := graph.RandomDAG(rng, graph.RandomDAGConfig{Nodes: 2 + rng.Intn(60), EdgeProb: 0.02 + 0.3*rng.Float64()})
		assertSplitMatchesReference(t, g, fmt.Sprintf("random DAG %d", i))
	}
	for i := 0; i < 20; i++ {
		assertSplitMatchesReference(t, randomHourglass(rng, 1+rng.Intn(4)), fmt.Sprintf("random hourglass %d", i))
	}
	for seed := int64(1); seed <= 4; seed++ {
		g := models.StackedRandWire("stack", 4, models.WSConfig{Nodes: 16, K: 4, P: 0.75, Seed: seed, HW: 8, Channel: 4})
		assertSplitMatchesReference(t, g, fmt.Sprintf("stack %d", seed))
		rw, _, err := rewrite.RewriteAll(g, rewrite.DefaultRules(), 0)
		if err != nil {
			t.Fatal(err)
		}
		assertSplitMatchesReference(t, rw, fmt.Sprintf("stack %d rewritten", seed))
	}
}

// FuzzSplitDifferential holds CutNodes and Split to their references on
// random DAGs drawn from the fuzzed seed and shape. Sparse edge
// probabilities leave waists for the cut sweep to find.
func FuzzSplitDifferential(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(8))
	f.Add(int64(2), uint8(64), uint8(2))
	f.Add(int64(3), uint8(120), uint8(80))
	f.Fuzz(func(t *testing.T, seed int64, nodes, edge uint8) {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomDAG(rng, graph.RandomDAGConfig{Nodes: 2 + int(nodes)%120, EdgeProb: (1 + float64(edge)) / 256})
		assertSplitMatchesReference(t, g, "random DAG")
	})
}

// fitsReference is the materialized order check the view's Fits replaced:
// every node of seg exactly once, each after all of its predecessors.
func fitsReference(seg *graph.Graph, order []int) bool {
	n := seg.NumNodes()
	if len(order) != n {
		return false
	}
	done := make([]bool, n)
	for _, id := range order {
		if id < 0 || id >= n || done[id] {
			return false
		}
		for _, p := range seg.Nodes[id].Preds {
			if !done[p] {
				return false
			}
		}
		done[id] = true
	}
	return true
}

// randomTopoOrder is Kahn's algorithm taking a uniformly random ready node
// at every step: any topological order of g can come out.
func randomTopoOrder(rng *rand.Rand, g *graph.Graph) []int {
	indeg := make([]int, g.NumNodes())
	var ready, order []int
	for id, n := range g.Nodes {
		if indeg[id] = len(n.Preds); indeg[id] == 0 {
			ready = append(ready, id)
		}
	}
	for len(ready) > 0 {
		i := rng.Intn(len(ready))
		v := ready[i]
		ready = append(ready[:i], ready[i+1:]...)
		order = append(order, v)
		for _, s := range g.Nodes[v].Succs {
			if indeg[s]--; indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	return order
}

// randomConcatStack chains cells of SepConv branches off a pointwise waist,
// each ending in concat → pointwise conv or depthwise conv: waists to cut
// at, and a rewrite site in every cell.
func randomConcatStack(rng *rand.Rand, cells int) *graph.Graph {
	b := graph.NewBuilder("concat-stack")
	x := b.Input(graph.Shape{1, 8, 8, 8})
	for c := 0; c < cells; c++ {
		x = b.PointwiseConv(x, 8)
		ids := []int{x}
		var ends []int
		for k := 2 + rng.Intn(3); k > 0; k-- {
			y := ids[rng.Intn(len(ids))]
			for d := 1 + rng.Intn(2); d > 0; d-- {
				y = b.SepConv(y, 8, 3, 1, graph.PadSame)
				ids = append(ids, y)
			}
			ends = append(ends, y)
		}
		if x = b.Concat(ends...); rng.Intn(2) == 0 {
			x = b.PointwiseConv(x, 8)
		} else {
			x = b.DepthwiseConv(x, 3, 1, graph.PadSame)
		}
	}
	return b.Graph()
}

// FuzzSegmentView holds a Splitter's segment views to segments built node by
// node (splitReference) on random DAGs and on rewritten concat stacks, whose
// segments carry aliases: the same fingerprint bytes, the same graph once
// Graph builds it, and the same Fits verdict as the materialized check on
// random permutations, random topological orders and topological orders with
// two entries swapped.
func FuzzSegmentView(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(8), false)
	f.Add(int64(2), uint8(64), uint8(2), false)
	f.Add(int64(3), uint8(3), uint8(0), true)
	f.Add(int64(4), uint8(5), uint8(0), true)
	f.Fuzz(func(t *testing.T, seed int64, nodes, edge uint8, rewritten bool) {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomDAG(rng, graph.RandomDAGConfig{Nodes: 2 + int(nodes)%120, EdgeProb: (1 + float64(edge)) / 256})
		if rewritten {
			rw, _, err := rewrite.RewriteAll(randomConcatStack(rng, 1+int(nodes)%6), rewrite.DefaultRules(), 0)
			if err != nil {
				t.Fatal(err)
			}
			g = rw
		}
		var sp Splitter
		views, err := sp.Split(g)
		if err != nil {
			t.Fatal(err)
		}
		want, err := splitReference(g)
		if err != nil {
			t.Fatal(err)
		}
		if len(views.Segments) != len(want.Segments) {
			t.Fatalf("%d views, reference %d segments", len(views.Segments), len(want.Segments))
		}
		for i, view := range views.Segments {
			ref := want.Segments[i]
			built := &Segment{G: ref.G, VirtualInput: ref.VirtualInput}
			if view.NumNodes() != ref.G.NumNodes() || view.Fingerprint() != built.Fingerprint() {
				t.Fatalf("segment %d: view of %d nodes hashes %s, built %d nodes %s",
					i, view.NumNodes(), view.Fingerprint(), ref.G.NumNodes(), built.Fingerprint())
			}
			n := ref.G.NumNodes()
			for range 8 {
				order := randomTopoOrder(rng, ref.G)
				orders := [][]int{order, rng.Perm(n), slices.Clone(order)}
				a, b := rng.Intn(n), rng.Intn(n)
				orders[2][a], orders[2][b] = orders[2][b], orders[2][a]
				for _, o := range orders {
					if got, want := view.Fits(o), fitsReference(ref.G, o); got != want || built.Fits(o) != want {
						t.Fatalf("segment %d, order %v: view Fits %t, built Fits %t, reference %t", i, o, got, built.Fits(o), want)
					}
				}
			}
			if !reflect.DeepEqual(view.Graph(), ref.G) {
				t.Fatalf("segment %d: the view's graph differs from the reference", i)
			}
		}
	})
}
