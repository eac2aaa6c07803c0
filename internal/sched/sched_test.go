package sched

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/serenity-ml/serenity/internal/graph"
	"github.com/serenity-ml/serenity/internal/models"
	"github.com/serenity-ml/serenity/internal/rewrite"
)

// bytesShape returns a rank-1 shape occupying exactly b bytes of float32.
func bytesShape(b int64) graph.Shape {
	return graph.Shape{int(b / 4)}
}

func chainGraph() *graph.Graph {
	g := graph.New("chain")
	a := g.AddNode(graph.OpInput, "in", bytesShape(100))
	b := g.AddNode(graph.OpReLU, "r1", bytesShape(100), a)
	g.AddNode(graph.OpReLU, "r2", bytesShape(100), b)
	return g
}

func TestSimulateChain(t *testing.T) {
	m := NewMemModel(chainGraph())
	res, err := m.Simulate(Schedule{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Peak != 200 {
		t.Errorf("Peak = %d, want 200", res.Peak)
	}
	if res.Final != 100 {
		t.Errorf("Final = %d, want 100", res.Final)
	}
	wantProfile := []int64{100, 100, 100}
	wantHigh := []int64{100, 200, 200}
	for i := range wantProfile {
		if res.Profile[i] != wantProfile[i] {
			t.Errorf("Profile[%d] = %d, want %d", i, res.Profile[i], wantProfile[i])
		}
		if res.HighMark[i] != wantHigh[i] {
			t.Errorf("HighMark[%d] = %d, want %d", i, res.HighMark[i], wantHigh[i])
		}
	}
}

// TestSimulateFanOut mirrors the Figure 6 mechanics: a tensor consumed by
// two nodes is freed only after the second consumer runs.
func TestSimulateFanOut(t *testing.T) {
	g := graph.New("fanout")
	a := g.AddNode(graph.OpInput, "A", bytesShape(8))
	b := g.AddNode(graph.OpReLU, "B", bytesShape(4), a)
	c := g.AddNode(graph.OpReLU, "C", bytesShape(4), a)
	g.AddNode(graph.OpAdd, "D", bytesShape(4), b, c)
	m := NewMemModel(g)

	res, err := m.Simulate(Schedule{a, b, c, 3})
	if err != nil {
		t.Fatal(err)
	}
	// A=8 stays live through B and C; peak at C: 8+4+4=16.
	if res.Peak != 16 {
		t.Errorf("Peak = %d, want 16", res.Peak)
	}
	// After C: A freed -> 4+4=8. After D: B,C freed -> 4.
	if res.Profile[2] != 8 || res.Profile[3] != 4 {
		t.Errorf("Profile = %v", res.Profile)
	}
}

func bufferGraph() *graph.Graph {
	g := graph.New("buffer")
	x1 := g.AddNode(graph.OpInput, "x1", bytesShape(40))
	x2 := g.AddNode(graph.OpInput, "x2", bytesShape(60))
	buf := g.AddNode(graph.OpBuffer, "buf", bytesShape(100))
	w1 := g.AddNode(graph.OpPartialDWConv, "w1", bytesShape(40), x1, buf)
	g.Nodes[w1].Attr.AliasOf = buf
	w2 := g.AddNode(graph.OpPartialDWConv, "w2", bytesShape(60), x2, buf)
	g.Nodes[w2].Attr.AliasOf = buf
	j := g.AddNode(graph.OpIdentity, "join", bytesShape(100), w1, w2)
	g.Nodes[j].Attr.AliasOf = buf
	g.AddNode(graph.OpReLU, "out", bytesShape(100), j)
	return g
}

func TestSimulateSharedBuffer(t *testing.T) {
	g := bufferGraph()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	m := NewMemModel(g)
	// Schedule one branch fully before loading the other input: the rewrite's
	// whole point is that x2 need not coexist with x1.
	res, err := m.Simulate(Schedule{0, 2, 3, 1, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	// Steps: x1:40; buf:140; w1: free x1 -> 100; x2: 160 (peak until out);
	// w2: free x2 -> 100; join: 100; out: +100=200 then free buf -> 100.
	if res.Peak != 200 {
		t.Errorf("Peak = %d, want 200", res.Peak)
	}
	if res.Profile[6] != 100 || res.Final != 100 {
		t.Errorf("Final = %d Profile=%v", res.Final, res.Profile)
	}
	// Buffer freed exactly at the last consumer (out), not at join.
	if res.Profile[5] != 100 {
		t.Errorf("buffer freed too early: profile %v", res.Profile)
	}
}

func TestCheckValidErrors(t *testing.T) {
	m := NewMemModel(chainGraph())
	cases := []Schedule{
		{0, 1},       // wrong length
		{0, 1, 1},    // duplicate
		{1, 0, 2},    // precedence violation
		{0, 1, 3},    // out of range
		{0, 2, 1},    // precedence violation (r2 before r1)
		{-1, 0, 1},   // negative
		{0, 1, 2, 2}, // too long
	}
	for i, c := range cases {
		if err := m.CheckValid(c); err == nil {
			t.Errorf("case %d: invalid schedule %v accepted", i, c)
		}
	}
	if err := m.CheckValid(Schedule{0, 1, 2}); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
}

func TestBaselinesProduceValidOrders(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		g := graph.RandomDAG(rng, graph.RandomDAGConfig{Nodes: 24, EdgeProb: 0.2})
		m := NewMemModel(g)
		for name, fn := range map[string]func(*graph.Graph) (Schedule, error){
			"kahn": KahnFIFO, "dfs": DFSEmission, "minid": MinIDOrder,
		} {
			o, err := fn(g)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := m.CheckValid(o); err != nil {
				t.Fatalf("%s produced invalid order: %v", name, err)
			}
		}
	}
}

func TestDFSEmissionDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomDAG(rng, graph.RandomDAGConfig{Nodes: 30, EdgeProb: 0.15})
	o1, _ := DFSEmission(g)
	o2, _ := DFSEmission(g)
	for i := range o1 {
		if o1[i] != o2[i] {
			t.Fatal("DFSEmission not deterministic")
		}
	}
}

func TestBaselinePeakIsKahn(t *testing.T) {
	g := graph.RandomDAG(rand.New(rand.NewSource(5)), graph.RandomDAGConfig{Nodes: 30, EdgeProb: 0.15})
	m := NewMemModel(g)
	order, peak, err := BaselinePeak(m)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := KahnFIFO(g)
	if !slices.Equal(order, want) {
		t.Fatal("BaselinePeak order differs from KahnFIFO")
	}
	if wantPeak, _ := m.Peak(want); peak != wantPeak {
		t.Errorf("baseline peak = %d, want Kahn's %d", peak, wantPeak)
	}
	if _, chainPeak, _ := BaselinePeak(NewMemModel(chainGraph())); chainPeak != 200 {
		t.Errorf("chain baseline peak = %d, want 200", chainPeak)
	}
}

func TestRandomTopoValidAndDiverse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := graph.RandomDAG(rng, graph.RandomDAGConfig{Nodes: 16, EdgeProb: 0.15})
	m := NewMemModel(g)
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		o := RandomTopo(g, rng)
		if err := m.CheckValid(o); err != nil {
			t.Fatal(err)
		}
		key := ""
		for _, v := range o {
			key += string(rune('a' + v))
		}
		seen[key] = true
	}
	if len(seen) < 2 {
		t.Error("RandomTopo produced a single order across 200 draws")
	}
}

func TestBruteForceOptimalOnChain(t *testing.T) {
	m := NewMemModel(chainGraph())
	order, peak, err := BruteForce(m)
	if err != nil {
		t.Fatal(err)
	}
	if peak != 200 {
		t.Errorf("brute force peak = %d, want 200", peak)
	}
	if err := m.CheckValid(order); err != nil {
		t.Fatal(err)
	}
}

func TestBruteForceBeatsOrMatchesAllSamples(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 15; trial++ {
		g := graph.RandomDAG(rng, graph.RandomDAGConfig{Nodes: 10, EdgeProb: 0.25})
		m := NewMemModel(g)
		_, best, err := BruteForce(m)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 50; i++ {
			p := m.MustPeak(RandomTopo(g, rng))
			if p < best {
				t.Fatalf("trial %d: sampled peak %d < brute force %d", trial, p, best)
			}
		}
	}
}

func TestBruteForceRejectsLargeGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomDAG(rng, graph.RandomDAGConfig{Nodes: BruteForceLimit + 1, EdgeProb: 0.3})
	if _, _, err := BruteForce(NewMemModel(g)); err != ErrTooLarge {
		t.Fatalf("want ErrTooLarge, got %v", err)
	}
}

func TestCountTopoOrders(t *testing.T) {
	// Two independent 2-chains: C(4,2) = 6 interleavings.
	g := graph.New("two-chains")
	a := g.AddNode(graph.OpInput, "a", bytesShape(4))
	g.AddNode(graph.OpReLU, "a2", bytesShape(4), a)
	c := g.AddNode(graph.OpInput, "c", bytesShape(4))
	g.AddNode(graph.OpReLU, "c2", bytesShape(4), c)
	if got := CountTopoOrders(g, 1000); got != 6 {
		t.Errorf("CountTopoOrders = %d, want 6", got)
	}
	// Chain has exactly one order.
	if got := CountTopoOrders(chainGraph(), 1000); got != 1 {
		t.Errorf("chain orders = %d, want 1", got)
	}
	// Limit respected.
	if got := CountTopoOrders(g, 3); got != 3 {
		t.Errorf("limited count = %d, want 3", got)
	}
}

func TestPeakCDF(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := graph.RandomDAG(rng, graph.RandomDAGConfig{Nodes: 14, EdgeProb: 0.2})
	m := NewMemModel(g)
	cdf := SamplePeakCDF(m, 300, rng)
	if len(cdf.Peaks) != 300 {
		t.Fatalf("samples = %d", len(cdf.Peaks))
	}
	for i := 1; i < len(cdf.Peaks); i++ {
		if cdf.Peaks[i-1] > cdf.Peaks[i] {
			t.Fatal("CDF not sorted")
		}
	}
	if cdf.FractionAtOrBelow(cdf.Max()) != 1.0 {
		t.Error("fraction at max should be 1")
	}
	if cdf.FractionAtOrBelow(cdf.Min()-1) != 0.0 {
		t.Error("fraction below min should be 0")
	}
	if cdf.Quantile(0) != cdf.Min() || cdf.Quantile(1) != cdf.Max() {
		t.Error("quantile endpoints wrong")
	}
	// Optimal (brute force) must be <= sampled min.
	if _, best, err := BruteForce(m); err == nil && best > cdf.Min() {
		t.Errorf("brute force %d > sampled min %d", best, cdf.Min())
	}
}

// TestStepDeallocConsistency replays a schedule using the DP transition
// helper and checks it reproduces Simulate's profile exactly.
func TestStepDeallocConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 25; trial++ {
		g := graph.RandomDAG(rng, graph.RandomDAGConfig{Nodes: 18, EdgeProb: 0.2})
		m := NewMemModel(g)
		order := RandomTopo(g, rng)
		res, err := m.Simulate(order)
		if err != nil {
			t.Fatal(err)
		}
		scheduled := graph.NewBitset(g.NumNodes())
		var mu int64
		for i, u := range order {
			scheduled.Set(u)
			mu += m.Alloc[u]
			mu -= m.StepDealloc(scheduled, u)
			if mu != res.Profile[i] {
				t.Fatalf("trial %d step %d: replay mu %d != profile %d", trial, i, mu, res.Profile[i])
			}
		}
	}
}

// TestMemModelAliasConsumers: a tensor is consumed by every node reading it
// through any of its alias views, each consumer listed once and in ID order,
// and a node's operand roots are de-duplicated.
func TestMemModelAliasConsumers(t *testing.T) {
	g := graph.New("alias")
	x := g.AddNode(graph.OpInput, "x", graph.Shape{16})
	buf := g.AddNode(graph.OpBuffer, "buf", graph.Shape{32}, x)
	w := g.AddNode(graph.OpPartialDWConv, "w", graph.Shape{16}, x, buf)
	g.Nodes[w].Attr.AliasOf = buf
	j := g.AddNode(graph.OpIdentity, "join", graph.Shape{32}, w)
	g.Nodes[j].Attr.AliasOf = buf
	r := g.AddNode(graph.OpReLU, "read", graph.Shape{32}, j)
	if err := g.Validate(); err != nil {
		t.Fatalf("alias graph invalid: %v", err)
	}
	m := NewMemModel(g)
	if m.Root[j] != buf || m.Root[w] != buf || m.Root[x] != x {
		t.Errorf("roots = %v", m.Root)
	}
	// buf consumed by: w (direct), j (via w alias), r (via j alias).
	if got := m.Consumers[buf]; !slices.Equal(got, []int{w, j, r}) {
		t.Errorf("buf consumers = %v, want %v", got, []int{w, j, r})
	}
	if got := m.Consumers[x]; !slices.Equal(got, []int{buf, w}) {
		t.Errorf("x consumers = %v, want %v", got, []int{buf, w})
	}
	if got := m.Consumers[r]; got != nil {
		t.Errorf("sink must have no consumers, got %v", got)
	}
	if got := m.PredRoots[w]; !slices.Equal(got, []int{x, buf}) {
		t.Errorf("w pred roots = %v, want %v", got, []int{x, buf})
	}
}

// consumersReference is the consumer table as first built, with a map of
// roots and a set per node: root r maps to the sorted IDs of the nodes with
// a predecessor whose physical root is r.
func consumersReference(g *graph.Graph) map[int][]int {
	out := make(map[int][]int)
	for _, n := range g.Nodes {
		seen := map[int]bool{}
		for _, p := range n.Preds {
			r := g.PhysRoot(p)
			if !seen[r] {
				seen[r] = true
				out[r] = append(out[r], n.ID)
			}
		}
	}
	for _, v := range out {
		sort.Ints(v)
	}
	return out
}

// TestMemModelConsumersMatchReference holds NewMemModel's consumer lists to
// consumersReference on the nine evaluation cells (as built and after the
// rewrite, which adds alias nodes) and on random DAGs.
func TestMemModelConsumersMatchReference(t *testing.T) {
	var gs []*graph.Graph
	for _, c := range models.BenchmarkCells() {
		g := c.Build()
		rw, _, err := rewrite.RewriteAll(g, rewrite.DefaultRules(), 0)
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, g, rw)
	}
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 50; i++ {
		gs = append(gs, graph.RandomDAG(rng, graph.RandomDAGConfig{Nodes: 2 + rng.Intn(60), EdgeProb: 0.02 + 0.3*rng.Float64()}))
	}
	for _, g := range gs {
		m := NewMemModel(g)
		want := consumersReference(g)
		for r, got := range m.Consumers {
			if !slices.Equal(got, want[r]) {
				t.Fatalf("%s: root %d consumers %v, reference %v", g.Name, r, got, want[r])
			}
		}
	}
}
