package alloc

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/serenity-ml/serenity/internal/graph"
	"github.com/serenity-ml/serenity/internal/models"
	"github.com/serenity-ml/serenity/internal/rewrite"
	"github.com/serenity-ml/serenity/internal/sched"
)

func bytesShape(b int64) graph.Shape { return graph.Shape{int(b / 4)} }

func chain() (*sched.MemModel, sched.Schedule) {
	g := graph.New("chain")
	a := g.AddNode(graph.OpInput, "in", bytesShape(100))
	b := g.AddNode(graph.OpReLU, "r1", bytesShape(100), a)
	g.AddNode(graph.OpReLU, "r2", bytesShape(100), b)
	return sched.NewMemModel(g), sched.Schedule{0, 1, 2}
}

func TestLifetimesChain(t *testing.T) {
	m, order := chain()
	lts, err := new(Planner).lifetimes(m, order)
	if err != nil {
		t.Fatal(err)
	}
	if len(lts) != 3 {
		t.Fatalf("lifetimes = %d", len(lts))
	}
	byRoot := map[int]Lifetime{}
	for _, lt := range lts {
		byRoot[lt.Root] = lt
	}
	if byRoot[0].Start != 0 || byRoot[0].End != 1 {
		t.Errorf("in lifetime = %+v", byRoot[0])
	}
	if byRoot[2].End != 2 {
		t.Errorf("output must live to the end: %+v", byRoot[2])
	}
}

func TestPlanChainReusesMemory(t *testing.T) {
	m, order := chain()
	a, err := Plan(m, order)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Verify(); err != nil {
		t.Fatal(err)
	}
	// in[0,1] and r2[2,2] can share; r1[1,2] overlaps both -> arena 200.
	if a.ArenaSize != 200 {
		t.Errorf("arena = %d, want 200", a.ArenaSize)
	}
}

func TestPlanAliasedBufferGetsOneAllocation(t *testing.T) {
	g := graph.New("buf")
	x := g.AddNode(graph.OpInput, "x", bytesShape(40))
	buf := g.AddNode(graph.OpBuffer, "buf", bytesShape(100))
	w := g.AddNode(graph.OpPartialDWConv, "w", bytesShape(40), x, buf)
	g.Nodes[w].Attr.AliasOf = buf
	j := g.AddNode(graph.OpIdentity, "j", bytesShape(100), w)
	g.Nodes[j].Attr.AliasOf = buf
	g.AddNode(graph.OpReLU, "out", bytesShape(100), j)
	m := sched.NewMemModel(g)
	order := sched.Schedule{0, 1, 2, 3, 4}
	a, err := Plan(m, order)
	if err != nil {
		t.Fatal(err)
	}
	if a.Offsets[w] != -1 || a.Offsets[j] != -1 {
		t.Error("alias nodes must not receive their own offsets")
	}
	if a.Offsets[buf] < 0 {
		t.Error("buffer must receive an offset")
	}
	if err := a.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestPlanNonOverlapProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 60; trial++ {
		g := graph.RandomDAG(rng, graph.RandomDAGConfig{Nodes: 20, EdgeProb: 0.2})
		m := sched.NewMemModel(g)
		order := sched.RandomTopo(g, rng)
		a, err := Plan(m, order)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Verify(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Arena bounded below by the ideal peak and above by total bytes.
		peak := m.MustPeak(order)
		if a.ArenaSize < peak {
			t.Fatalf("trial %d: arena %d < ideal peak %d", trial, a.ArenaSize, peak)
		}
		if total := g.TotalActivationBytes(); a.ArenaSize > total {
			t.Fatalf("trial %d: arena %d > total %d", trial, a.ArenaSize, total)
		}
	}
}

func TestPlanDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.RandomDAG(rng, graph.RandomDAGConfig{Nodes: 15, EdgeProb: 0.25})
	m := sched.NewMemModel(g)
	order, _ := sched.KahnFIFO(g)
	a1, _ := Plan(m, order)
	a2, _ := Plan(m, order)
	for i := range a1.Offsets {
		if a1.Offsets[i] != a2.Offsets[i] {
			t.Fatal("Plan not deterministic")
		}
	}
}

func TestPlanRejectsInvalidOrder(t *testing.T) {
	m, _ := chain()
	if _, err := Plan(m, sched.Schedule{2, 1, 0}); err == nil {
		t.Error("invalid order accepted")
	}
	if _, err := Plan(m, sched.Schedule{0}); err == nil {
		t.Error("short order accepted")
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	m, order := chain()
	a, _ := Plan(m, order)
	// Force every tensor to offset 0: in/r1 overlap in time -> must fail.
	for i := range a.Offsets {
		if a.Offsets[i] > 0 {
			a.Offsets[i] = 0
		}
	}
	if err := a.Verify(); err == nil {
		t.Error("corrupted assignment passed Verify")
	}
}

// planReference is the arena planner as first written: for every tensor, the
// placed tensors it meets in time are collected into a fresh slice, sorted
// by offset and scanned for the lowest gap. Plan must reproduce its offsets
// exactly.
func planReference(m *sched.MemModel, order sched.Schedule) (*Assignment, error) {
	lts, err := new(Planner).lifetimes(m, order)
	if err != nil {
		return nil, err
	}
	sort.SliceStable(lts, func(i, j int) bool {
		if lts[i].Size != lts[j].Size {
			return lts[i].Size > lts[j].Size
		}
		return lts[i].Start < lts[j].Start
	})

	a := &Assignment{
		Offsets:   make([]int64, m.G.NumNodes()),
		Lifetimes: lts,
	}
	for i := range a.Offsets {
		a.Offsets[i] = -1
	}

	type placed struct {
		lt     Lifetime
		offset int64
	}
	var fixed []placed
	for _, lt := range lts {
		// Collect the occupied intervals that conflict in time, sorted by
		// offset, then scan for the lowest gap of lt.Size bytes.
		var conflicts []placed
		for _, p := range fixed {
			if p.lt.Start <= lt.End && lt.Start <= p.lt.End {
				conflicts = append(conflicts, p)
			}
		}
		sort.Slice(conflicts, func(i, j int) bool { return conflicts[i].offset < conflicts[j].offset })
		var offset int64
		for _, c := range conflicts {
			if offset+lt.Size <= c.offset {
				break // fits in the gap before c
			}
			if end := c.offset + c.lt.Size; end > offset {
				offset = end
			}
		}
		a.Offsets[lt.Root] = offset
		if end := offset + lt.Size; end > a.ArenaSize {
			a.ArenaSize = end
		}
		fixed = append(fixed, placed{lt: lt, offset: offset})
	}
	return a, nil
}

// differentialGraphs is the corpus Plan is held to planReference on: the
// nine evaluation cells as built and after the rewrite (alias nodes, shared
// buffers), random DAGs with few and many distinct tensor sizes, random
// hourglasses and stacked WS cells.
func differentialGraphs(t testing.TB) []*graph.Graph {
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
	for i := 0; i < 40; i++ {
		gs = append(gs, graph.RandomDAG(rng, graph.RandomDAGConfig{
			Nodes: 10 + rng.Intn(60), EdgeProb: 0.05 + 0.3*rng.Float64(),
			MinBytes: 4, MaxBytes: 4 << uint(rng.Intn(8)),
		}))
	}
	for i := 0; i < 10; i++ {
		g := graph.New("hourglass")
		cur := g.AddNode(graph.OpInput, "in", bytesShape(32))
		for c := 0; c < 2+rng.Intn(3); c++ {
			var branches []int
			for w := 0; w < 2+rng.Intn(3); w++ {
				n := g.AddNode(graph.OpReLU, "x", bytesShape(int64(4*(1+rng.Intn(16)))), cur)
				if rng.Intn(2) == 0 {
					n = g.AddNode(graph.OpReLU, "y", bytesShape(int64(4*(1+rng.Intn(16)))), n)
				}
				branches = append(branches, n)
			}
			cur = g.AddNode(graph.OpAdd, "join", bytesShape(32), branches...)
		}
		gs = append(gs, g)
	}
	for seed := int64(1); seed <= 3; seed++ {
		gs = append(gs, models.StackedRandWire("stack", 3, models.WSConfig{Nodes: 16, K: 4, P: 0.75, Seed: seed, HW: 8, Channel: 4}))
	}
	return gs
}

// assertPlanMatchesReference plans order with Plan and planReference and
// fails unless the offsets and arena sizes agree and the plan verifies.
func assertPlanMatchesReference(t testing.TB, m *sched.MemModel, order sched.Schedule, what string) {
	t.Helper()
	got, err := Plan(m, order)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want, err := planReference(m, order)
	if err != nil {
		t.Fatalf("%s: reference: %v", what, err)
	}
	if got.ArenaSize != want.ArenaSize || !slices.Equal(got.Offsets, want.Offsets) {
		t.Fatalf("%s: arena %d offsets %v, reference arena %d offsets %v",
			what, got.ArenaSize, got.Offsets, want.ArenaSize, want.Offsets)
	}
	if err := got.Verify(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// TestPlanMatchesReference: the offset-sorted scan places every tensor of
// the corpus exactly where the collect-and-sort planner did, under Kahn's
// order and several random topological orders.
func TestPlanMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for gi, g := range differentialGraphs(t) {
		m := sched.NewMemModel(g)
		order, err := sched.KahnFIFO(g)
		if err != nil {
			t.Fatal(err)
		}
		assertPlanMatchesReference(t, m, order, fmt.Sprintf("graph %d (%s) kahn", gi, g.Name))
		for k := 0; k < 4; k++ {
			assertPlanMatchesReference(t, m, sched.RandomTopo(g, rng), fmt.Sprintf("graph %d (%s) random order %d", gi, g.Name, k))
		}
	}
}

// FuzzPlanDifferential holds Plan to planReference on random DAGs and random
// topological orders drawn from the fuzzed seed and shape.
func FuzzPlanDifferential(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(60), uint8(4))
	f.Add(int64(2), uint8(64), uint8(10), uint8(0))
	f.Add(int64(3), uint8(120), uint8(200), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, nodes, edge, spread uint8) {
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomDAG(rng, graph.RandomDAGConfig{
			Nodes: 2 + int(nodes)%120, EdgeProb: (1 + float64(edge)) / 256,
			MinBytes: 4, MaxBytes: 4 << (spread % 10),
		})
		m := sched.NewMemModel(g)
		for k := 0; k < 3; k++ {
			assertPlanMatchesReference(t, m, sched.RandomTopo(g, rng), fmt.Sprintf("order %d", k))
		}
	})
}
