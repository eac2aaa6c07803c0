package dp_test

// Differential harness: every test here runs the allocation-free production
// core against referenceScheduleCtx (the retired map-based frontier) on the
// same inputs and asserts the results are bit-identical — the hard contract
// the frontier rewrite shipped under. Wall-clock-dependent aborts
// (StepTimeout) are compared on Flag only; everything deterministic —
// solutions, budget exhaustion, the MaxStates valve, pre-canceled contexts —
// is compared field by field, including the search accounting.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/serenity-ml/serenity/internal/dp"
	"github.com/serenity-ml/serenity/internal/graph"
	"github.com/serenity-ml/serenity/internal/models"
	"github.com/serenity-ml/serenity/internal/partition"
	"github.com/serenity-ml/serenity/internal/sched"
)

// assertBitIdentical fails unless got matches want on every deterministic
// Result field. Elapsed is exempt (wall clock).
func assertBitIdentical(t *testing.T, name string, want, got *dp.Result) {
	t.Helper()
	if got.Flag != want.Flag {
		t.Fatalf("%s: flag %v != reference %v", name, got.Flag, want.Flag)
	}
	if got.Peak != want.Peak {
		t.Errorf("%s: peak %d != reference %d", name, got.Peak, want.Peak)
	}
	if got.StatesExplored != want.StatesExplored {
		t.Errorf("%s: states explored %d != reference %d", name, got.StatesExplored, want.StatesExplored)
	}
	if got.StatesPruned != want.StatesPruned {
		t.Errorf("%s: states pruned %d != reference %d", name, got.StatesPruned, want.StatesPruned)
	}
	if got.StatesForced != want.StatesForced {
		t.Errorf("%s: states forced %d != reference %d", name, got.StatesForced, want.StatesForced)
	}
	if got.MaxFrontier != want.MaxFrontier {
		t.Errorf("%s: max frontier %d != reference %d", name, got.MaxFrontier, want.MaxFrontier)
	}
	if len(got.Order) != len(want.Order) {
		t.Fatalf("%s: order length %d != reference %d", name, len(got.Order), len(want.Order))
	}
	for i := range got.Order {
		if got.Order[i] != want.Order[i] {
			t.Fatalf("%s: order diverges at %d: %v vs reference %v", name, i, got.Order, want.Order)
		}
	}
}

// diffOne runs the reference and production cores on one instance/options
// pair and asserts they agree.
func diffOne(t *testing.T, name string, m *sched.MemModel, opts dp.Options) *dp.Result {
	t.Helper()
	want := referenceSchedule(m, opts)
	assertBitIdentical(t, name, want, dp.Schedule(m, opts))
	return want
}

// TestDifferentialNineCells runs the harness over every segment of the
// paper's nine evaluation cells — the exact workload serenityd serves — with
// an unlimited budget, a tight budget (the optimum), and an infeasible
// budget (optimum-1). MaxStates guards the densest segments; a deterministic
// valve abort is itself compared bit for bit.
func TestDifferentialNineCells(t *testing.T) {
	if testing.Short() {
		t.Skip("nine-cell differential is the long way round")
	}
	if raceEnabled {
		t.Skip("single-threaded oracle adds no race coverage and is ~8x slower under race")
	}
	for _, cell := range models.BenchmarkCells() {
		g := cell.Build()
		part, err := partition.Split(g)
		if err != nil {
			t.Fatalf("%s %s: %v", cell.Network, cell.Cell, err)
		}
		for i, seg := range part.Segments {
			m := sched.NewMemModel(seg.G)
			name := fmt.Sprintf("%s/%s/seg%d", cell.Network, cell.Cell, i)
			base := diffOne(t, name, m, dp.Options{MaxStates: 1 << 20})
			if base.Flag != dp.FlagSolution {
				continue // valve fired; already compared
			}
			diffOne(t, name+"/budget=opt", m, dp.Options{Budget: base.Peak, MaxStates: 1 << 20})
			diffOne(t, name+"/budget=opt-1", m, dp.Options{Budget: base.Peak - 1, MaxStates: 1 << 20})
		}
	}
}

// TestDifferentialRandomDAGs is the harness over 200 random DAGs spanning
// densities and fan-in limits, each under four budget regimes.
func TestDifferentialRandomDAGs(t *testing.T) {
	iters := 200
	if testing.Short() || raceEnabled {
		iters = 40
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < iters; i++ {
		cfg := graph.RandomDAGConfig{
			Nodes:    4 + rng.Intn(15),
			EdgeProb: 0.1 + rng.Float64()*0.6,
			MaxFanIn: 1 + rng.Intn(4),
		}
		g := graph.RandomDAG(rng, cfg)
		m := sched.NewMemModel(g)
		name := fmt.Sprintf("iter%d", i)
		base := diffOne(t, name, m, dp.Options{})
		diffOne(t, name+"/budget=opt", m, dp.Options{Budget: base.Peak})
		diffOne(t, name+"/budget=opt-1", m, dp.Options{Budget: base.Peak - 1})
		diffOne(t, name+"/budget=2opt", m, dp.Options{Budget: 2 * base.Peak})
	}
}

// TestDifferentialMaxStatesValve pins the deterministic abort: a tiny state
// cap must fire at the same point with the same partial accounting in the
// production core as in the reference.
func TestDifferentialMaxStatesValve(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		g := graph.RandomDAG(rng, graph.RandomDAGConfig{Nodes: 40, EdgeProb: 0.04, MaxFanIn: 2})
		m := sched.NewMemModel(g)
		for _, cap := range []int{1, 8, 64} {
			opts := dp.Options{MaxStates: cap}
			want := referenceSchedule(m, opts)
			got := dp.Schedule(m, opts)
			assertBitIdentical(t, fmt.Sprintf("trial%d/cap%d", trial, cap), want, got)
		}
	}
}

// TestDifferentialCancellation covers the cancellation edges: a pre-canceled
// context is deterministic (no work yet) and must match bit for bit; a
// mid-flight cancellation must abort both cores with FlagCanceled.
func TestDifferentialCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := graph.RandomDAG(rng, graph.RandomDAGConfig{Nodes: 30, EdgeProb: 0.1, MaxFanIn: 3})
	m := sched.NewMemModel(g)

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	want := referenceScheduleCtx(pre, m, dp.Options{})
	got := dp.ScheduleCtx(pre, m, dp.Options{})
	assertBitIdentical(t, "pre-canceled", want, got)
	if want.Flag != dp.FlagCanceled || want.StatesExplored != 0 {
		t.Fatalf("pre-canceled reference did work: %+v", want)
	}

	// Mid-flight: cancel shortly after the search starts on a graph too wide
	// to finish instantly. Wall-clock dependent, so Flag-only — it may even
	// finish first on a fast machine.
	wide := graph.RandomDAG(rng, graph.RandomDAGConfig{Nodes: 60, EdgeProb: 0.05, MaxFanIn: 2})
	wm := sched.NewMemModel(wide)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	r := dp.ScheduleCtx(ctx, wm, dp.Options{})
	cancel()
	if r.Flag != dp.FlagCanceled && r.Flag != dp.FlagSolution {
		t.Fatalf("mid-flight cancel returned %v", r.Flag)
	}
}

// TestDifferentialStepTimeout covers the wall-clock abort: with a nanosecond
// step budget both cores must report timeout (never hang, never return a
// bogus solution) on a graph whose levels cannot complete that fast.
func TestDifferentialStepTimeout(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomDAG(rng, graph.RandomDAGConfig{Nodes: 60, EdgeProb: 0.05, MaxFanIn: 2})
	m := sched.NewMemModel(g)
	opts := dp.Options{StepTimeout: time.Nanosecond}
	if f := referenceSchedule(m, opts).Flag; f != dp.FlagTimeout {
		t.Fatalf("reference: flag %v, want timeout", f)
	}
	if f := dp.Schedule(m, opts).Flag; f != dp.FlagTimeout {
		t.Fatalf("production: flag %v, want timeout", f)
	}
}

// FuzzDPDifferential fuzzes the harness itself: generator parameters plus a
// budget selector, asserting the production core agrees with the reference
// on whatever DAG falls out, that its order is canonical (one order across
// budgets and the adaptive probe; see canonical_test.go), and that the safe-move rule
// kept the optimum (the unrestricted oracle, and brute force up to ten nodes).
func FuzzDPDifferential(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(80), uint8(0))
	f.Add(int64(7), uint8(16), uint8(40), uint8(1))
	f.Add(int64(-3), uint8(6), uint8(200), uint8(2))
	f.Add(int64(99), uint8(18), uint8(20), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nodes, edgeProb, budgetSel uint8) {
		if nodes > 20 {
			t.Skip("keep the DP tractable")
		}
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomDAG(rng, graph.RandomDAGConfig{
			Nodes:    int(nodes),
			EdgeProb: float64(edgeProb) / 255,
			MaxFanIn: 1 + int(budgetSel%4),
		})
		m := sched.NewMemModel(g)
		base := diffOne(t, "fuzz", m, dp.Options{MaxStates: 1 << 18})
		if base.Flag != dp.FlagSolution {
			return
		}
		var budget int64
		switch budgetSel % 4 {
		case 0:
			budget = 0
		case 1:
			budget = base.Peak
		case 2:
			budget = base.Peak - 1
		case 3:
			budget = base.Peak + base.Peak/2
		}
		diffOne(t, "fuzz/budgeted", m, dp.Options{Budget: budget, MaxStates: 1 << 18})
		assertCanonical(t, "fuzz/canonical", m)
	})
}

// TestZobristIncrementalMatchesScratch pins the hash algebra the frontier
// rides on: XOR-ing one node's word must agree with hashing the mutated set
// from scratch, across random mutation walks.
func TestZobristIncrementalMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	const n = 130 // cross word boundaries
	tab := graph.ZobristTable(n)
	b := graph.NewBitset(n)
	var h uint64
	for step := 0; step < 1000; step++ {
		u := rng.Intn(n)
		if b.Has(u) {
			b.Clear(u)
		} else {
			b.Set(u)
		}
		h ^= tab[u]
		if want := b.ZobristHash(tab); h != want {
			t.Fatalf("step %d: incremental hash %#x != scratch %#x", step, h, want)
		}
	}
	if empty := graph.NewBitset(n).ZobristHash(tab); empty != 0 {
		t.Fatalf("hash(∅) = %#x, want 0", empty)
	}
}
