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
	"runtime"
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

// parallelOpts returns opts with sharded expansion forced on: threshold 1 so
// even tiny levels shard, exercising the merge on every instance.
func parallelOpts(opts dp.Options, workers int) dp.Options {
	opts.Parallelism = workers
	opts.ParallelThreshold = 1
	return opts
}

// forceProcs raises GOMAXPROCS for the test's duration: the scheduler caps
// its shard count there, so on a single-core machine (or CI runner) the
// sharded path would otherwise silently degrade to sequential and these
// differentials would compare the sequential core against itself.
func forceProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// diffOne runs reference, sequential, and forced-parallel cores on one
// instance/options pair and asserts all three agree.
func diffOne(t *testing.T, name string, m *sched.MemModel, opts dp.Options) *dp.Result {
	t.Helper()
	want := referenceSchedule(m, opts)
	seq := dp.Schedule(m, opts)
	assertBitIdentical(t, name+"/sequential", want, seq)
	par := dp.Schedule(m, parallelOpts(opts, 4))
	if want.Flag == dp.FlagSolution {
		assertBitIdentical(t, name+"/parallel", want, par)
	} else if par.Flag != want.Flag {
		// Abort paths: the sharded expander guarantees the Flag, not the
		// partial counters (see Options.Parallelism).
		t.Fatalf("%s/parallel: flag %v != reference %v", name, par.Flag, want.Flag)
	}
	return want
}

// TestDifferentialNineCells runs the harness over every segment of the
// paper's nine evaluation cells — the exact workload serenityd serves — with
// an unlimited budget, a tight budget (the optimum), and an infeasible
// budget (optimum-1). MaxStates guards the densest segments; a deterministic
// valve abort is itself compared bit for bit.
func TestDifferentialNineCells(t *testing.T) {
	forceProcs(t, 4)
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
	forceProcs(t, 4)
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
// sequential core as in the reference.
func TestDifferentialMaxStatesValve(t *testing.T) {
	forceProcs(t, 4)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 10; trial++ {
		g := graph.RandomDAG(rng, graph.RandomDAGConfig{Nodes: 40, EdgeProb: 0.04, MaxFanIn: 2})
		m := sched.NewMemModel(g)
		for _, cap := range []int{1, 8, 64} {
			opts := dp.Options{MaxStates: cap}
			want := referenceSchedule(m, opts)
			got := dp.Schedule(m, opts)
			assertBitIdentical(t, fmt.Sprintf("trial%d/cap%d", trial, cap), want, got)
			// The sharded path guarantees the Flag for the valve.
			par := dp.Schedule(m, parallelOpts(opts, 4))
			if par.Flag != want.Flag {
				t.Fatalf("trial%d/cap%d/parallel: flag %v != %v", trial, cap, par.Flag, want.Flag)
			}
		}
	}
}

// TestDifferentialCancellation covers the cancellation edges: a pre-canceled
// context is deterministic (no work yet) and must match bit for bit; a
// mid-flight cancellation must abort both cores with FlagCanceled.
func TestDifferentialCancellation(t *testing.T) {
	forceProcs(t, 4)
	rng := rand.New(rand.NewSource(9))
	g := graph.RandomDAG(rng, graph.RandomDAGConfig{Nodes: 30, EdgeProb: 0.1, MaxFanIn: 3})
	m := sched.NewMemModel(g)

	pre, cancel := context.WithCancel(context.Background())
	cancel()
	want := referenceScheduleCtx(pre, m, dp.Options{})
	got := dp.ScheduleCtx(pre, m, dp.Options{})
	assertBitIdentical(t, "pre-canceled", want, got)
	par := dp.ScheduleCtx(pre, m, parallelOpts(dp.Options{}, 4))
	assertBitIdentical(t, "pre-canceled/parallel", want, par)
	if want.Flag != dp.FlagCanceled || want.StatesExplored != 0 {
		t.Fatalf("pre-canceled reference did work: %+v", want)
	}

	// Mid-flight: cancel shortly after the search starts on a graph too wide
	// to finish instantly. Wall-clock dependent, so Flag-only — it may even
	// finish first on a fast machine.
	wide := graph.RandomDAG(rng, graph.RandomDAGConfig{Nodes: 60, EdgeProb: 0.05, MaxFanIn: 2})
	wm := sched.NewMemModel(wide)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		r := dp.ScheduleCtx(ctx, wm, parallelOpts(dp.Options{}, workers))
		cancel()
		if r.Flag != dp.FlagCanceled && r.Flag != dp.FlagSolution {
			t.Fatalf("workers=%d: mid-flight cancel returned %v", workers, r.Flag)
		}
	}
}

// TestDifferentialStepTimeout covers the wall-clock abort: with a nanosecond
// step budget both cores must report timeout (never hang, never return a
// bogus solution) on a graph whose levels cannot complete that fast.
func TestDifferentialStepTimeout(t *testing.T) {
	forceProcs(t, 4)
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomDAG(rng, graph.RandomDAGConfig{Nodes: 60, EdgeProb: 0.05, MaxFanIn: 2})
	m := sched.NewMemModel(g)
	opts := dp.Options{StepTimeout: time.Nanosecond}
	if f := referenceSchedule(m, opts).Flag; f != dp.FlagTimeout {
		t.Fatalf("reference: flag %v, want timeout", f)
	}
	if f := dp.Schedule(m, opts).Flag; f != dp.FlagTimeout {
		t.Fatalf("sequential: flag %v, want timeout", f)
	}
	if f := dp.Schedule(m, parallelOpts(opts, 4)).Flag; f != dp.FlagTimeout {
		t.Fatalf("parallel: flag %v, want timeout", f)
	}
}

// TestParallelMatchesSequentialWideFrontiers drives the sharded expander on
// graphs wide enough to exceed the default threshold organically (no forced
// threshold) and across worker counts, including ones above GOMAXPROCS.
func TestParallelMatchesSequentialWideFrontiers(t *testing.T) {
	forceProcs(t, 4)
	rng := rand.New(rand.NewSource(31))
	trials := 5
	if raceEnabled || testing.Short() {
		trials = 3
	}
	for trial := 0; trial < trials; trial++ {
		g := graph.RandomDAG(rng, graph.RandomDAGConfig{Nodes: 22 + trial*3, EdgeProb: 0.16, MaxFanIn: 3})
		m := sched.NewMemModel(g)
		opts := dp.Options{MaxStates: 1 << 17}
		want := dp.Schedule(m, opts)
		for _, workers := range []int{2, 3, 8, 64} {
			po := opts
			po.Parallelism = workers
			got := dp.Schedule(m, po)
			if want.Flag == dp.FlagSolution {
				assertBitIdentical(t, fmt.Sprintf("trial%d/workers%d", trial, workers), want, got)
			} else if got.Flag != want.Flag {
				t.Fatalf("trial%d/workers%d: flag %v != %v", trial, workers, got.Flag, want.Flag)
			}
		}
	}
}

// TestParallelExpansionRace exists for the race detector: concurrent
// schedules over one shared MemModel (its tables are read-only at search
// time) with sharding forced on every level.
func TestParallelExpansionRace(t *testing.T) {
	forceProcs(t, 4)
	rng := rand.New(rand.NewSource(55))
	g := graph.RandomDAG(rng, graph.RandomDAGConfig{Nodes: 30, EdgeProb: 0.1, MaxFanIn: 3})
	m := sched.NewMemModel(g)
	want := dp.Optimal(m)
	done := make(chan *dp.Result, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			done <- dp.Schedule(m, parallelOpts(dp.Options{}, 2+i%3))
		}(i)
	}
	for i := 0; i < 8; i++ {
		r := <-done
		assertBitIdentical(t, fmt.Sprintf("concurrent%d", i), want, r)
	}
}

// TestAdaptiveParallelFindsOptimum wires Parallelism through the budget
// ladder: the converged peak must be the optimum regardless of sharding.
func TestAdaptiveParallelFindsOptimum(t *testing.T) {
	forceProcs(t, 4)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		g := graph.RandomDAG(rng, graph.RandomDAGConfig{Nodes: 14, EdgeProb: 0.25})
		m := sched.NewMemModel(g)
		want := dp.Optimal(m)
		ar, err := dp.AdaptiveSchedule(m, dp.AdaptiveOptions{StepTimeout: time.Second, Parallelism: 4})
		if err != nil {
			t.Fatal(err)
		}
		if ar.Flag != dp.FlagSolution || ar.Peak != want.Peak {
			t.Fatalf("trial %d: adaptive parallel peak %d (flag %v) != optimal %d", trial, ar.Peak, ar.Flag, want.Peak)
		}
	}
}

// FuzzDPDifferential fuzzes the harness itself: generator parameters plus a
// budget selector, asserting reference/sequential/parallel agreement on
// whatever DAG falls out, and that its order is canonical (one order across
// budgets, sharding and the ladder; see canonical_test.go).
func FuzzDPDifferential(f *testing.F) {
	f.Add(int64(1), uint8(10), uint8(80), uint8(0))
	f.Add(int64(7), uint8(16), uint8(40), uint8(1))
	f.Add(int64(-3), uint8(6), uint8(200), uint8(2))
	f.Add(int64(99), uint8(18), uint8(20), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nodes, edgeProb, budgetSel uint8) {
		forceProcs(t, 4)
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
