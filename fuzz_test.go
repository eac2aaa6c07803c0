package serenity

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/serenity-ml/serenity/internal/graph"
	"github.com/serenity-ml/serenity/internal/sched"
)

// checkScheduleInvariants asserts the properties every Schedule result must
// satisfy, regardless of graph shape or options:
//
//  1. Order is a valid topological order of the (possibly rewritten) graph;
//  2. the reported Peak equals an independent liveness simulation's peak;
//  3. the arena is at least the ideal peak (fragmentation can only add);
//  4. the DP never does worse than the memory-oblivious baseline.
func checkScheduleInvariants(t *testing.T, res *Result) {
	t.Helper()
	m := sched.NewMemModel(res.Graph)
	if err := m.CheckValid(res.Order); err != nil {
		t.Fatalf("order invalid: %v", err)
	}
	sim, err := m.Simulate(res.Order)
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if res.Peak != sim.Peak {
		t.Errorf("reported peak %d != simulated peak %d", res.Peak, sim.Peak)
	}
	if res.ArenaSize < res.Peak {
		t.Errorf("arena %d < peak %d", res.ArenaSize, res.Peak)
	}
	if res.Peak > res.BaselinePeak {
		t.Errorf("DP peak %d exceeds baseline %d", res.Peak, res.BaselinePeak)
	}
}

// TestSchedulePropertiesOnRandomDAGs is the property suite over the random
// graph generator: many seeds, both sequential and parallel, full pipeline.
func TestSchedulePropertiesOnRandomDAGs(t *testing.T) {
	iters := 60
	if testing.Short() {
		iters = 15
	}
	rng := rand.New(rand.NewSource(2026))
	for i := 0; i < iters; i++ {
		cfg := graph.RandomDAGConfig{
			Nodes:    4 + rng.Intn(16),
			EdgeProb: 0.15 + rng.Float64()*0.6,
			MaxFanIn: 1 + rng.Intn(4),
		}
		g := graph.RandomDAG(rng, cfg)
		opts := DefaultOptions()
		opts.StepTimeout = fuzzStepTimeout
		opts.Parallelism = i % 5 // exercise 0..4 workers
		res, err := ScheduleContext(t.Context(), g, opts)
		if err != nil {
			t.Fatalf("iter %d cfg %+v: %v", i, cfg, err)
		}
		checkScheduleInvariants(t, res)
	}
}

// TestSegmentMemoDifferentialRandomDAGs extends the differential harness to
// 200 random DAGs: schedule each cold (empty memo) and warm (memo
// pre-populated by the cold run) and assert bit-identical results. The warm
// run never searches — every segment must come from the memo.
func TestSegmentMemoDifferentialRandomDAGs(t *testing.T) {
	iters := 200
	if testing.Short() {
		iters = 40
	}
	rng := rand.New(rand.NewSource(20260728))
	for i := 0; i < iters; i++ {
		cfg := graph.RandomDAGConfig{
			Nodes:    4 + rng.Intn(14),
			EdgeProb: 0.15 + rng.Float64()*0.6,
			MaxFanIn: 1 + rng.Intn(4),
		}
		g := graph.RandomDAG(rng, cfg)
		opts := DefaultOptions()
		opts.StepTimeout = time.Minute // no probe timeouts: fully deterministic
		opts.Parallelism = i % 3

		memo := NewSegmentMemo(256)
		cold, err := memoPipeline(t, opts, memo).Run(t.Context(), g)
		if err != nil {
			t.Fatalf("iter %d cfg %+v: cold: %v", i, cfg, err)
		}
		warm, err := memoPipeline(t, opts, memo).Run(t.Context(), g)
		if err != nil {
			t.Fatalf("iter %d cfg %+v: warm: %v", i, cfg, err)
		}
		if warm.SegmentMemoHits != len(warm.SegmentQuality) {
			t.Fatalf("iter %d: warm run hit %d of %d segments", i, warm.SegmentMemoHits, len(warm.SegmentQuality))
		}
		assertSameResult(t, fmt.Sprintf("iter %d", i), cold, warm)
		checkScheduleInvariants(t, cold)
		checkScheduleInvariants(t, warm)
	}
}

// TestScheduleMatchesBruteForceOracle cross-checks DP optimality against
// exhaustive search on small random graphs (rewriting off so the graphs
// stay comparable).
func TestScheduleMatchesBruteForceOracle(t *testing.T) {
	iters := 25
	if testing.Short() {
		iters = 8
	}
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < iters; i++ {
		g := graph.RandomDAG(rng, graph.RandomDAGConfig{
			Nodes:    4 + rng.Intn(6),
			EdgeProb: 0.2 + rng.Float64()*0.5,
		})
		_, want, err := sched.BruteForce(sched.NewMemModel(g))
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Partition: true, AdaptiveBudget: true, StepTimeout: fuzzStepTimeout, Parallelism: 2}
		res, err := Schedule(g, opts)
		if err != nil {
			t.Fatalf("iter %d: %v", i, err)
		}
		checkScheduleInvariants(t, res)
		if res.Peak != want {
			t.Errorf("iter %d: DP peak %d != brute-force optimum %d", i, res.Peak, want)
		}
	}
}

// fuzzStepTimeout is generous on purpose: StepTimeout is a valve that fails
// the search, and a wide level of a 24-node DAG takes hundreds of
// milliseconds under the race detector.
const fuzzStepTimeout = 10 * time.Second

// FuzzScheduleRandomDAG drives the full pipeline from fuzzed generator
// parameters; the invariants hold for every input the generator can emit.
func FuzzScheduleRandomDAG(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(128), uint8(2))
	f.Add(int64(42), uint8(20), uint8(40), uint8(0))
	f.Add(int64(-7), uint8(2), uint8(255), uint8(1))
	f.Add(int64(2026), uint8(14), uint8(10), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, nodes, edgeProb, fanIn uint8) {
		if nodes > 24 {
			t.Skip("keep the DP tractable")
		}
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomDAG(rng, graph.RandomDAGConfig{
			Nodes:    int(nodes),
			EdgeProb: float64(edgeProb) / 255,
			MaxFanIn: int(fanIn % 8),
		})
		if err := g.Validate(); err != nil {
			t.Fatalf("generator produced invalid graph: %v", err)
		}
		opts := DefaultOptions()
		opts.StepTimeout = fuzzStepTimeout
		opts.Parallelism = int(seed&3) + 1
		// The cold run doubles as the plain-pipeline fuzz (an empty memo
		// changes nothing but the bookkeeping, which the nine-cell and
		// random-DAG differentials assert separately); keeping it to one
		// expensive compilation stays inside the fuzz engine's per-input
		// hang budget on dense corpus entries.
		memo := NewSegmentMemo(64)
		cold, err := memoPipeline(t, opts, memo).Run(t.Context(), g)
		if err != nil {
			t.Fatalf("schedule: %v", err)
		}
		checkScheduleInvariants(t, cold)

		// Warm memo differential: a second run serves every segment from the
		// memo and must be bit-identical to the run that populated it.
		warm, err := memoPipeline(t, opts, memo).Run(t.Context(), g)
		if err != nil {
			t.Fatalf("warm memo schedule: %v", err)
		}
		if warm.SegmentMemoHits != len(warm.SegmentQuality) {
			t.Fatalf("warm run hit %d of %d segments", warm.SegmentMemoHits, len(warm.SegmentQuality))
		}
		assertSameResult(t, "fuzz cold/warm", cold, warm)
		checkScheduleInvariants(t, warm)
	})
}

// FuzzGraphJSONRoundTrip feeds arbitrary bytes to the JSON IR reader; any
// graph it accepts must survive a write/read cycle unchanged and validate.
func FuzzGraphJSONRoundTrip(f *testing.F) {
	seedGraphs := []*Graph{
		SwiftNetCellA(),
		RandWireCell("fuzz-seed", 12, 4, 0.75, 5, 8, 4),
		graph.RandomDAG(rand.New(rand.NewSource(3)), graph.RandomDAGConfig{Nodes: 6}),
	}
	for _, g := range seedGraphs {
		data, err := g.MarshalJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := NewGraph("")
		if err := g.UnmarshalJSON(data); err != nil {
			return // rejected input: fine, just must not panic
		}
		out, err := g.MarshalJSON()
		if err != nil {
			t.Fatalf("accepted graph failed to marshal: %v", err)
		}
		g2 := NewGraph("")
		if err := g2.UnmarshalJSON(out); err != nil {
			t.Fatalf("round-trip rejected: %v", err)
		}
		out2, err := g2.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if string(out) != string(out2) {
			t.Errorf("round-trip not stable:\n%s\nvs\n%s", out, out2)
		}
	})
}
