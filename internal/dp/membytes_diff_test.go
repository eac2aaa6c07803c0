package dp_test

// Differential coverage for the MemLimit byte valve and the PeakBytes
// accounting, in the same harness style as differential_test.go: a ceiling
// the run fits under must change nothing (bit-identical to the oracle, which
// has no byte accounting at all), and a ceiling it cannot fit under must
// abort deterministically with FlagMemPressure.

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"github.com/serenity-ml/serenity/internal/dp"
	"github.com/serenity-ml/serenity/internal/graph"
	"github.com/serenity-ml/serenity/internal/sched"
)

// TestDifferentialMemLimitValve pins the valve across random DAGs: the
// unlimited run's PeakBytes is exactly the ceiling that still succeeds, any
// smaller ceiling aborts with FlagMemPressure, and a ceiling that fits
// leaves PeakBytes unchanged.
func TestDifferentialMemLimitValve(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 15; trial++ {
		g := graph.RandomDAG(rng, graph.RandomDAGConfig{Nodes: 10 + rng.Intn(9), EdgeProb: 0.1 + rng.Float64()*0.4, MaxFanIn: 1 + rng.Intn(3)})
		m := sched.NewMemModel(g)
		name := fmt.Sprintf("trial%d", trial)

		base := dp.Schedule(m, dp.Options{})
		if base.Flag != dp.FlagSolution {
			t.Fatalf("%s: unlimited run: %v", name, base.Flag)
		}
		if base.PeakBytes <= 0 {
			t.Fatalf("%s: unlimited run reported PeakBytes %d", name, base.PeakBytes)
		}

		// Ceiling == the run's own peak: nothing may change, including
		// against the accounting-free oracle.
		fit := dp.Options{MemLimit: base.PeakBytes}
		want := referenceSchedule(m, fit)
		got := dp.Schedule(m, fit)
		assertBitIdentical(t, name+"/fit", want, got)
		if got.PeakBytes != base.PeakBytes {
			t.Fatalf("%s: PeakBytes diverged: unlimited %d, fit %d", name, base.PeakBytes, got.PeakBytes)
		}

		// Any ceiling below the peak must abort, deterministically: a repeat
		// run must agree with itself bit for bit.
		floor := dp.FrontierStateBytes(g.NumNodes()) + 8
		for _, limit := range []int64{base.PeakBytes - 1, base.PeakBytes / 2, floor} {
			if limit <= 0 || limit >= base.PeakBytes {
				continue
			}
			tight := dp.Options{MemLimit: limit}
			s1 := dp.Schedule(m, tight)
			if s1.Flag != dp.FlagMemPressure {
				t.Fatalf("%s/limit=%d: flag %v, want memory pressure", name, limit, s1.Flag)
			}
			s2 := dp.Schedule(m, tight)
			assertBitIdentical(t, fmt.Sprintf("%s/limit=%d/repeat", name, limit), s1, s2)
			if s2.PeakBytes != s1.PeakBytes {
				t.Fatalf("%s/limit=%d: abort PeakBytes not deterministic: %d vs %d", name, limit, s1.PeakBytes, s2.PeakBytes)
			}
		}

		// A ceiling below even level 0 aborts before any expansion.
		starved := dp.Schedule(m, dp.Options{MemLimit: 1})
		if starved.Flag != dp.FlagMemPressure || starved.StatesExplored != 0 {
			t.Fatalf("%s: starved run did work: %+v", name, starved)
		}
	}
}

// TestMemGrowUpgradesAndDenies covers the mid-search upgrade callback: a
// ceiling too small to finish succeeds when MemGrow keeps granting (and the
// solution is bit-identical to an unlimited run), and aborts with
// FlagMemPressure the moment it denies.
func TestMemGrowUpgradesAndDenies(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 8; trial++ {
		g := graph.RandomDAG(rng, graph.RandomDAGConfig{Nodes: 12 + rng.Intn(6), EdgeProb: 0.25, MaxFanIn: 3})
		m := sched.NewMemModel(g)
		want := dp.Schedule(m, dp.Options{})
		if want.Flag != dp.FlagSolution {
			t.Fatalf("trial%d: unlimited run: %v", trial, want.Flag)
		}
		start := dp.FrontierStateBytes(g.NumNodes()) + 8

		var grants int
		grant := func(needed int64) int64 { grants++; return needed * 2 }
		opts := dp.Options{MemLimit: start, MemGrow: grant}
		got := dp.Schedule(m, opts)
		assertBitIdentical(t, fmt.Sprintf("trial%d/grant", trial), want, got)
		if got.PeakBytes != want.PeakBytes {
			t.Fatalf("trial%d: granted run PeakBytes %d != %d", trial, got.PeakBytes, want.PeakBytes)
		}
		if want.PeakBytes > start && grants == 0 {
			t.Fatalf("trial%d: run outgrew %d bytes without consulting MemGrow", trial, start)
		}

		opts.MemGrow = func(needed int64) int64 { return 0 }
		if f := dp.Schedule(m, opts).Flag; f != dp.FlagMemPressure {
			t.Fatalf("trial%d/deny: flag %v, want memory pressure", trial, f)
		}
	}
}

// TestAdaptiveSurrendersUnderMemPressure: a ceiling no τ can fit under fails
// the probe before any expansion with FlagMemPressure and no order — a higher
// τ only widens the frontier, so there is nothing to retry.
func TestAdaptiveSurrendersUnderMemPressure(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := graph.RandomDAG(rng, graph.RandomDAGConfig{Nodes: 16, EdgeProb: 0.2, MaxFanIn: 3})
	m := sched.NewMemModel(g)
	_, ar := probe(t, m, dp.Options{
		StepTimeout: time.Second,
		MemLimit:    1, // below even level 0: every probe aborts
	})
	if ar.Flag != dp.FlagMemPressure || ar.Order != nil {
		t.Fatalf("flag %v order %v, want memory pressure and no order", ar.Flag, ar.Order)
	}
	if ar.StatesExplored != 0 {
		t.Fatalf("search explored %d states past a ceiling below level 0", ar.StatesExplored)
	}
}

// TestAdaptiveMemLimitRoomy: with a ceiling above what the search needs the
// capped search must still converge to the optimum, byte accounting engaged.
func TestAdaptiveMemLimitRoomy(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 5; trial++ {
		g := graph.RandomDAG(rng, graph.RandomDAGConfig{Nodes: 14, EdgeProb: 0.25})
		m := sched.NewMemModel(g)
		want := dp.Optimal(m)
		_, ar := probe(t, m, dp.Options{StepTimeout: time.Second, MemLimit: 64 << 20})
		if ar.Flag != dp.FlagSolution || ar.Peak != want.Peak {
			t.Fatalf("trial %d: peak %d (flag %v) != optimal %d", trial, ar.Peak, ar.Flag, want.Peak)
		}
		if ar.PeakBytes <= 0 || ar.PeakBytes > 64<<20 {
			t.Fatalf("trial %d: PeakBytes %d out of range", trial, ar.PeakBytes)
		}
	}
}
