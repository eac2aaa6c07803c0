package dp

// Internal tests for the Result.PeakBytes accounting: the fuzz target rides
// the memAuditHook to compare the accounted bytes against the search's real
// in-use retention on whatever DAG the fuzzer generates. The differential
// valve tests live with the rest of the oracle harness in
// membytes_diff_test.go (package dp_test).

import (
	"math/rand"
	"testing"

	"github.com/serenity-ml/serenity/internal/graph"
	"github.com/serenity-ml/serenity/internal/sched"
)

func TestFrontierStateBytes(t *testing.T) {
	cases := []struct {
		n    int
		want int64
	}{
		{1, 48},    // w=1: 16 bytes of slab words + 32-byte header
		{64, 48},   // still one word per bitset
		{65, 64},   // w=2
		{130, 80},  // w=3
		{640, 192}, // w=10
	}
	for _, c := range cases {
		if got := FrontierStateBytes(c.n); got != c.want {
			t.Errorf("FrontierStateBytes(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// FuzzPeakBytesCoversRetention asserts the accounting contract on random
// DAGs under every option mix the fuzzer reaches: at the end of a run —
// solution, budget exhaustion, or a valve abort — the accounted PeakBytes is
// never below the bytes actually held in the two level buffers and the
// compacted history. Under-reporting would let a governed search silently
// exceed its reservation, which is the failure mode the byte valve exists to
// prevent.
func FuzzPeakBytesCoversRetention(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(80), uint8(0), int64(0))
	f.Add(int64(7), uint8(18), uint8(40), uint8(1), int64(4096))
	f.Add(int64(-5), uint8(8), uint8(200), uint8(2), int64(300))
	f.Add(int64(33), uint8(16), uint8(25), uint8(3), int64(100000))
	f.Fuzz(func(t *testing.T, seed int64, nodes, edgeProb, sel uint8, memLimit int64) {
		if nodes > 20 {
			t.Skip("keep the DP tractable")
		}
		if memLimit < 0 {
			memLimit = -memLimit
		}
		rng := rand.New(rand.NewSource(seed))
		g := graph.RandomDAG(rng, graph.RandomDAGConfig{
			Nodes:    int(nodes),
			EdgeProb: float64(edgeProb) / 255,
			MaxFanIn: 1 + int(sel%4),
		})
		m := sched.NewMemModel(g)

		var audits int
		memAuditHook = func(accounted, inUse int64) {
			audits++
			if accounted < inUse {
				t.Errorf("accounted %d bytes < %d actually retained", accounted, inUse)
			}
		}
		defer func() { memAuditHook = nil }()

		opts := Options{MemLimit: memLimit}
		switch sel % 4 {
		case 1:
			opts.MaxStates = 16
		case 2:
			opts.Budget = 1 << uint(sel%20)
		}
		r := Schedule(m, opts)
		if audits != 1 {
			t.Fatalf("audit hook ran %d times, want 1", audits)
		}
		// Completed runs stayed under the ceiling; abort paths may record a
		// transient overshoot (valves fire per parent state, after the
		// crossing transition has been appended).
		if memLimit > 0 && (r.Flag == FlagSolution || r.Flag == FlagNoSolution) && r.PeakBytes > memLimit {
			t.Errorf("flag %v but PeakBytes %d exceeds MemLimit %d", r.Flag, r.PeakBytes, memLimit)
		}
	})
}
