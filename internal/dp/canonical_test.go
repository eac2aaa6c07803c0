package dp_test

// The canonical-order suite: with peak ties broken on the node id, the exact
// schedule is a pure function of the segment. Every test here checks that per
// instance — the order and peak of one unbudgeted dp.Schedule must come back
// byte for byte from every budget τ ≥ µ* and from the capped search —
// together with that search's own contracts: it is exactly one probe at
// dp.Cap's min(Kahn, greedy), its valves fail rather than steer, and its state
// counts on the families it is weakest on stay pinned. The search runs on the
// transition graph the safe-move rule restricts, so every instance also
// certifies that the restriction kept the optimum (assertOptimumKept).

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"github.com/serenity-ml/serenity/internal/dp"
	"github.com/serenity-ml/serenity/internal/graph"
	"github.com/serenity-ml/serenity/internal/models"
	"github.com/serenity-ml/serenity/internal/partition"
	"github.com/serenity-ml/serenity/internal/rewrite"
	"github.com/serenity-ml/serenity/internal/sched"
)

// assertCanonical runs m unbudgeted, at Budget ∈ {Kahn, greedy, µ*, 2µ*} and
// as production does — dp.ScheduleCtx at dp.Cap's τ — and fails unless all of
// them return the unbudgeted run's order and peak. It also holds dp.Cap to
// τ = min(Kahn, greedy) with the probe's accounting field for field, holds
// the replay's shim to the same run (assertShimMatches), and returns the
// capped run.
func assertCanonical(t *testing.T, name string, m *sched.MemModel) *dp.Result {
	t.Helper()
	want := dp.Schedule(m, dp.Options{})
	if want.Flag != dp.FlagSolution {
		t.Fatalf("%s: unbudgeted run: %v", name, want.Flag)
	}
	same := func(what string, got *dp.Result) {
		t.Helper()
		if got.Flag != dp.FlagSolution || got.Peak != want.Peak || !slices.Equal(got.Order, want.Order) {
			t.Fatalf("%s/%s: flag %v peak %d order %v\nwant solution peak %d order %v",
				name, what, got.Flag, got.Peak, got.Order, want.Peak, want.Order)
		}
	}

	kahn, err := sched.KahnFIFO(m.G)
	if err != nil {
		t.Fatal(err)
	}
	_, greedy, err := sched.GreedyMemory(m)
	if err != nil {
		t.Fatal(err)
	}
	kahnPeak := m.MustPeak(kahn)
	for _, budget := range []int64{0, kahnPeak, greedy, want.Peak, 2 * want.Peak} {
		same(fmt.Sprintf("budget=%d", budget), dp.Schedule(m, dp.Options{Budget: budget}))
	}

	assertOptimumKept(t, name, m, want.Peak)
	c, err := dp.Cap(context.Background(), m)
	if err != nil {
		t.Fatalf("%s/capped: %v", name, err)
	}
	got := dp.ScheduleCtx(context.Background(), m, dp.Options{Budget: c.Tau})
	same("capped", got)
	probe := dp.Schedule(m, dp.Options{Budget: min(kahnPeak, greedy)})
	acct := func(r *dp.Result) [5]int64 {
		return [5]int64{r.StatesExplored, r.StatesPruned, r.StatesForced, int64(r.MaxFrontier), r.PeakBytes}
	}
	if c.Kahn != kahnPeak || c.Tau != min(kahnPeak, greedy) || acct(got) != acct(probe) {
		t.Fatalf("%s/capped: τ=%d (Kahn %d), accounting (explored, pruned, forced, frontier, bytes) %v\nwant τ=min(%d, %d) and the probe's %v",
			name, c.Tau, c.Kahn, acct(got), kahnPeak, greedy, acct(probe))
	}
	assertShimMatches(t, name, m, got)
	return got
}

// probe runs the production exact search under opts' valves: one dp.Schedule
// at dp.Cap's τ. It returns the cap alongside the run.
func probe(t testing.TB, m *sched.MemModel, opts dp.Options) (dp.CapResult, *dp.Result) {
	t.Helper()
	c, err := dp.Cap(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	opts.Budget = c.Tau
	return c, dp.Schedule(m, opts)
}

// TestCap holds dp.Cap, on every partition segment of the nine evaluation
// cells as built and rewritten, to its definition: τ is the smaller of Kahn's
// peak and the greedy peak, and the greedy run it returns is
// sched.GreedyMemoryRun's, order, peak and states.
func TestCap(t *testing.T) {
	for _, cell := range models.BenchmarkCells() {
		built := cell.Build()
		rewritten, _, err := rewrite.RewriteAll(built, rewrite.DefaultRules(), 0)
		if err != nil {
			t.Fatal(err)
		}
		for gi, g := range []*graph.Graph{built, rewritten} {
			part, err := partition.Split(g)
			if err != nil {
				t.Fatal(err)
			}
			for i, seg := range part.Segments {
				name := fmt.Sprintf("%s/%s/rewritten=%t/seg%d", cell.Network, cell.Cell, gi == 1, i)
				m := sched.NewMemModel(seg.G)
				c, err := dp.Cap(context.Background(), m)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				_, kahn, err := sched.BaselinePeak(m)
				if err != nil {
					t.Fatal(err)
				}
				gr, err := sched.GreedyMemoryRun(m)
				if err != nil {
					t.Fatal(err)
				}
				if c.Kahn != kahn || c.Tau != min(kahn, gr.Peak) {
					t.Fatalf("%s: Kahn %d τ %d, want Kahn %d τ min(%d, %d)", name, c.Kahn, c.Tau, kahn, kahn, gr.Peak)
				}
				if !slices.Equal(c.Greedy.Order, gr.Order) || c.Greedy.Peak != gr.Peak || c.Greedy.StatesExplored != gr.StatesExplored {
					t.Fatalf("%s: cap's greedy run %+v differs from GreedyMemoryRun's %+v", name, *c.Greedy, *gr)
				}
			}
		}
	}
}

// assertOptimumKept certifies the safe-move rule on one instance: peak, the
// restricted search's answer, is some schedule's peak, so it can only be too
// high. The unrestricted oracle (every ready node at every state) run at
// τ = peak would return any lower optimum, which fits the same budget; for
// graphs of at most ten nodes sched.BruteForce must agree too.
func assertOptimumKept(t *testing.T, name string, m *sched.MemModel, peak int64) {
	t.Helper()
	if r := referenceUnrestricted(m, dp.Options{Budget: peak}); r.Flag != dp.FlagSolution || r.Peak != peak {
		t.Fatalf("%s: safe moves gave peak %d, the unrestricted search %v with peak %d", name, peak, r.Flag, r.Peak)
	}
	if m.G.NumNodes() > 10 {
		return
	}
	if _, bf, err := sched.BruteForce(m); err != nil || bf != peak {
		t.Fatalf("%s: safe moves gave peak %d, brute force %d (%v)", name, peak, bf, err)
	}
}

// randomCanonicalDAG draws from the same family TestDifferentialRandomDAGs
// sweeps.
func randomCanonicalDAG(rng *rand.Rand) *graph.Graph {
	return graph.RandomDAG(rng, graph.RandomDAGConfig{
		Nodes:    4 + rng.Intn(15),
		EdgeProb: 0.1 + rng.Float64()*0.6,
		MaxFanIn: 1 + rng.Intn(4),
	})
}

// TestCanonicalOrderNineCells is the suite over every partition segment of the
// nine evaluation cells, as built and after identity graph rewriting (the
// graphs whose Kahn-budget searches ran up to 21× wider than needed).
func TestCanonicalOrderNineCells(t *testing.T) {
	for _, cell := range models.BenchmarkCells() {
		built := cell.Build()
		rewritten, _, err := rewrite.RewriteAll(built, rewrite.DefaultRules(), 0)
		if err != nil {
			t.Fatalf("%s %s: %v", cell.Network, cell.Cell, err)
		}
		for gi, g := range []*graph.Graph{built, rewritten} {
			part, err := partition.Split(g)
			if err != nil {
				t.Fatalf("%s %s: %v", cell.Network, cell.Cell, err)
			}
			for i, seg := range part.Segments {
				// The widest rewritten segments take ~2M states unbudgeted;
				// eleven such runs each are minutes under the race detector.
				if (raceEnabled || testing.Short()) && seg.G.NumNodes() > 24 {
					continue
				}
				name := fmt.Sprintf("%s/%s/rewritten=%t/seg%d", cell.Network, cell.Cell, gi == 1, i)
				assertCanonical(t, name, sched.NewMemModel(seg.G))
			}
		}
	}
}

// TestCanonicalOrderRandomDAGs is the suite over 200 random DAGs. For the
// ones small enough to enumerate, an exhaustive search that knows nothing of
// levels, signatures or budgets must pick the same order.
func TestCanonicalOrderRandomDAGs(t *testing.T) {
	iters := 200
	if testing.Short() || raceEnabled {
		iters = 40
	}
	rng := rand.New(rand.NewSource(2026))
	enumerated := 0
	for i := 0; i < iters; i++ {
		g := randomCanonicalDAG(rng)
		m := sched.NewMemModel(g)
		ar := assertCanonical(t, fmt.Sprintf("iter%d", i), m)
		if g.NumNodes() > 10 || sched.CountTopoOrders(g, 200_001) > 200_000 {
			continue
		}
		enumerated++
		order, peak := bruteForceCanonical(m)
		if _, bf, err := sched.BruteForce(m); err != nil || bf != peak {
			t.Fatalf("iter%d: sched.BruteForce peak %d (%v) != enumerated %d", i, bf, err, peak)
		}
		if ar.Peak != peak || !slices.Equal(ar.Order, order) {
			t.Fatalf("iter%d: DP peak %d order %v\nbrute force peak %d order %v", i, ar.Peak, ar.Order, peak, order)
		}
	}
	if enumerated < iters/10 {
		t.Fatalf("only %d of %d instances were small enough to enumerate", enumerated, iters)
	}
}

// bruteForceCanonical enumerates the topological orders of m.G, as
// sched.BruteForce does — except that wherever a prefix has a safe move (the
// smallest ready node among those allocating the least that frees at least
// what it allocates, see the DP's safeMove) only that node may come next — and
// returns the least under the DP's tie-break written out as a total order on
// complete schedules: compare the full peak,
// then the last node, then the peak of the first n-1 steps, then the node
// before last, and so on down. (The DP's recorded predecessor of a signature
// is the smallest node among those reaching it at its least peak, which is
// this comparison applied one suffix position at a time.)
func bruteForceCanonical(m *sched.MemModel) (sched.Schedule, int64) {
	g := m.G
	n := g.NumNodes()
	indeg := g.Indegrees()
	remaining := make([]int, n)
	for r, cs := range m.Consumers {
		remaining[r] = len(cs)
	}
	cur := make(sched.Schedule, 0, n)
	peaks := make([]int64, 0, n) // peaks[k]: peak of cur[:k+1]
	done := make([]bool, n)
	var best sched.Schedule
	var bestPeaks []int64

	less := func() bool {
		if best == nil {
			return true
		}
		for k := n - 1; k >= 0; k-- {
			if peaks[k] != bestPeaks[k] {
				return peaks[k] < bestPeaks[k]
			}
			if cur[k] != best[k] {
				return cur[k] < best[k]
			}
		}
		return false
	}
	var rec func(mu, peak int64)
	rec = func(mu, peak int64) {
		if len(cur) == n {
			if less() {
				best, bestPeaks = slices.Clone(cur), slices.Clone(peaks)
			}
			return
		}
		ready := func(u int) bool { return !done[u] && indeg[u] == 0 }
		minAlloc, safe := int64(math.MaxInt64), -1
		for u := 0; u < n; u++ {
			if ready(u) {
				minAlloc = min(minAlloc, m.Alloc[u])
			}
		}
		for u := n - 1; u >= 0; u-- {
			if !ready(u) || m.Alloc[u] != minAlloc {
				continue
			}
			var freed int64
			for _, r := range m.PredRoots[u] {
				if remaining[r] == 1 { // u is the last consumer standing
					freed += m.RootSize[r]
				}
			}
			if freed >= minAlloc {
				safe = u
			}
		}
		for u := 0; u < n; u++ {
			if !ready(u) || (safe >= 0 && u != safe) {
				continue
			}
			muU := mu + m.Alloc[u]
			done[u] = true
			cur, peaks = append(cur, u), append(peaks, max(peak, muU))
			var freed int64
			for _, r := range m.PredRoots[u] {
				if remaining[r]--; remaining[r] == 0 {
					freed += m.RootSize[r]
				}
			}
			for _, s := range g.Nodes[u].Succs {
				indeg[s]--
			}
			rec(muU-freed, max(peak, muU))
			for _, s := range g.Nodes[u].Succs {
				indeg[s]++
			}
			for _, r := range m.PredRoots[u] {
				remaining[r]++
			}
			cur, peaks = cur[:len(cur)-1], peaks[:len(peaks)-1]
			done[u] = false
		}
	}
	rec(0, 0)
	return best, bestPeaks[n-1]
}

// TestValvesFailTheProbe: the StepTimeout, MaxStates and MemLimit valves each
// fail the one probe with their flag and no order. None moves τ or retries:
// the failed search probed the unpressured search's budget and explored no
// more than it.
func TestValvesFailTheProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := graph.RandomDAG(rng, graph.RandomDAGConfig{Nodes: 30, EdgeProb: 0.1, MaxFanIn: 3})
	m := sched.NewMemModel(g)
	freeCap, free := probe(t, m, dp.Options{})
	if free.Flag != dp.FlagSolution {
		t.Fatalf("unpressured search: %v", free.Flag)
	}
	for _, tc := range []struct {
		name string
		opts dp.Options
		want dp.Flag
	}{
		{"step-timeout", dp.Options{StepTimeout: time.Nanosecond}, dp.FlagTimeout},
		{"max-states", dp.Options{MaxStates: 1}, dp.FlagTimeout},
		{"mem-limit", dp.Options{MemLimit: dp.FrontierStateBytes(g.NumNodes()) + 8}, dp.FlagMemPressure},
	} {
		c, r := probe(t, m, tc.opts)
		if r.Flag != tc.want || r.Order != nil {
			t.Fatalf("%s: flag %v order %v, want %v and no order", tc.name, r.Flag, r.Order, tc.want)
		}
		if c.Tau != freeCap.Tau || r.StatesExplored > free.StatesExplored {
			t.Fatalf("%s: τ=%d and %d states, the unpressured search τ=%d and %d", tc.name, c.Tau, r.StatesExplored, freeCap.Tau, free.StatesExplored)
		}
	}
}

// TestProbeStatesDistinctSizes pins the probe's total work, and checks the
// canonical order, on 200 random DAGs whose tensors all differ in size, so
// peaks are rarely tied and safe moves rarely fire. The count may only fall.
func TestProbeStatesDistinctSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var states int64
	for i := 0; i < 200; i++ {
		g := randomCanonicalDAG(rng)
		for id, rank := range rng.Perm(g.NumNodes()) {
			g.Nodes[id].Shape = graph.Shape{64 + 97*rank + id} // 97 > n: all distinct
		}
		m := sched.NewMemModel(g)
		_, r := probe(t, m, dp.Options{})
		if r.Flag != dp.FlagSolution {
			t.Fatalf("iter%d: %v", i, r.Flag)
		}
		if want := dp.Optimal(m); r.Peak != want.Peak || !slices.Equal(r.Order, want.Order) {
			t.Fatalf("iter%d: capped peak %d order %v\nunbudgeted peak %d order %v", i, r.Peak, r.Order, want.Peak, want.Order)
		}
		states += r.StatesExplored
	}
	const pin = 344_434
	if states > pin {
		t.Fatalf("200 distinct-size DAGs explored %d states, pinned at %d", states, pin)
	}
}

// TestProbeStatesWideWS pins the probe's work on a 200-node WS(16) cell and
// checks its order against the τ = Kahn run. The count may only fall.
func TestProbeStatesWideWS(t *testing.T) {
	g := models.RandWireCell("wide", models.WSConfig{Nodes: 200, K: 16, P: 0.75, Seed: 1, HW: 16, Channel: 8})
	m := sched.NewMemModel(g)
	c, r := probe(t, m, dp.Options{})
	if r.Flag != dp.FlagSolution {
		t.Fatalf("%v", r.Flag)
	}
	want := dp.Schedule(m, dp.Options{Budget: c.Kahn})
	if want.Flag != dp.FlagSolution || r.Peak != want.Peak || !slices.Equal(r.Order, want.Order) {
		t.Fatalf("capped peak %d differs from the τ=Kahn probe's %d, or the order does", r.Peak, want.Peak)
	}
	const pin = 28_758
	if r.StatesExplored > pin {
		t.Fatalf("%d states, pinned at %d", r.StatesExplored, pin)
	}
}

// TestProbeStatesRewrittenSwiftNet pins the probe's price: on the rewritten
// SwiftNet cells, whose tensors all differ in size, greedy's peak sits about
// 1.5× over µ*, so the budget prunes least there. The counts may only fall.
func TestProbeStatesRewrittenSwiftNet(t *testing.T) {
	for _, cell := range []struct {
		name  string
		build func() *graph.Graph
		pin   int64
	}{
		{"A", models.SwiftNetCellA, 344_896},
		{"B", models.SwiftNetCellB, 35_213},
		{"C", models.SwiftNetCellC, 3_611},
	} {
		rewritten, _, err := rewrite.RewriteAll(cell.build(), rewrite.DefaultRules(), 0)
		if err != nil {
			t.Fatal(err)
		}
		part, err := partition.Split(rewritten)
		if err != nil {
			t.Fatal(err)
		}
		var states int64
		for i, seg := range part.Segments {
			_, r := probe(t, sched.NewMemModel(seg.G), dp.Options{})
			if r.Flag != dp.FlagSolution {
				t.Fatalf("cell %s seg%d: %v", cell.name, i, r.Flag)
			}
			states += r.StatesExplored
		}
		if states > cell.pin {
			t.Errorf("SwiftNet %s rewritten: %d states, pinned at %d", cell.name, states, cell.pin)
		}
	}
}
