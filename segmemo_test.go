package serenity

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/serenity-ml/serenity/internal/models"
	"github.com/serenity-ml/serenity/internal/sched"
)

// uniformStack builds `cells` copies of one WS cell so every interior
// partition segment is structurally identical — the repeated-cell shape the
// segment memo exists for.
func uniformStack(name string, cells, nodes int) *Graph {
	return models.StackedUniformRandWire(name, cells, models.WSConfig{
		Nodes: nodes, K: 4, P: 0.75, Seed: 11, HW: 8, Channel: 4,
	})
}

// memoPipeline builds a Pipeline from opts with memo installed (nil = none).
func memoPipeline(t testing.TB, opts Options, memo *SegmentMemo) *Pipeline {
	t.Helper()
	p, err := NewPipeline(opts)
	if err != nil {
		t.Fatal(err)
	}
	p.SegmentMemo = memo
	return p
}

// assertSameResult asserts the fields the differential harness locks down:
// order, peak, arena, quality, per-segment quality, states accounting, and
// the scheduled graph's fingerprint.
func assertSameResult(t *testing.T, label string, cold, warm *Result) {
	t.Helper()
	if !reflect.DeepEqual(cold.Order, warm.Order) {
		t.Errorf("%s: warm order diverged\ncold: %v\nwarm: %v", label, cold.Order, warm.Order)
	}
	if cold.Peak != warm.Peak {
		t.Errorf("%s: peak %d (cold) != %d (warm)", label, cold.Peak, warm.Peak)
	}
	if cold.ArenaSize != warm.ArenaSize {
		t.Errorf("%s: arena %d (cold) != %d (warm)", label, cold.ArenaSize, warm.ArenaSize)
	}
	if cold.Quality != warm.Quality {
		t.Errorf("%s: quality %q (cold) != %q (warm)", label, cold.Quality, warm.Quality)
	}
	if !reflect.DeepEqual(cold.SegmentQuality, warm.SegmentQuality) {
		t.Errorf("%s: segment quality diverged: %v vs %v", label, cold.SegmentQuality, warm.SegmentQuality)
	}
	if cold.StatesExplored != warm.StatesExplored {
		t.Errorf("%s: states %d (cold) != %d (warm); memo hits must replay the stored accounting", label, cold.StatesExplored, warm.StatesExplored)
	}
	if cold.MaxFrontier != warm.MaxFrontier {
		t.Errorf("%s: max frontier %d (cold) != %d (warm); memo hits must replay the stored accounting", label, cold.MaxFrontier, warm.MaxFrontier)
	}
	if cold.Graph.Fingerprint() != warm.Graph.Fingerprint() {
		t.Errorf("%s: scheduled graph fingerprints diverged", label)
	}
}

// TestSegmentMemoSharesRepeatedCells: the headline behavior — a stack of
// identical cells pays for one cell's DP, and a second run over the same
// memo searches nothing at all.
func TestSegmentMemoSharesRepeatedCells(t *testing.T) {
	g := uniformStack("memo-share", 4, 12)
	opts := DefaultOptions()
	opts.StepTimeout = time.Minute

	memo := NewSegmentMemo(256)
	cold, err := memoPipeline(t, opts, memo).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	nsegs := len(cold.SegmentQuality)
	if nsegs < 4 {
		t.Fatalf("graph split into %d segments; the repeated-cell scenario needs >= 4", nsegs)
	}
	// Interior cells repeat, so even the cold run must share within itself.
	if cold.SegmentMemoHits == 0 {
		t.Error("cold run over identical cells recorded no within-run memo hits")
	}
	st := memo.Stats()
	if st.Hits != int64(cold.SegmentMemoHits) || st.Hits+st.Misses != int64(nsegs) {
		t.Errorf("memo stats %+v do not reconcile with %d segments / %d result hits", st, nsegs, cold.SegmentMemoHits)
	}
	if st.Entries == 0 {
		t.Error("memo holds no entries after a successful run")
	}

	warm, err := memoPipeline(t, opts, memo).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if warm.SegmentMemoHits != nsegs {
		t.Errorf("warm run hit %d of %d segments; every segment should be memoized", warm.SegmentMemoHits, nsegs)
	}
	assertSameResult(t, "uniform stack", cold, warm)
	// StatesExplored replays for bit-identity; FreshStatesExplored is the
	// honest work measure: partial on the (self-sharing) cold run, zero on
	// the all-hits warm run.
	if cold.FreshStatesExplored <= 0 || cold.FreshStatesExplored >= cold.StatesExplored {
		t.Errorf("cold fresh states %d not in (0, %d); within-run hits should replay some states", cold.FreshStatesExplored, cold.StatesExplored)
	}
	if warm.FreshStatesExplored != 0 {
		t.Errorf("warm run reports %d fresh states despite searching nothing", warm.FreshStatesExplored)
	}

	// A memo-less pipeline must agree too: memoization is an optimization,
	// never a behavior change (StepTimeout is high enough that the DP is
	// fully deterministic).
	plain, err := memoPipeline(t, opts, nil).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "memo vs plain", plain, warm)
	if plain.SegmentMemoHits != 0 {
		t.Errorf("memo-less run reports %d memo hits", plain.SegmentMemoHits)
	}
	if plain.FreshStatesExplored != plain.StatesExplored {
		t.Errorf("memo-less run: fresh states %d != states %d", plain.FreshStatesExplored, plain.StatesExplored)
	}
}

// TestSegmentMemoPerStrategyKeys: results memoized under one strategy must
// not leak into another — greedy's heuristic orders and exact's optimal
// orders live under different keys.
func TestSegmentMemoPerStrategyKeys(t *testing.T) {
	g := uniformStack("memo-keys", 3, 12)
	memo := NewSegmentMemo(256)

	greedyOpts := DefaultOptions()
	greedyOpts.StepTimeout = time.Minute
	greedyOpts.Strategy = StrategyGreedy
	gr, err := memoPipeline(t, greedyOpts, memo).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if gr.Quality != QualityHeuristic {
		t.Fatalf("greedy run quality %q", gr.Quality)
	}

	exactOpts := DefaultOptions()
	exactOpts.StepTimeout = time.Minute
	ex, err := memoPipeline(t, exactOpts, memo).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Quality != QualityOptimal {
		t.Errorf("exact run served %q results; greedy entries leaked across strategy keys", ex.Quality)
	}
	for i, q := range ex.SegmentQuality {
		if q != QualityOptimal {
			t.Errorf("segment %d: quality %q under the exact strategy", i, q)
		}
	}

	// And greedy again: its own entries are still there and still heuristic.
	gr2, err := memoPipeline(t, greedyOpts, memo).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if gr2.SegmentMemoHits != len(gr2.SegmentQuality) {
		t.Errorf("greedy rerun hit %d of %d segments", gr2.SegmentMemoHits, len(gr2.SegmentQuality))
	}
	assertSameResult(t, "greedy rerun", gr, gr2)
}

// TestBestEffortFallbackDoesNotPoisonMemo is the regression the memo's
// store rule exists for: a run degraded by a tight deadline must leave no
// heuristic segment results behind, so a later unhurried run over the same
// memo still earns Quality=optimal. (Before the never-store-degraded rule, a
// single overloaded moment would pin heuristic schedules for every future
// compilation of that cell.)
func TestBestEffortFallbackDoesNotPoisonMemo(t *testing.T) {
	g := uniformStack("memo-poison", 4, 12)
	opts := DefaultOptions()
	opts.Strategy = StrategyBestEffort
	opts.StepTimeout = time.Minute
	memo := NewSegmentMemo(256)

	// SkipExact forces the degraded path deterministically — every segment
	// falls back exactly as if the deadline expired at search start. (This
	// test used to race a 25ms wall-clock deadline against the DP, which
	// flaked on loaded machines; the scenario is identical, minus the race.)
	rushedP := memoPipeline(t, opts, memo)
	be := rushedP.Searcher.(BestEffort)
	be.SkipExact = true
	rushedP.Searcher = be
	rushed, err := rushedP.Run(context.Background(), g)
	if err != nil {
		t.Fatalf("best-effort errored on the forced degraded path: %v", err)
	}
	if rushed.Fallbacks != len(rushed.SegmentQuality) {
		t.Fatalf("forced degradation fell back on %d of %d segments; the poison scenario needs all of them",
			rushed.Fallbacks, len(rushed.SegmentQuality))
	}
	if err := sched.NewMemModel(rushed.Graph).CheckValid(rushed.Order); err != nil {
		t.Fatalf("degraded schedule invalid: %v", err)
	}

	relaxed, err := memoPipeline(t, opts, memo).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if relaxed.Quality != QualityOptimal {
		t.Fatalf("no-deadline run after a degraded run returned %q; the memo was poisoned", relaxed.Quality)
	}
	if relaxed.Fallbacks != 0 {
		t.Errorf("no-deadline run reports %d fallbacks", relaxed.Fallbacks)
	}
	for i, q := range relaxed.SegmentQuality {
		if q != QualityOptimal {
			t.Errorf("segment %d: quality %q served from a poisoned memo", i, q)
		}
	}
	// The uniform interior cells still share work within the relaxed run.
	if relaxed.SegmentMemoHits == 0 {
		t.Error("relaxed run recorded no memo hits despite identical interior cells")
	}

	// A third run is pure hits — and still optimal.
	warm, err := memoPipeline(t, opts, memo).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if warm.SegmentMemoHits != len(warm.SegmentQuality) {
		t.Errorf("fully warm run hit %d of %d segments", warm.SegmentMemoHits, len(warm.SegmentQuality))
	}
	assertSameResult(t, "warm best-effort", relaxed, warm)
}

// TestSegmentMemoConcurrentReconciliation is the shared-memo race test
// (run under -race in CI): many goroutines schedule overlapping graphs
// through one Pipeline and one memo; every result must match the memo-less
// reference, and the memo's hit+miss counters must reconcile exactly with
// the total number of segments searched.
func TestSegmentMemoConcurrentReconciliation(t *testing.T) {
	opts := DefaultOptions()
	opts.StepTimeout = time.Minute
	opts.Parallelism = 2

	// Overlapping graphs: different stack depths of the SAME cell share
	// interior segment fingerprints across graphs, not just within one.
	graphs := []*Graph{
		uniformStack("race-a", 2, 12),
		uniformStack("race-b", 3, 12),
		uniformStack("race-c", 4, 12),
		uniformStack("race-d", 5, 12),
	}
	refs := make([]*Result, len(graphs))
	for i, g := range graphs {
		ref, err := memoPipeline(t, opts, nil).Run(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}

	memo := NewSegmentMemo(1024)
	p := memoPipeline(t, opts, memo)
	const goroutines = 8
	iters := 6
	if testing.Short() {
		iters = 2
	}
	var totalSegments atomic.Int64
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				i := (w + j) % len(graphs)
				res, err := p.Run(context.Background(), graphs[i])
				if err != nil {
					errc <- err
					return
				}
				totalSegments.Add(int64(len(res.SegmentQuality)))
				if !reflect.DeepEqual(res.Order, refs[i].Order) || res.Peak != refs[i].Peak || res.Quality != refs[i].Quality {
					errc <- fmt.Errorf("graph %d diverged from the memo-less reference", i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	st := memo.Stats()
	if st.Hits+st.Misses != totalSegments.Load() {
		t.Errorf("memo hits %d + misses %d != %d segments searched; a lookup was double-counted or lost",
			st.Hits, st.Misses, totalSegments.Load())
	}
	if st.Errors != 0 {
		t.Errorf("memo recorded %d errored lookups in an error-free storm", st.Errors)
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Errorf("degenerate counters (hits=%d misses=%d) — the scenario exercised nothing", st.Hits, st.Misses)
	}
	if st.Entries <= 0 {
		t.Error("memo empty after the storm")
	}
}

// TestSegmentMemoErrorAccounting pins the three-way reconciliation under a
// cancellation storm: every lookup resolves as exactly one Hit, Miss, or
// Error, so Hits+Misses+Errors equals the total lookups even when waiters
// are canceled mid-flight. (Before the Errors counter, a canceled waiter
// was counted as neither hit nor miss and the documented reconciliation
// silently broke.)
func TestSegmentMemoErrorAccounting(t *testing.T) {
	memo := NewSegmentMemo(64)
	seg := whole(edgeless(1))
	key := testKey("storm|test")
	okResult := SearchResult{Order: Order{0}, Quality: QualityOptimal}

	// A leader holds the flight open while canceled followers pile on.
	started := make(chan struct{})
	release := make(chan struct{})
	leaderErr := make(chan error, 1)
	go func() {
		_, _, err := walkMemo(context.Background(), memo, nil, nil, key, seg, noFanOut, func() (SearchResult, error) {
			close(started)
			<-release
			return okResult, nil
		})
		leaderErr <- err
	}()
	<-started

	const followers = 50
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	var wg sync.WaitGroup
	var gotErrs atomic.Int64
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := walkMemo(canceled, memo, nil, nil, key, seg, noFanOut, func() (SearchResult, error) {
				t.Error("canceled follower ran the compute itself")
				return okResult, nil
			})
			if err != nil {
				gotErrs.Add(1)
			}
		}()
	}
	wg.Wait()
	if n := gotErrs.Load(); n != followers {
		t.Fatalf("%d of %d canceled followers reported an error", n, followers)
	}
	close(release)
	if err := <-leaderErr; err != nil {
		t.Fatalf("leader errored: %v", err)
	}

	// A failing compute is an Error too — nothing served, nothing stored.
	wantErr := fmt.Errorf("search exploded")
	if _, _, err := walkMemo(context.Background(), memo, nil, nil, testKey("bad|key"), seg, noFanOut, func() (SearchResult, error) {
		return SearchResult{}, wantErr
	}); err == nil {
		t.Fatal("failing compute reported no error")
	}

	// And one warm hit to exercise all three counters at once.
	if _, tier, err := walkMemo(context.Background(), memo, nil, nil, key, seg, noFanOut, func() (SearchResult, error) {
		t.Error("warm lookup recomputed")
		return okResult, nil
	}); err != nil || tier != memoTierMemory {
		t.Fatalf("warm lookup: tier=%v err=%v", tier, err)
	}

	st := memo.Stats()
	total := int64(1 + followers + 1 + 1) // leader + canceled + failed + warm
	if st.Hits+st.Misses+st.Errors != total {
		t.Errorf("hits %d + misses %d + errors %d != %d lookups", st.Hits, st.Misses, st.Errors, total)
	}
	if st.Errors != followers+1 {
		t.Errorf("errors = %d, want %d (canceled followers + failed compute)", st.Errors, followers+1)
	}
	if st.Misses != 1 || st.Hits != 1 {
		t.Errorf("misses=%d hits=%d, want 1 and 1", st.Misses, st.Hits)
	}
}

// stubGovernor implements MemoryGovernor with a fixed grant: limit 1 is the
// Critical floor (the DP aborts before its first expansion), limit 0 is an
// unlimited grant. It counts Reserve/Release pairs so the test can prove the
// pipeline never leaks a reservation — least of all on the error path.
type stubGovernor struct {
	limit    atomic.Int64
	reserves atomic.Int64
	releases atomic.Int64
}

func (g *stubGovernor) Reserve(int64) SearchReservation {
	g.reserves.Add(1)
	return &stubReservation{g: g}
}

type stubReservation struct{ g *stubGovernor }

func (r *stubReservation) SearchLimit() int64 { return r.g.limit.Load() }
func (r *stubReservation) Grow(int64) int64   { return 0 } // always deny
func (r *stubReservation) Release()           { r.g.releases.Add(1) }

// TestSegmentMemoGovernedRejectionAccounting pins the memo's counter
// invariants when the governor rejects searches: a memory-pressure abort is
// an Error (not a Hit, not a Miss), nothing is cached, every reservation is
// released, and once pressure clears the same memo serves the same graph
// exactly — memo hits never touching the ledger at all.
func TestSegmentMemoGovernedRejectionAccounting(t *testing.T) {
	g := uniformStack("memo-governed", 3, 12)
	opts := DefaultOptions()
	opts.StepTimeout = time.Minute
	memo := NewSegmentMemo(256)
	gov := &stubGovernor{}
	gov.limit.Store(1) // Critical floor: every search aborts immediately

	p := memoPipeline(t, opts, memo)
	p.Govern = gov
	if _, err := p.Run(context.Background(), g); !errors.Is(err, ErrMemoryPressure) {
		t.Fatalf("exact run under the floor reservation returned %v, want ErrMemoryPressure", err)
	}
	st1 := memo.Stats()
	if st1.Errors == 0 {
		t.Fatalf("rejected searches recorded no memo errors: %+v", st1)
	}
	if st1.Hits != 0 || st1.Misses != 0 {
		t.Errorf("rejected searches counted as hits/misses: %+v (an abort serves nothing and stores nothing)", st1)
	}
	if st1.Entries != 0 {
		t.Errorf("rejected searches were cached: %d entries", st1.Entries)
	}
	if r, rel := gov.reserves.Load(), gov.releases.Load(); r == 0 || r != rel {
		t.Errorf("reservations leaked on the error path: %d reserved, %d released", r, rel)
	}

	// Pressure clears: the same memo now fills normally, with the error
	// counters frozen where the rejection left them.
	gov.limit.Store(0) // unlimited grants
	p2 := memoPipeline(t, opts, memo)
	p2.Govern = gov
	res, err := p2.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality != QualityOptimal {
		t.Fatalf("post-pressure run quality %q, want optimal", res.Quality)
	}
	st2 := memo.Stats()
	if st2.Errors != st1.Errors {
		t.Errorf("successful run grew the error counter: %d -> %d", st1.Errors, st2.Errors)
	}
	if st2.Misses == 0 || st2.Entries == 0 {
		t.Errorf("successful run cached nothing: %+v", st2)
	}
	if nsegs := int64(len(res.SegmentQuality)); st2.Hits+st2.Misses != nsegs {
		t.Errorf("hits %d + misses %d != %d segments searched", st2.Hits, st2.Misses, nsegs)
	}
	if r, rel := gov.reserves.Load(), gov.releases.Load(); r != rel {
		t.Errorf("reservations leaked on the success path: %d reserved, %d released", r, rel)
	}

	// Warm replay: all hits, zero fresh work — and zero ledger traffic,
	// because only a search that actually runs reserves memory.
	reservesBefore := gov.reserves.Load()
	p3 := memoPipeline(t, opts, memo)
	p3.Govern = gov
	warm, err := p3.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, "governed warm replay", res, warm)
	if warm.FreshStatesExplored != 0 {
		t.Errorf("warm replay explored %d fresh states, want 0", warm.FreshStatesExplored)
	}
	if got := gov.reserves.Load(); got != reservesBefore {
		t.Errorf("memo hits reserved memory: %d new reservations", got-reservesBefore)
	}
}

// TestSegmentMemoCustomSearcherOptsOut: a Searcher without MemoKey must
// bypass the memo entirely — no lookups, no stores.
func TestSegmentMemoCustomSearcherOptsOut(t *testing.T) {
	g := uniformStack("memo-optout", 3, 12)
	memo := NewSegmentMemo(256)
	p := &Pipeline{
		Searcher:    plainSearcher{},
		Partition:   true,
		SegmentMemo: memo,
	}
	res, err := p.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if res.SegmentMemoHits != 0 {
		t.Errorf("opted-out searcher recorded %d memo hits", res.SegmentMemoHits)
	}
	if st := memo.Stats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Errorf("memo touched by a searcher without a MemoKey: %+v", st)
	}
}

// plainSearcher wraps GreedyMemory while hiding its MemoKey.
type plainSearcher struct{}

func (plainSearcher) Name() string { return "plain" }
func (plainSearcher) Search(ctx context.Context, m *MemModel) (SearchResult, error) {
	return GreedyMemory{}.Search(ctx, m)
}

// TestSegmentMemoReplaceUpgradesOnly pins the memory tier's one write rule
// (settle), first writer stands: whatever a later writer brings — the same
// order with other accounting, another quality — it gets the standing entry
// back, so hits stay bit-identical to the run that populated it.
func TestSegmentMemoReplaceUpgradesOnly(t *testing.T) {
	memo := NewSegmentMemo(64)
	first := SearchResult{Order: Order{0, 1}, StatesExplored: 4, Quality: QualityOptimal}
	recount := SearchResult{Order: Order{0, 1}, StatesExplored: 2, Quality: QualityOptimal}
	heuristic := SearchResult{Order: Order{1, 0}, Quality: QualityHeuristic}

	if stands, wrote := memo.settle(testKey("k"), first); !wrote || !reflect.DeepEqual(stands, first) {
		t.Fatalf("settle refused the first entry: wrote=%t stands=%+v", wrote, stands)
	}
	for _, late := range []SearchResult{recount, heuristic} {
		if stands, wrote := memo.settle(testKey("k"), late); wrote || !reflect.DeepEqual(stands, first) {
			t.Errorf("settle over an entry: wrote=%t stands=%+v, want the first entry to stand", wrote, stands)
		}
	}
	if got, _ := memo.store.Get(testKey("k")); !reflect.DeepEqual(got, first) {
		t.Errorf("stored entry %+v, want the first one", got)
	}
}
