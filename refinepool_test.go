package serenity

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

// refineTestOpts is the best-effort configuration shared by the refinement
// tests: a StepTimeout high enough that an unpressured exact attempt is
// fully deterministic.
func refineTestOpts() Options {
	opts := DefaultOptions()
	opts.Strategy = StrategyBestEffort
	opts.StepTimeout = time.Minute
	return opts
}

// skipExactPipeline builds a best-effort pipeline whose every segment is
// forced down the degraded path (see BestEffort.SkipExact).
func skipExactPipeline(t testing.TB, opts Options, memo *SegmentMemo) *Pipeline {
	t.Helper()
	p := memoPipeline(t, opts, memo)
	be := p.Searcher.(BestEffort)
	be.SkipExact = true
	p.Searcher = be
	return p
}

func quiesce(t *testing.T, pool *RefinePool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := pool.Quiesce(ctx); err != nil {
		t.Fatalf("refine pool did not drain: %v", err)
	}
}

// TestRefinePoolRepairsDegradedRun is the serve-then-refine acceptance
// scenario at the segment level: a forced-degraded run leaves nothing cached
// (the poison rule) but queues every fallen-back segment for repair; after
// the pool drains, a warm identical request is answered entirely from the
// memo with zero fresh search — bit-identical to an unpressured exact run.
func TestRefinePoolRepairsDegradedRun(t *testing.T) {
	g := uniformStack("refine-repair", 4, 12)
	opts := refineTestOpts()

	// The unpressured reference: same searcher configuration, no memo, no
	// pressure.
	ref, err := memoPipeline(t, opts, nil).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Quality != QualityOptimal {
		t.Fatalf("reference run quality %q; the scenario needs an exact baseline", ref.Quality)
	}

	memo := NewSegmentMemo(256)
	ss := openStoreT(t, t.TempDir())
	// Refinement waits at the gate until the rushed run has returned: a
	// 12-node repair is fast enough to land in the memo while that run is
	// still walking its later, identical segments, turning their fallbacks
	// into hits and the counts below into a coin toss.
	rushedDone := make(chan struct{})
	pool := NewRefinePool(memo, ss, RefinePoolOptions{Workers: 1, QueueDepth: 64,
		Gate: func(ctx context.Context) (func(), error) {
			select {
			case <-rushedDone:
				return func() {}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}})
	defer pool.Close()

	rushedP := skipExactPipeline(t, opts, memo)
	rushedP.Store = ss
	rushedP.RefinePool = pool
	rushed, err := rushedP.Run(context.Background(), g)
	close(rushedDone)
	if err != nil {
		t.Fatal(err)
	}
	nsegs := len(rushed.SegmentQuality)
	if rushed.Fallbacks != nsegs {
		t.Fatalf("forced degradation fell back on %d of %d segments", rushed.Fallbacks, nsegs)
	}
	if rushed.RefinementsQueued == 0 {
		t.Fatal("degraded run queued no refinements")
	}
	// Identical interior cells share one memo key, so dedup keeps the queue
	// smaller than the fallback count.
	if rushed.RefinementsQueued > rushed.Fallbacks {
		t.Errorf("queued %d refinements for %d fallbacks", rushed.RefinementsQueued, rushed.Fallbacks)
	}

	quiesce(t, pool)
	st := pool.Stats()
	if st.Done != int64(rushed.RefinementsQueued) || st.Failed != 0 {
		t.Fatalf("pool stats %+v after draining %d refinements", st, rushed.RefinementsQueued)
	}

	// Warm run: pure memo hits, exact quality, no fresh search — the repaired
	// answer, bit-identical to the unpressured reference.
	warm, err := memoPipeline(t, opts, memo).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if warm.SegmentMemoHits != nsegs {
		t.Errorf("warm run hit %d of %d segments after refinement", warm.SegmentMemoHits, nsegs)
	}
	if warm.FreshStatesExplored != 0 {
		t.Errorf("warm run searched %d fresh states; refinement should have repaired every key", warm.FreshStatesExplored)
	}
	assertSameResult(t, "refined vs unpressured", ref, warm)

	// The repair reached the persistent tier too: a cold memo over the same
	// store warm-starts from disk at exact quality.
	coldMemoP := memoPipeline(t, opts, NewSegmentMemo(256))
	coldMemoP.Store = ss
	fromDisk, err := coldMemoP.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if fromDisk.SegmentMemoDiskHits == 0 {
		t.Error("refined artifacts never reached the schedule store")
	}
	assertSameResult(t, "refined-from-disk vs unpressured", ref, fromDisk)

	if mst := memo.Stats(); mst.Replaced == 0 {
		t.Error("memo records no replaced entries after refinement")
	}
}

// TestSegmentMemoReplaceUpgradesOnly pins the in-memory half of the guarded
// replace path: heuristic entries upgrade, optimal entries are never
// clobbered, and degraded or malformed results are rejected.
func TestSegmentMemoReplaceUpgradesOnly(t *testing.T) {
	memo := NewSegmentMemo(64)
	heuristic := SearchResult{Order: Order{1, 0}, Quality: QualityHeuristic}
	optimal := SearchResult{Order: Order{0, 1}, StatesExplored: 4, Quality: QualityOptimal}
	other := SearchResult{Order: Order{1, 0}, StatesExplored: 2, Quality: QualityOptimal}

	memo.store.Put("k", heuristic)
	if err := upgradeMemo(memo, nil, "k", 2, optimal); err != nil {
		t.Fatalf("upgrade heuristic→optimal: %v", err)
	}
	if got, _ := memo.store.Get("k"); !reflect.DeepEqual(got, optimal) {
		t.Fatalf("after upgrade: %+v", got)
	}
	if err := upgradeMemo(memo, nil, "k", 2, other); err != nil {
		t.Fatalf("replace over optimal: %v", err)
	}
	if got, _ := memo.store.Get("k"); !reflect.DeepEqual(got, optimal) {
		t.Error("replace clobbered an established optimal entry")
	}
	if err := upgradeMemo(memo, nil, "k2", 2, SearchResult{Order: Order{0, 1}, Quality: QualityOptimal, FellBack: true}); err == nil {
		t.Error("replace accepted a degraded result")
	}
	if err := upgradeMemo(memo, nil, "k2", 2, heuristic); err == nil {
		t.Error("replace accepted a heuristic result")
	}
	if err := upgradeMemo(memo, nil, "k2", 2, SearchResult{Order: Order{0, 0}, Quality: QualityOptimal}); err == nil {
		t.Error("replace accepted a non-permutation")
	}
	if _, ok := memo.store.Get("k2"); ok {
		t.Error("a rejected replace still stored an entry")
	}
	if st := memo.Stats(); st.Replaced != 1 {
		t.Errorf("Replaced = %d, want 1 (only the heuristic upgrade wrote)", st.Replaced)
	}
}

// TestRefinePoolDedupOverflowAndClose drives the queue mechanics with
// choreographed jobs: pending keys deduplicate, a full queue drops, and
// Close drops the backlog while canceling the running job.
func TestRefinePoolDedupOverflowAndClose(t *testing.T) {
	pool := NewRefinePool(nil, nil, RefinePoolOptions{Workers: 1, QueueDepth: 1})
	running := make(chan struct{})
	if !pool.Enqueue(context.Background(), "a", func(ctx context.Context) error {
		close(running)
		<-ctx.Done() // released only by Close
		return ctx.Err()
	}) {
		t.Fatal("first enqueue declined")
	}
	<-running

	if !pool.Enqueue(context.Background(), "b", func(ctx context.Context) error { return nil }) {
		t.Fatal("enqueue into an empty queue declined")
	}
	if pool.Enqueue(context.Background(), "b", func(ctx context.Context) error { return nil }) {
		t.Error("pending key was not deduplicated")
	}
	if !pool.Pending("b") || !pool.Pending("a") {
		t.Error("Pending does not report queued/running keys")
	}
	if pool.Enqueue(context.Background(), "c", func(ctx context.Context) error { return nil }) {
		t.Error("enqueue into a full queue accepted")
	}

	pool.Close()
	if pool.Pending("a") || pool.Pending("b") {
		t.Error("keys still pending after Close")
	}
	if pool.Enqueue(context.Background(), "d", func(ctx context.Context) error { return nil }) {
		t.Error("closed pool accepted a job")
	}
	st := pool.Stats()
	// a ran (and failed with the close cancellation), b was dropped from the
	// backlog, c was dropped at enqueue, d was dropped at enqueue.
	if st.Queued != 2 || st.Done != 1 || st.Failed != 1 || st.Dropped != 3 || st.Outstanding != 0 {
		t.Errorf("stats after close: %+v", st)
	}
	pool.Close() // idempotent
}

// TestRefinePoolPressureParksAndRequeues pins the memory-pressure gate:
// while the Pressure signal is high workers park jobs instead of running
// them (keys stay pending, so dedup and revalidation still see the repair
// coming), and once pressure clears the requeue loop re-injects every parked
// job. A Close with jobs still parked drops them cleanly.
func TestRefinePoolPressureParksAndRequeues(t *testing.T) {
	var pressure atomic.Bool
	pressure.Store(true)
	var ran atomic.Int64
	pool := NewRefinePool(nil, nil, RefinePoolOptions{
		Workers:         1,
		QueueDepth:      8,
		Pressure:        pressure.Load,
		RequeueInterval: 2 * time.Millisecond,
	})
	defer pool.Close()

	for _, key := range []string{"a", "b"} {
		if !pool.Enqueue(context.Background(), key, func(ctx context.Context) error {
			ran.Add(1)
			return nil
		}) {
			t.Fatalf("enqueue %q declined", key)
		}
	}

	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(30 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s; stats %+v", what, pool.Stats())
			}
			time.Sleep(time.Millisecond)
		}
	}

	waitFor("both jobs parked", func() bool { return pool.Stats().Parked == 2 })
	if got := ran.Load(); got != 0 {
		t.Fatalf("%d jobs ran under pressure", got)
	}
	if st := pool.Stats(); st.Shed < 2 {
		t.Errorf("Shed = %d after parking two jobs", st.Shed)
	}
	// Parked keys are still pending: the repair is coming, so dedup holds and
	// wait_refined keeps waiting.
	if !pool.Pending("a") || !pool.Pending("b") {
		t.Error("parked keys no longer pending")
	}
	if pool.Enqueue(context.Background(), "a", func(ctx context.Context) error { return nil }) {
		t.Error("parked key was not deduplicated")
	}

	// Pressure clears: the requeue loop re-injects and the worker drains.
	pressure.Store(false)
	waitFor("parked jobs to run", func() bool { return ran.Load() == 2 })
	quiesce(t, pool)
	st := pool.Stats()
	if st.Requeued < 2 || st.Parked != 0 || st.Done != 2 || st.Failed != 0 || st.Dropped != 0 {
		t.Errorf("stats after pressure cleared: %+v", st)
	}
	if pool.Pending("a") || pool.Pending("b") {
		t.Error("keys still pending after requeued jobs ran")
	}

	// Close with a job parked: it is dropped and un-pended, never run.
	pressure.Store(true)
	pool2 := NewRefinePool(nil, nil, RefinePoolOptions{
		Workers:         1,
		QueueDepth:      8,
		Pressure:        pressure.Load,
		RequeueInterval: 2 * time.Millisecond,
	})
	var ran2 atomic.Int64
	if !pool2.Enqueue(context.Background(), "x", func(ctx context.Context) error {
		ran2.Add(1)
		return nil
	}) {
		t.Fatal("enqueue into fresh pool declined")
	}
	deadline := time.Now().Add(30 * time.Second)
	for pool2.Stats().Parked != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("job never parked; stats %+v", pool2.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	pool2.Close()
	if ran2.Load() != 0 {
		t.Error("parked job ran during Close")
	}
	if pool2.Pending("x") {
		t.Error("parked key still pending after Close")
	}
	if st := pool2.Stats(); st.Dropped != 1 || st.Outstanding != 0 || st.Parked != 0 {
		t.Errorf("stats after closing with a parked job: %+v", st)
	}
}

// failingRefiner is a Refiner whose refinement always fails; it exercises
// the EventRefined error path and proves a broken refinement repairs
// nothing.
type failingRefiner struct{ BestEffort }

func (f failingRefiner) RefineSearcher() Searcher { return failingSearcher{} }

type failingSearcher struct{}

func (failingSearcher) Name() string { return "failing" }
func (failingSearcher) Search(ctx context.Context, m *MemModel) (SearchResult, error) {
	return SearchResult{}, errors.New("refinement exploded")
}

// TestRefinePoolObserverAndFailure: every finished refinement emits one
// EventRefined (Err set on failure), and a failed refinement leaves the memo
// untouched.
func TestRefinePoolObserverAndFailure(t *testing.T) {
	g := uniformStack("refine-observe", 2, 12)
	memo := NewSegmentMemo(64)
	var refinedOK, refinedErr atomic.Int64
	obs := ObserverFunc(func(e Event) {
		if e.Kind != EventRefined {
			return
		}
		if e.Err != nil {
			refinedErr.Add(1)
		} else {
			refinedOK.Add(1)
		}
	})

	// Failure path first: a refiner whose background search errors.
	pool := NewRefinePool(memo, nil, RefinePoolOptions{Workers: 1, Observer: obs})
	be := refineTestOpts()
	p := skipExactPipeline(t, be, memo)
	p.Searcher = failingRefiner{p.Searcher.(BestEffort)}
	p.RefinePool = pool
	res, err := p.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if res.RefinementsQueued == 0 {
		t.Fatal("no refinements queued")
	}
	quiesce(t, pool)
	if got := refinedErr.Load(); got != int64(res.RefinementsQueued) {
		t.Errorf("%d failed-refinement events for %d queued jobs", got, res.RefinementsQueued)
	}
	if st := pool.Stats(); st.Failed != int64(res.RefinementsQueued) {
		t.Errorf("pool stats %+v; every refinement should have failed", st)
	}
	if st := memo.Stats(); st.Replaced != 0 || st.Entries != 0 {
		t.Errorf("failed refinements touched the memo: %+v", st)
	}
	pool.Close()

	// Success path: the real refiner repairs the same keys and emits
	// error-free events.
	pool2 := NewRefinePool(memo, nil, RefinePoolOptions{Workers: 1, Observer: obs})
	p2 := skipExactPipeline(t, be, memo)
	p2.RefinePool = pool2
	res2, err := p2.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	quiesce(t, pool2)
	if got := refinedOK.Load(); got != int64(res2.RefinementsQueued) {
		t.Errorf("%d successful-refinement events for %d queued jobs", got, res2.RefinementsQueued)
	}
	if st := memo.Stats(); st.Replaced == 0 {
		t.Error("successful refinements replaced nothing")
	}
	pool2.Close()
}
