package serenity

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/serenity-ml/serenity/internal/trace"
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
// scenario at the library level, the shape serenityd runs per request: a
// forced-degraded run leaves nothing cached (the poison rule), and its repair
// is one queued job that re-runs the same compilation with the pressure
// removed. The exact segments that recompute finds land through the walk's
// own fill — memory, disk, and the keys' ring owner — so after the pool
// drains a warm identical request is answered entirely from the memo with
// zero fresh search, bit-identical to an unpressured exact run.
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
	peers := &recordingPeers{replicated: map[string][][]byte{}} // owns nothing: every fresh key has a remote owner
	pool := NewRefinePool(RefinePoolOptions{Workers: 1, QueueDepth: 64})
	defer pool.Close()

	rushedP := skipExactPipeline(t, opts, memo)
	rushedP.Store, rushedP.Peers = ss, peers
	rushed, err := rushedP.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	nsegs := len(rushed.SegmentQuality)
	if rushed.Fallbacks != nsegs {
		t.Fatalf("forced degradation fell back on %d of %d segments", rushed.Fallbacks, nsegs)
	}
	if st := memo.Stats(); st.Entries != 0 || len(peers.replicated) != 0 {
		t.Fatalf("degraded results reached a tier: memo %+v, %d keys replicated", st, len(peers.replicated))
	}

	// The repair: one job, the same compilation without the pressure.
	repairP := memoPipeline(t, opts, memo)
	repairP.Store, repairP.Peers = ss, peers
	var repaired *Result
	if !pool.Enqueue(context.Background(), "refine-repair", func(ctx context.Context) error {
		var err error
		repaired, err = repairP.Run(ctx, g)
		return err
	}) {
		t.Fatal("repair job declined")
	}
	quiesce(t, pool)
	if st := pool.Stats(); st.Queued != 1 || st.Done != 1 || st.Failed != 0 {
		t.Fatalf("pool stats %+v after draining one repair", st)
	}
	assertSameResult(t, "repair vs unpressured", ref, repaired)

	// Every distinct segment key the repair searched was replicated toward
	// its owner, once, by the walk itself.
	if got, want := len(peers.replicated), memo.Stats().Entries; got == 0 || got != want {
		t.Errorf("%d keys replicated toward their owners, memo holds %d", got, want)
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
	ss.Flush()
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
}

// TestRefinePoolDedupOverflowAndClose drives the queue mechanics with
// choreographed jobs: pending keys deduplicate, a full queue drops, and
// Close drops the backlog while canceling the running job.
func TestRefinePoolDedupOverflowAndClose(t *testing.T) {
	pool := NewRefinePool(RefinePoolOptions{Workers: 1, QueueDepth: 1})
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
// while the Pressure signal is high a worker holds the job it picked up
// instead of running it, and nothing runs; held and queued keys stay pending
// (so dedup and revalidation still see the repair coming); the queue behind
// the held job keeps its QueueDepth bound, so one enqueue past QueueDepth +
// Workers is dropped; once pressure clears the jobs run in enqueue order. A
// Close with a job still held drops it cleanly.
func TestRefinePoolPressureParksAndRequeues(t *testing.T) {
	var pressure atomic.Bool
	pressure.Store(true)
	var mu sync.Mutex
	var ran []string
	const workers, depth = 1, 2
	pool := NewRefinePool(RefinePoolOptions{
		Workers:         workers,
		QueueDepth:      depth,
		Pressure:        pressure.Load,
		RequeueInterval: 2 * time.Millisecond,
	})
	defer pool.Close()

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
	job := func(key string) func(context.Context) error {
		return func(context.Context) error {
			mu.Lock()
			ran = append(ran, key)
			mu.Unlock()
			return nil
		}
	}

	// Enqueue one more distinct key than the pool can hold. After each one the
	// worker holds a job, and gets every chance to drain the queue before the
	// next enqueue: a pool that moved held jobs out of its queue would accept
	// all four.
	keys := []string{"a", "b", "c", "d"} // depth + workers + 1
	var accepted []string
	for _, key := range keys {
		if !pool.Enqueue(context.Background(), key, job(key)) {
			continue
		}
		accepted = append(accepted, key)
		waitFor("a held job", func() bool { return pool.Stats().Parked >= workers })
		for end := time.Now().Add(50 * time.Millisecond); len(pool.jobs) > 0 && time.Now().Before(end); {
			time.Sleep(time.Millisecond)
		}
	}
	if want := keys[:depth+workers]; !slices.Equal(accepted, want) {
		t.Fatalf("accepted %v under pressure, want %v: a held job must count against the queue bound", accepted, want)
	}
	st := pool.Stats()
	if st.Dropped != 1 || st.Parked != workers || st.Shed != workers {
		t.Errorf("stats with the pool full under pressure: %+v; want 1 dropped, %d held", st, workers)
	}
	mu.Lock()
	if len(ran) != 0 {
		t.Fatalf("%v ran under pressure", ran)
	}
	mu.Unlock()
	// Held and queued keys are still pending: the repair is coming, so dedup
	// holds (counting nowhere) and wait_refined keeps waiting.
	for _, key := range accepted {
		if !pool.Pending(key) {
			t.Errorf("key %q no longer pending under pressure", key)
		}
	}
	if pool.Enqueue(context.Background(), "a", job("a")) || pool.Stats().Dropped != 1 {
		t.Error("held key was not deduplicated, or its duplicate counted as dropped")
	}

	// Pressure clears: the held job resumes and the queue drains behind it,
	// in enqueue order.
	pressure.Store(false)
	quiesce(t, pool)
	mu.Lock()
	if !slices.Equal(ran, accepted) {
		t.Errorf("ran %v after pressure cleared, want enqueue order %v", ran, accepted)
	}
	mu.Unlock()
	st = pool.Stats()
	if st.Requeued != workers || st.Parked != 0 || st.Done != int64(len(accepted)) || st.Failed != 0 || st.Dropped != 1 {
		t.Errorf("stats after pressure cleared: %+v", st)
	}
	for _, key := range accepted {
		if pool.Pending(key) {
			t.Errorf("key %q still pending after it ran", key)
		}
	}

	// Close with a job held: it is dropped and un-pended, never run.
	pressure.Store(true)
	pool2 := NewRefinePool(RefinePoolOptions{
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
			t.Fatalf("job never held; stats %+v", pool2.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	pool2.Close()
	if ran2.Load() != 0 {
		t.Error("held job ran during Close")
	}
	if pool2.Pending("x") {
		t.Error("held key still pending after Close")
	}
	if st := pool2.Stats(); st.Dropped != 1 || st.Outstanding != 0 || st.Parked != 0 {
		t.Errorf("stats after closing with a held job: %+v", st)
	}
}

// TestRefinePoolTracerAndFailure: the pool's Tracer records every job —
// one refine.queued and one refine.run span each, linked to the trace of the
// request that enqueued it even when they are recorded after that request
// finished — and a failing job is counted, carries its error on its run
// span, and un-pends its key like any other.
func TestRefinePoolTracerAndFailure(t *testing.T) {
	tr := trace.New(trace.Options{})
	pool := NewRefinePool(RefinePoolOptions{Workers: 1, Tracer: tr})
	defer pool.Close()

	root := tr.StartTrace("degraded-request")
	ctx := trace.ContextWith(context.Background(), root)
	boom := errors.New("refinement exploded")
	if !pool.Enqueue(ctx, "bad", func(context.Context) error { return boom }) ||
		!pool.Enqueue(ctx, "good", func(context.Context) error { return nil }) {
		t.Fatal("enqueue declined")
	}
	tr.Finish(root, trace.Outcome{Degraded: true})
	quiesce(t, pool)

	if st := pool.Stats(); st.Done != 2 || st.Failed != 1 || st.Dropped != 0 {
		t.Errorf("pool stats %+v, want two done and one of them failed", st)
	}
	if pool.Pending("bad") || pool.Pending("good") {
		t.Error("finished keys still pending")
	}
	td := tr.Get(root.TraceID().String())
	if td == nil {
		t.Fatal("the degraded request's trace was not retained")
	}
	runErr := map[string]string{}
	queued := 0
	for _, sp := range td.Spans {
		var key string
		for _, a := range sp.Attrs {
			if a.Key == "key" {
				key = a.Value
			}
		}
		switch sp.Name {
		case "refine.queued":
			queued++
		case "refine.run":
			runErr[key] = sp.Err
		}
	}
	if queued != 2 || len(runErr) != 2 || runErr["bad"] != boom.Error() || runErr["good"] != "" {
		t.Errorf("linked spans: %d queued, run errors %v; want 2 queued and only \"bad\" failing", queued, runErr)
	}
}
