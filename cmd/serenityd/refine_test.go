package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	serenity "github.com/serenity-ml/serenity"
	"github.com/serenity-ml/serenity/internal/models"
)

// refineServer is testServer plus a background refinement pool.
func refineServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	cfg := testConfig()
	cfg.refineOpts = serenity.RefinePoolOptions{Workers: 1, QueueDepth: 64}
	return startServer(t, cfg)
}

func postScheduleINM(t *testing.T, ts *httptest.Server, query string, body []byte, inm string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/schedule"+query, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("If-None-Match", inm)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func drainRefine(t *testing.T, pool *serenity.RefinePool) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := pool.Quiesce(ctx); err != nil {
		t.Fatalf("refinement pool did not drain: %v", err)
	}
}

// plugRefine occupies n refinement workers with jobs that block until the
// returned channel is closed, and returns once all n are running — so repairs
// queued behind them stay pending until the test says otherwise.
func plugRefine(t *testing.T, pool *serenity.RefinePool, n int) (unblock chan struct{}) {
	t.Helper()
	unblock = make(chan struct{})
	var running sync.WaitGroup
	running.Add(n)
	for i := 0; i < n; i++ {
		if !pool.Enqueue(context.Background(), fmt.Sprintf("test-plug-%d", i), func(ctx context.Context) error {
			running.Done()
			select {
			case <-unblock:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}) {
			t.Fatal("plug job declined")
		}
	}
	running.Wait()
	return unblock
}

// TestOverloadSoakRefinedBitIdentical is the serve-then-refine acceptance
// scenario over HTTP: a forced-degraded request is served instantly at
// heuristic quality, and after the background refinement drains, the
// identical request returns an exact-quality schedule bit-identical —
// order, peak, arena, ETag — to an unpressured compilation of the same graph.
func TestOverloadSoakRefinedBitIdentical(t *testing.T) {
	s, ts := refineServer(t)
	g := smallCell(41)

	// The unpressured reference: the exact options the server resolves for
	// ?strategy=best-effort, run directly with no pressure.
	refOpts := s.opts
	refOpts.Strategy = serenity.StrategyBestEffort
	ref, err := serenity.ScheduleContext(context.Background(), smallCell(41), refOpts)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Quality != serenity.QualityOptimal {
		t.Fatalf("reference quality %q; the scenario needs an exact baseline", ref.Quality)
	}

	body := graphBody(t, g)
	degraded, resp := postScheduleOK(t, ts, "?strategy=best-effort&degrade=force", body)
	if degraded.Quality != serenity.QualityHeuristic || degraded.Fallbacks == 0 {
		t.Fatalf("forced degradation served quality %q with %d fallbacks", degraded.Quality, degraded.Fallbacks)
	}
	if degraded.RefinementsQueued != degraded.Fallbacks {
		t.Errorf("degraded response reports refinements_queued=%d for %d fallbacks with its repair queued",
			degraded.RefinementsQueued, degraded.Fallbacks)
	}
	degradedTag := resp.Header.Get("ETag")
	if degradedTag == "" {
		t.Error("degraded response missing ETag")
	}

	drainRefine(t, s.refine)
	if st := s.refine.Stats(); st.Failed != 0 {
		t.Fatalf("refinements failed: %+v", st)
	}

	refined, resp2 := postScheduleOK(t, ts, "?strategy=best-effort&degrade=force", body)
	if refined.Quality != serenity.QualityOptimal {
		t.Fatalf("post-refinement quality %q, want optimal", refined.Quality)
	}
	if !refined.Cached {
		t.Error("refined answer not served from the repaired cache")
	}
	if tag := resp2.Header.Get("ETag"); tag == "" || tag == degradedTag {
		t.Errorf("refined ETag %q did not change from degraded %q", tag, degradedTag)
	}
	if _, exact := postScheduleOK(t, ts, "?strategy=best-effort", body); exact.Header.Get("ETag") != resp2.Header.Get("ETag") {
		t.Errorf("refined ETag %s, the unpressured exact answer's %s", resp2.Header.Get("ETag"), exact.Header.Get("ETag"))
	}
	if !reflect.DeepEqual(refined.Order, []int(ref.Order)) {
		t.Errorf("refined order diverged from unpressured reference\nref: %v\ngot: %v", ref.Order, refined.Order)
	}
	if refined.Peak != ref.Peak || refined.ArenaSize != ref.ArenaSize {
		t.Errorf("refined peak/arena %d/%d, want %d/%d", refined.Peak, refined.ArenaSize, ref.Peak, ref.ArenaSize)
	}
	if done := metricValue(t, ts, "serenityd_refinements_done_total"); done == 0 {
		t.Error("/metrics counts no finished refinement after the repair")
	}
}

// TestWaitRefinedAndPending304 exercises the revalidation surface while the
// repair is still queued: wait_refined holds the response for the refined
// answer, and If-None-Match answers 304 + Retry-After instead of recomputing
// what the client already holds.
func TestWaitRefinedAndPending304(t *testing.T) {
	s, ts := refineServer(t)

	// Plug the single refinement worker so queued repairs stay pending.
	unblock := plugRefine(t, s.refine, 1)

	body := graphBody(t, smallCell(42))
	degraded, resp := postScheduleOK(t, ts, "?strategy=best-effort&degrade=force", body)
	if degraded.Quality != serenity.QualityHeuristic {
		t.Fatalf("forced degradation served quality %q", degraded.Quality)
	}
	degradedTag := resp.Header.Get("ETag")

	// refinements_queued is the server's to report: the fallback count while
	// the key's repair is pending — accepted by this request, or, for an
	// identical request arriving meanwhile, already queued by the earlier one
	// (one job repairs the key for both) — and omitted when none is coming.
	if degraded.Fallbacks == 0 || degraded.RefinementsQueued != degraded.Fallbacks {
		t.Errorf("first degraded answer: refinements_queued=%d, fallbacks=%d", degraded.RefinementsQueued, degraded.Fallbacks)
	}
	again, _ := postScheduleOK(t, ts, "?strategy=best-effort&degrade=force", body)
	if again.RefinementsQueued != again.Fallbacks || again.Cached {
		t.Errorf("identical request during the pending repair: refinements_queued=%d, fallbacks=%d, cached=%t",
			again.RefinementsQueued, again.Fallbacks, again.Cached)
	}
	if st := s.refine.Stats(); st.Queued != 2 { // the blocker and one repair
		t.Errorf("pool accepted %d jobs, want the blocker and a single repair for both requests", st.Queued)
	}

	// Revalidation while the repair is queued: unchanged, retry later, and
	// crucially no recompilation of an answer the client already holds.
	resp304, _ := postScheduleINM(t, ts, "?strategy=best-effort&degrade=force", body, degradedTag)
	if resp304.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation during pending refinement: status %d, want 304", resp304.StatusCode)
	}
	if resp304.Header.Get("Retry-After") == "" {
		t.Error("pending-refinement 304 missing Retry-After")
	}

	// A waiting client: ask for the refined answer with a generous budget,
	// then release the worker.
	type waitResult struct {
		resp *scheduleResponse
		tag  string
	}
	waited := make(chan waitResult, 1)
	go func() {
		resp, data := postSchedule(t, ts, "?strategy=best-effort&degrade=force&wait_refined=30000", body)
		var sr scheduleResponse
		if resp.StatusCode == http.StatusOK {
			_ = json.Unmarshal(data, &sr)
		}
		waited <- waitResult{&sr, resp.Header.Get("ETag")}
	}()
	time.Sleep(50 * time.Millisecond) // let the waiter reach its poll loop
	close(unblock)

	got := <-waited
	if got.resp.Quality != serenity.QualityOptimal {
		t.Fatalf("wait_refined returned quality %q, want the refined optimal answer", got.resp.Quality)
	}
	if got.resp.Fallbacks != 0 || got.tag == "" || got.tag == degradedTag {
		t.Errorf("wait_refined returned %d fallbacks under ETag %q, want the exact answer under a new tag (degraded %q)",
			got.resp.Fallbacks, got.tag, degradedTag)
	}

	// Revalidating the stale degraded tag now yields the refined answer in
	// full; revalidating the refined tag is a 304.
	drainRefine(t, s.refine)
	respNew, dataNew := postScheduleINM(t, ts, "?strategy=best-effort&degrade=force", body, degradedTag)
	if respNew.StatusCode != http.StatusOK {
		t.Fatalf("revalidation after refinement: status %d: %s", respNew.StatusCode, dataNew)
	}
	var fresh scheduleResponse
	if err := json.Unmarshal(dataNew, &fresh); err != nil {
		t.Fatal(err)
	}
	if fresh.Quality != serenity.QualityOptimal {
		t.Errorf("post-refinement revalidation served quality %q", fresh.Quality)
	}
	respSame, _ := postScheduleINM(t, ts, "?strategy=best-effort&degrade=force", body, respNew.Header.Get("ETag"))
	if respSame.StatusCode != http.StatusNotModified {
		t.Errorf("revalidating the current tag: status %d, want 304", respSame.StatusCode)
	}
}

// TestEtagRevalidationExact pins the ETag flow on the plain (never degraded)
// path: stable tag, 304 on match, full response on mismatch.
func TestEtagRevalidationExact(t *testing.T) {
	_, ts := testServer(t)
	body := graphBody(t, smallCell(43))
	resp, data := postSchedule(t, ts, "", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	tag := resp.Header.Get("ETag")
	if tag == "" {
		t.Fatal("response missing ETag")
	}
	resp2, _ := postScheduleINM(t, ts, "", body, tag)
	if resp2.StatusCode != http.StatusNotModified {
		t.Errorf("matching If-None-Match: status %d, want 304", resp2.StatusCode)
	}
	resp3, _ := postScheduleINM(t, ts, "", body, `"0000000000000000"`)
	if resp3.StatusCode != http.StatusOK {
		t.Errorf("stale If-None-Match: status %d, want 200", resp3.StatusCode)
	}
	if got := resp3.Header.Get("ETag"); got != tag {
		t.Errorf("ETag unstable across identical requests: %q then %q", tag, got)
	}
}

// TestRefinedETagIsTheExactAnswers: a key names one exact answer, so the
// refined answer carries the unpressured exact answer's tag, and evicting the
// refined entry and recomputing it (from the segment memo the repair filled)
// leaves the tag unchanged.
func TestRefinedETagIsTheExactAnswers(t *testing.T) {
	cfg := testConfig()
	cfg.cacheSize = 1
	cfg.refineOpts = serenity.RefinePoolOptions{Workers: 1, QueueDepth: 64}
	s, ts := startServer(t, cfg)
	body := graphBody(t, smallCell(41))
	const forced = "?strategy=best-effort&degrade=force"

	if degraded, _ := postScheduleOK(t, ts, forced, body); degraded.Quality != serenity.QualityHeuristic {
		t.Fatalf("forced degradation served quality %q", degraded.Quality)
	}
	drainRefine(t, s.refine)
	refined, resp := postScheduleOK(t, ts, forced, body)
	if !refined.Cached || refined.Quality != serenity.QualityOptimal {
		t.Fatalf("after the repair: cached=%t quality=%q", refined.Cached, refined.Quality)
	}
	tag := resp.Header.Get("ETag")

	// The unpressured request takes the cache's one entry, evicting the
	// refined answer.
	if _, exact := postScheduleOK(t, ts, "?strategy=best-effort", body); exact.Header.Get("ETag") != tag {
		t.Errorf("refined ETag %s, the unpressured exact answer's %s", tag, exact.Header.Get("ETag"))
	}
	again, resp := postScheduleOK(t, ts, forced, body)
	if again.Cached || again.Quality != serenity.QualityOptimal || !reflect.DeepEqual(again.Order, refined.Order) {
		t.Fatalf("recompute after eviction: cached=%t quality=%q, order changed=%t",
			again.Cached, again.Quality, !reflect.DeepEqual(again.Order, refined.Order))
	}
	if got := resp.Header.Get("ETag"); got != tag {
		t.Errorf("the same answer recomputed after eviction is tagged %s, was %s", got, tag)
	}
}

// TestConditionalRequestCountsOneLookup: If-None-Match is compared with the
// answer schedule returns, so a revalidation costs exactly one cache lookup
// whether it matches or not, and a miss whose fresh answer matches the
// client's tag answers 304.
func TestConditionalRequestCountsOneLookup(t *testing.T) {
	_, ts := testServer(t)
	body := graphBody(t, smallCell(49))
	_, resp := postScheduleOK(t, ts, "", body)
	tag := resp.Header.Get("ETag")
	for _, tc := range []struct {
		inm  string
		want int
	}{{`"0000000000000000"`, http.StatusOK}, {tag, http.StatusNotModified}} {
		before := metricValue(t, ts, "serenityd_cache_hits_total")
		if resp, _ := postScheduleINM(t, ts, "", body, tc.inm); resp.StatusCode != tc.want {
			t.Errorf("If-None-Match %s: status %d, want %d", tc.inm, resp.StatusCode, tc.want)
		}
		if grew := metricValue(t, ts, "serenityd_cache_hits_total") - before; grew != 1 {
			t.Errorf("If-None-Match %s moved serenityd_cache_hits_total by %d, want 1", tc.inm, grew)
		}
	}

	// A server that never answered this graph computes it, and the client's
	// tag matches the fresh answer.
	_, fresh := testServer(t)
	if resp, _ := postScheduleINM(t, fresh, "", body, tag); resp.StatusCode != http.StatusNotModified || resp.Header.Get("ETag") != tag {
		t.Errorf("revalidating against a fresh compile: status %d etag %s, want 304 with %s", resp.StatusCode, resp.Header.Get("ETag"), tag)
	}
}

func waitWaiting(t *testing.T, a *admission, c admitClass, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for a.waiting[c].Load() != n {
		if time.Now().After(deadline) {
			t.Fatalf("class %s never reached %d queued waiters", c, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAdmissionPriorityOrder: with the only slot held, waiters enqueued in
// reverse priority are granted interactive → batch → refinement once it
// frees, regardless of arrival order.
func TestAdmissionPriorityOrder(t *testing.T) {
	a := newAdmission(1, 4)
	release, err := a.acquire(context.Background(), classInteractive)
	if err != nil {
		t.Fatal(err)
	}
	order := make(chan admitClass, int(numClasses))
	done := make(chan struct{})
	start := func(c admitClass) {
		go func() {
			rel, err := a.acquire(context.Background(), c)
			if err != nil {
				t.Errorf("class %s: %v", c, err)
				return
			}
			order <- c
			rel()
			if c == classRefine {
				close(done)
			}
		}()
	}
	start(classRefine)
	waitWaiting(t, a, classRefine, 1)
	start(classBatch)
	waitWaiting(t, a, classBatch, 1)
	start(classInteractive)
	waitWaiting(t, a, classInteractive, 1)

	release()
	<-done
	close(order)
	var got []admitClass
	for c := range order {
		got = append(got, c)
	}
	want := []admitClass{classInteractive, classBatch, classRefine}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("grant order %v, want %v", got, want)
	}
}

// TestAdmissionReject: a full class queue rejects immediately with
// errAdmission and backoff advice, and the queued waiter is still granted
// once the slot frees.
func TestAdmissionReject(t *testing.T) {
	a := newAdmission(1, 1)
	release, err := a.acquire(context.Background(), classBatch)
	if err != nil {
		t.Fatal(err)
	}

	queuedErr := make(chan error, 1)
	go func() {
		rel, err := a.acquire(context.Background(), classInteractive)
		if err == nil {
			rel()
		}
		queuedErr <- err
	}()
	waitWaiting(t, a, classInteractive, 1)

	_, err = a.acquire(context.Background(), classInteractive)
	var adm *errAdmission
	if !errors.As(err, &adm) {
		t.Fatalf("full queue returned %v, want errAdmission", err)
	}
	if adm.class != classInteractive || adm.retryAfter < time.Second {
		t.Errorf("rejection %+v; want interactive class with >=1s backoff", adm)
	}
	if a.rejected[classInteractive].Load() != 1 {
		t.Errorf("rejected counter = %d, want 1", a.rejected[classInteractive].Load())
	}

	release()
	if err := <-queuedErr; err != nil {
		t.Fatalf("queued waiter failed after release: %v", err)
	}
}

// TestAdmissionAbandonedWaiterLeaves: a waiter whose context ends leaves its
// class queue and takes no slot with it.
func TestAdmissionAbandonedWaiterLeaves(t *testing.T) {
	a := newAdmission(1, 1)
	release, err := a.acquire(context.Background(), classInteractive)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	abandoned := make(chan error, 1)
	go func() {
		_, err := a.acquire(ctx, classRefine)
		abandoned <- err
	}()
	waitWaiting(t, a, classRefine, 1)
	cancel()
	if err := <-abandoned; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned waiter returned %v", err)
	}
	release()
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.free != a.slots || len(a.queues[classRefine]) != 0 {
		t.Errorf("after the release: %d of %d slots free, %d queued", a.free, a.slots, len(a.queues[classRefine]))
	}
}

// TestSchedule429UnderOverload drives admission rejection through HTTP: with
// the one compile slot held and the wait queues full, a single request
// answers 429 with Retry-After and a batch item answers 429 with the retry
// advice inside the batch's 200, immediately — never a hung connection — and
// the single request recovers once the slot frees.
func TestSchedule429UnderOverload(t *testing.T) {
	cfg := testConfig()
	cfg.compileSlots, cfg.admitQueue = 1, 1
	s, ts := startServer(t, cfg)

	release, err := s.admit.acquire(context.Background(), classInteractive)
	if err != nil {
		t.Fatal(err)
	}
	fillCtx, cancelFill := context.WithCancel(context.Background())
	defer cancelFill()
	for _, c := range []admitClass{classInteractive, classBatch} {
		c := c
		go func() {
			rel, err := s.admit.acquire(fillCtx, c)
			if err == nil {
				rel()
			}
		}()
		waitWaiting(t, s.admit, c, 1)
	}

	body := graphBody(t, smallCell(44))
	resp, data := postSchedule(t, ts, "", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded single request: status %d: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}

	batchBody, err := json.Marshal(map[string]any{"items": []json.RawMessage{body}})
	if err != nil {
		t.Fatal(err)
	}
	respB, dataB := postBatch(t, ts, "", batchBody)
	var br batchResponse
	if err := json.Unmarshal(dataB, &br); err != nil || respB.StatusCode != http.StatusOK || len(br.Items) != 1 {
		t.Fatalf("overloaded batch request: status %d (decode error %v): %s", respB.StatusCode, err, dataB)
	}
	if it := br.Items[0]; it.Status != http.StatusTooManyRequests || !strings.Contains(it.Error, "retry in") {
		t.Errorf("overloaded batch item: status %d error %q, want 429 with retry advice", it.Status, it.Error)
	}

	// Load subsides: the same requests are admitted and served.
	cancelFill()
	release()
	waitWaiting(t, s.admit, classInteractive, 0)
	waitWaiting(t, s.admit, classBatch, 0)
	resp2, data2 := postSchedule(t, ts, "", body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("after overload: status %d: %s", resp2.StatusCode, data2)
	}
	if s.admit.admitted[classInteractive].Load() == 0 {
		t.Error("admitted counter never moved")
	}
}

// TestServeRefineParamValidation rejects malformed serve-then-refine
// parameters with 400s.
func TestServeRefineParamValidation(t *testing.T) {
	_, ts := testServer(t)
	body := graphBody(t, smallCell(45))
	for _, q := range []string{
		"?degrade=yes&strategy=best-effort",
		"?degrade=force", // server default strategy is exact
		"?degrade=force&strategy=greedy",
		"?strategy=best-effort&wait_refined=-5",
		"?strategy=best-effort&wait_refined=soon",
	} {
		resp, data := postSchedule(t, ts, q, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s), want 400", q, resp.StatusCode, data)
		}
	}
}

// pipelineServer is a server with a refinement pool whose newPipeline seam is
// wrapped by wrap before the listener (and so any request goroutine) exists.
func pipelineServer(t *testing.T, wrap func(o serenity.Options, p *serenity.Pipeline)) (*server, *httptest.Server) {
	t.Helper()
	cfg := testConfig()
	cfg.refineOpts = serenity.RefinePoolOptions{Workers: 1, QueueDepth: 64}
	s, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.newPipeline = func(o serenity.Options) (*serenity.Pipeline, error) {
		p, err := serenity.NewPipeline(o)
		if err == nil {
			wrap(o, p)
		}
		return p, err
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(func() {
		ts.Close()
		s.close()
	})
	return s, ts
}

// TestRefinementRunsOneShardWide pins the refinement's CPU budget: the repair
// holds ONE refinement-class compile slot, so it recomputes with parallelism 1
// whatever the client asked for — its pipeline never fans segments out — and
// still lands under the client's schedule key (optionsKey ignores
// parallelism).
func TestRefinementRunsOneShardWide(t *testing.T) {
	var mu sync.Mutex
	var compiles []int
	s, ts := pipelineServer(t, func(_ serenity.Options, p *serenity.Pipeline) {
		mu.Lock()
		defer mu.Unlock()
		compiles = append(compiles, p.Parallelism)
	})

	body := graphBody(t, smallCell(46))
	const q = "?strategy=best-effort&degrade=force&parallelism=8"
	if degraded, _ := postScheduleOK(t, ts, q, body); degraded.Quality != serenity.QualityHeuristic {
		t.Fatalf("forced degradation served quality %q", degraded.Quality)
	}
	drainRefine(t, s.refine)
	mu.Lock()
	defer mu.Unlock()
	if want := []int{8, 1}; !reflect.DeepEqual(compiles, want) {
		t.Errorf("compilations ran at pipeline parallelism %v, want the request at %d and its refinement at %d",
			compiles, want[0], want[1])
	}
	if refined, _ := postScheduleOK(t, ts, q, body); !refined.Cached || refined.Quality != serenity.QualityOptimal {
		t.Errorf("the parallelism-1 repair did not land under the parallelism=8 request's key: cached=%t quality=%q",
			refined.Cached, refined.Quality)
	}
}

// TestRefinementsCoalesceOnSharedCell: with two refinement workers, two
// different stackings of one cell — every un-memoized segment shared between
// them — are both served forced-degraded. Their two repairs run concurrently
// and walk the same cold keys; because a refinement is an ordinary recompute,
// the walk's singleflight (or, if one finishes first, its memo entry) makes
// the pair cost exactly one exact search per key, counted in
// serenityd_states_explored_total like any fresh search, and both cached
// answers are bit-identical to an unpressured exact run.
func TestRefinementsCoalesceOnSharedCell(t *testing.T) {
	cell := models.WSConfig{Nodes: 12, K: 4, P: 0.75, Seed: 47, HW: 8, Channel: 4}
	bodies := [2][]byte{
		graphBody(t, models.StackedUniformRandWire("stack-2", 2, cell)),
		graphBody(t, models.StackedUniformRandWire("stack-3", 3, cell)),
	}

	// The unpressured reference, on its own server: the first stacking pays
	// for every segment key once, the second adds nothing.
	_, refTS := testServer(t)
	var ref [2]scheduleResponse
	var refTag [2]string
	reference := func(i int) {
		var resp *http.Response
		ref[i], resp = postScheduleOK(t, refTS, "?strategy=best-effort", bodies[i])
		refTag[i] = resp.Header.Get("ETag")
	}
	reference(0)
	oneSearchPerKey := metricValue(t, refTS, "serenityd_states_explored_total")
	reference(1)
	if got := metricValue(t, refTS, "serenityd_states_explored_total"); oneSearchPerKey == 0 || got != oneSearchPerKey {
		t.Fatalf("reference: %d fresh states after the first stacking, %d after both; the stackings must share every segment", oneSearchPerKey, got)
	}

	cfg := testConfig()
	cfg.refineOpts = serenity.RefinePoolOptions{Workers: 2, QueueDepth: 64}
	s, ts := startServer(t, cfg)
	// Plug both workers so neither repair starts before both degraded
	// answers are out.
	unblock := plugRefine(t, s.refine, 2)

	const q = "?strategy=best-effort&degrade=force"
	for i, body := range bodies {
		if degraded, _ := postScheduleOK(t, ts, q, body); degraded.Quality != serenity.QualityHeuristic || degraded.RefinementsQueued == 0 {
			t.Fatalf("stacking %d: quality %q, refinements_queued %d", i, degraded.Quality, degraded.RefinementsQueued)
		}
	}
	before := metricValue(t, ts, "serenityd_states_explored_total")
	close(unblock)
	drainRefine(t, s.refine)
	if st := s.refine.Stats(); st.Failed != 0 || st.Done != 4 {
		t.Fatalf("pool after the two repairs: %+v", st)
	}
	if grew := metricValue(t, ts, "serenityd_states_explored_total") - before; grew != oneSearchPerKey {
		t.Errorf("two concurrent repairs explored %d fresh states, want exactly one exact search per shared key = %d", grew, oneSearchPerKey)
	}
	for i, body := range bodies {
		refined, resp := postScheduleOK(t, ts, q, body)
		if !refined.Cached || refined.Quality != serenity.QualityOptimal || resp.Header.Get("ETag") != refTag[i] {
			t.Errorf("stacking %d: cached=%t quality=%q etag %s after refinement, want the unpressured run's %s",
				i, refined.Cached, refined.Quality, resp.Header.Get("ETag"), refTag[i])
		}
		if !reflect.DeepEqual(refined.Order, ref[i].Order) || refined.Peak != ref[i].Peak || refined.ArenaSize != ref[i].ArenaSize {
			t.Errorf("stacking %d: refined answer diverged from the unpressured exact run\nref: %v\ngot: %v", i, ref[i].Order, refined.Order)
		}
	}
}

// gatedSearcher delays one pipeline's searches until open is closed, telling
// the test (once) that a search has started and is holding its segment's
// flight.
type gatedSearcher struct {
	serenity.BestEffort
	started *sync.Once
	running chan struct{}
	open    chan struct{}
}

func (g gatedSearcher) Search(ctx context.Context, m *serenity.MemModel) (serenity.SearchResult, error) {
	g.started.Do(func() { close(g.running) })
	select {
	case <-g.open:
	case <-ctx.Done():
		return serenity.SearchResult{}, ctx.Err()
	}
	return g.BestEffort.Search(ctx, m)
}

// TestDegradedRequestJoinsRunningRepair pins what coalescing with the repair
// means for the external contract. While a key's repair is mid-search, an
// identical forced-degraded request's segments join the repair's flights, so
// it comes back exact; that answer supersedes the degraded one like the
// repair's own — the same answer under the same ETag — and whichever of the
// two reaches the response cache second leaves the first standing.
func TestDegradedRequestJoinsRunningRepair(t *testing.T) {
	running, open := make(chan struct{}), make(chan struct{})
	var started sync.Once
	s, ts := pipelineServer(t, func(o serenity.Options, p *serenity.Pipeline) {
		if o.Parallelism == 1 { // only the refinement compiles one shard wide here
			p.Searcher = gatedSearcher{p.Searcher.(serenity.BestEffort), &started, running, open}
		}
	})

	body := graphBody(t, smallCell(48))
	const q = "?strategy=best-effort&degrade=force"
	degraded, resp := postScheduleOK(t, ts, q, body)
	if degraded.Quality != serenity.QualityHeuristic {
		t.Fatalf("first answer: quality %q", degraded.Quality)
	}
	<-running // the repair now leads a segment flight

	joined := make(chan scheduleResponse, 1)
	joinedTag := make(chan string, 1)
	go func() {
		var sr scheduleResponse
		resp, data := postSchedule(t, ts, q+"&wait_refined=30000", body)
		if err := json.Unmarshal(data, &sr); resp.StatusCode != http.StatusOK || err != nil {
			t.Errorf("request during the repair: status %d, decode error %v: %s", resp.StatusCode, err, data)
		}
		joined <- sr
		joinedTag <- resp.Header.Get("ETag")
	}()
	// The second request parks on the repair's flight; give it time to get
	// there, then let the repair search.
	for deadline := time.Now().Add(10 * time.Second); s.inFlight.Load() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(open)

	got, tag := <-joined, <-joinedTag
	if got.Quality != serenity.QualityOptimal || got.Fallbacks != 0 {
		t.Fatalf("request that joined the repair: quality %q fallbacks %d, want the exact answer",
			got.Quality, got.Fallbacks)
	}
	if tag == resp.Header.Get("ETag") {
		t.Error("the exact answer kept the degraded answer's ETag")
	}
	drainRefine(t, s.refine)
	if st := s.refine.Stats(); st.Failed != 0 {
		t.Fatalf("repair failed: %+v", st)
	}
	final, finalResp := postScheduleOK(t, ts, q, body)
	if !final.Cached || final.Quality != serenity.QualityOptimal || finalResp.Header.Get("ETag") != tag {
		t.Errorf("after the repair: cached=%t quality=%q etag %s, want the exact entry %s",
			final.Cached, final.Quality, finalResp.Header.Get("ETag"), tag)
	}
	if !reflect.DeepEqual(final.Order, got.Order) {
		t.Error("the cached answer's order differs from the one served while the repair ran")
	}
}
