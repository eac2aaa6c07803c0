package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	serenity "github.com/serenity-ml/serenity"
	"github.com/serenity-ml/serenity/internal/govern"
	"github.com/serenity-ml/serenity/internal/graph"
	"github.com/serenity-ml/serenity/internal/models"
)

// testConfig is the baseline test daemon: the daemon's shape — segment memo,
// admission and a one-worker refinement pool — with small caches and four
// compile slots, so no test depends on the machine's core count; no store,
// fleet or governor. Helpers switch those on by filling the same fields the
// flags bind to.
func testConfig() config {
	opts := serenity.DefaultOptions()
	opts.StepTimeout = 500 * time.Millisecond
	opts.Parallelism = 4
	return config{
		opts: opts, cacheSize: 64, segMemoSize: 1024, compileSlots: 4,
		refineOpts: serenity.RefinePoolOptions{Workers: 1},
		govern:     govern.Options{Limit: -1},
	}
}

// startServer assembles cfg with the daemon's own constructor and serves it
// from an httptest listener; cleanup is the daemon's own teardown.
func startServer(t *testing.T, cfg config) (*server, *httptest.Server) {
	t.Helper()
	s, err := build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.handler())
	t.Cleanup(func() {
		ts.Close()
		s.close()
	})
	return s, ts
}

func testServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	return startServer(t, testConfig())
}

// smallCell is a compact irregularly wired model: real enough to exercise
// rewriting/partitioning, small enough that the DP is instant even under the
// race detector.
func smallCell(seed int64) *serenity.Graph {
	return serenity.RandWireCell(fmt.Sprintf("rw-test-%d", seed), 12, 4, 0.75, seed, 8, 4)
}

func graphBody(t testing.TB, g *serenity.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := serenity.WriteGraphJSON(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postSchedule(t *testing.T, ts *httptest.Server, query string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/schedule"+query, "application/json", bytes.NewReader(body))
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

// postScheduleOK posts a graph that must schedule: it fails the test on any
// status but 200 and returns the decoded response.
func postScheduleOK(t *testing.T, ts *httptest.Server, query string, body []byte) (scheduleResponse, *http.Response) {
	t.Helper()
	resp, data := postSchedule(t, ts, query, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/schedule%s: status %d: %s", query, resp.StatusCode, data)
	}
	var sr scheduleResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	return sr, resp
}

func TestScheduleEndpoint(t *testing.T) {
	_, ts := testServer(t)
	body := graphBody(t, smallCell(1))

	got, _ := postScheduleOK(t, ts, "", body)
	if got.Nodes == 0 || len(got.Order) != got.Nodes {
		t.Errorf("order covers %d of %d nodes", len(got.Order), got.Nodes)
	}
	if got.Peak <= 0 || got.ArenaSize < got.Peak {
		t.Errorf("peak %d arena %d", got.Peak, got.ArenaSize)
	}
	if got.Cached {
		t.Error("first request reported cached")
	}
	if got.Fingerprint == "" {
		t.Error("missing fingerprint")
	}

	// Same topology again: served from cache, otherwise identical.
	again, _ := postScheduleOK(t, ts, "", body)
	if !again.Cached {
		t.Error("second request not served from cache")
	}
	again.Cached = got.Cached
	if !reflect.DeepEqual(got, again) {
		t.Errorf("cached response differs:\n%+v\n%+v", got, again)
	}

	// A structurally identical graph under a different name hits the cache
	// but must echo the requester's name, not the first submitter's.
	renamed := smallCell(1)
	renamed.Name = "renamed-topology"
	third, _ := postScheduleOK(t, ts, "", graphBody(t, renamed))
	if !third.Cached {
		t.Error("renamed topology missed the structural cache")
	}
	if third.Graph != "renamed-topology" {
		t.Errorf("cached response echoes %q, want the requester's name", third.Graph)
	}
}

// TestConcurrentScheduleRequests is the acceptance scenario: 50 concurrent
// POSTs over a small model zoo, all answered correctly, with the cache
// recording hits.
func TestConcurrentScheduleRequests(t *testing.T) {
	s, ts := testServer(t)
	bodies := [][]byte{
		graphBody(t, smallCell(1)),
		graphBody(t, smallCell(2)),
		graphBody(t, smallCell(3)),
	}
	// Warm one entry so at least one concurrent request is a plain cache hit
	// regardless of scheduling interleavings.
	if resp, data := postSchedule(t, ts, "", bodies[0]); resp.StatusCode != http.StatusOK {
		t.Fatalf("warm-up failed: %d %s", resp.StatusCode, data)
	}

	const requests = 50
	responses := make([]scheduleResponse, requests)
	errs := make([]error, requests)
	var wg sync.WaitGroup
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := ts.Client().Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(bodies[i%len(bodies)]))
			if err != nil {
				errs[i] = err
				return
			}
			data, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d: %s", resp.StatusCode, data)
				return
			}
			errs[i] = json.Unmarshal(data, &responses[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	// Identical topology => identical schedule, cached or not.
	for i := len(bodies); i < requests; i++ {
		prev := responses[i-len(bodies)]
		cur := responses[i]
		if cur.Peak != prev.Peak || !reflect.DeepEqual(cur.Order, prev.Order) {
			t.Errorf("request %d: schedule diverged from request %d", i, i-len(bodies))
		}
	}
	if hits := s.cache.Stats().Hits; hits < 1 {
		t.Errorf("cache hits = %d, want >= 1", hits)
	}
	if got := s.requests.Load(); got != requests+1 {
		t.Errorf("requests counter = %d, want %d", got, requests+1)
	}
	if s.inFlight.Load() != 0 {
		t.Errorf("in-flight gauge = %d after quiesce", s.inFlight.Load())
	}
}

// TestScheduleReturnsRewrittenGraph pins the contract that makes responses
// self-contained: when rewriting changes the graph, Order indexes the
// rewritten graph, so the response must carry it and the order must be valid
// against it.
func TestScheduleReturnsRewrittenGraph(t *testing.T) {
	_, ts := testServer(t)
	b := serenity.NewBuilder("rewritable")
	in := b.Input(serenity.Shape{1, 16, 16, 4})
	x := b.Conv(in, 8, 3, 1, serenity.PadSame)
	y := b.Conv(in, 8, 3, 1, serenity.PadSame)
	cc := b.Concat(x, y)
	z := b.Conv(cc, 8, 3, 1, serenity.PadSame)
	b.ReLU(z)

	got, _ := postScheduleOK(t, ts, "", graphBody(t, b.Graph()))
	if got.Rewrites == 0 {
		t.Fatal("conv-conv-concat pattern did not rewrite; test graph needs updating")
	}
	if got.RewrittenGraph == nil {
		t.Fatal("rewritten response carries no rewritten_graph; Order is uninterpretable")
	}
	if got.RewrittenGraph.NumNodes() != got.Nodes || len(got.Order) != got.Nodes {
		t.Errorf("rewritten graph has %d nodes, response reports %d with %d order entries",
			got.RewrittenGraph.NumNodes(), got.Nodes, len(got.Order))
	}
	seen := make(map[int]bool)
	for _, id := range got.Order {
		if id < 0 || id >= got.Nodes || seen[id] {
			t.Fatalf("order is not a permutation of the rewritten graph's nodes: %v", got.Order)
		}
		seen[id] = true
	}

	// A graph that does not rewrite must omit the field.
	plain, _ := postScheduleOK(t, ts, "?rewrite=false", graphBody(t, b.Graph()))
	if plain.RewrittenGraph != nil {
		t.Error("rewrite=false response still carries rewritten_graph")
	}
}

func TestMetricsAndHealthz(t *testing.T) {
	s, ts := testServer(t)
	if resp, data := postSchedule(t, ts, "", graphBody(t, smallCell(1))); resp.StatusCode != http.StatusOK {
		t.Fatalf("schedule failed: %d %s", resp.StatusCode, data)
	}
	postSchedule(t, ts, "", graphBody(t, smallCell(1)))

	resp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health["status"] != "ok" {
		t.Errorf("healthz = %v", health)
	}

	_, metrics := getJSON(t, ts, "/metrics")
	for _, want := range []string{
		"serenityd_requests_total 2",
		"serenityd_cache_hits_total 1",
		"serenityd_cache_misses_total 1",
		"serenityd_in_flight_requests 0",
		"serenityd_states_explored_total",
		"serenityd_errors_total 0",
		"serenityd_dp_states_per_second",
		"serenityd_dp_frontier_high_water",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
	if s.states.Load() <= 0 {
		t.Error("states-explored counter never incremented")
	}
	if s.frontierHigh.Load() <= 0 {
		t.Error("frontier high-water gauge never rose above zero")
	}
	if strings.Contains(string(metrics), "serenityd_dp_states_per_second 0.0\n") {
		t.Error("states-per-second gauge is zero after a fresh compilation")
	}
}

func TestScheduleErrors(t *testing.T) {
	s, ts := testServer(t)
	body := graphBody(t, smallCell(1))

	if resp, _ := postSchedule(t, ts, "", []byte("{not json")); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid body: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := postSchedule(t, ts, "?parallelism=abc", body); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad query: status %d, want 400", resp.StatusCode)
	}
	if resp, _ := postSchedule(t, ts, "?budget=1", body); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("impossible budget: status %d, want 422", resp.StatusCode)
	}
	s.maxNodes = 3
	if resp, _ := postSchedule(t, ts, "", body); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("over max-nodes: status %d, want 413", resp.StatusCode)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/schedule")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", resp.StatusCode)
	}
}

func TestQueryOverridesChangeCacheKey(t *testing.T) {
	s, ts := testServer(t)
	body := graphBody(t, smallCell(1))
	postSchedule(t, ts, "", body)
	got, _ := postScheduleOK(t, ts, "?rewrite=false", body)
	if got.Cached {
		t.Error("different options hit the same cache entry")
	}
	if s.cache.Stats().Len != 2 {
		t.Errorf("cache entries = %d, want 2 distinct keys", s.cache.Stats().Len)
	}

	// Parallelism is excluded from the key: results are bit-identical.
	if got, _ = postScheduleOK(t, ts, "?parallelism=1", body); !got.Cached {
		t.Error("parallelism override missed the cache")
	}
}

// TestStrategyParam: per-request strategy selection reaches the pipeline
// and the response is honestly labeled.
func TestStrategyParam(t *testing.T) {
	_, ts := testServer(t)
	body := graphBody(t, smallCell(4))

	got, _ := postScheduleOK(t, ts, "?strategy=greedy", body)
	if got.Strategy != "greedy" {
		t.Errorf("strategy = %q, want greedy", got.Strategy)
	}
	if got.Quality != serenity.QualityHeuristic {
		t.Errorf("quality = %q, want heuristic", got.Quality)
	}
	if got.StatesExplored <= 0 {
		t.Error("greedy response reports no states explored")
	}
	if len(got.SegmentQuality) != len(got.PartitionSizes) {
		t.Errorf("segment_quality %d entries, partitions %d", len(got.SegmentQuality), len(got.PartitionSizes))
	}

	// Exact on the same graph: distinct cache entry, optimal quality, and a
	// peak no better than the heuristic's.
	exact, _ := postScheduleOK(t, ts, "", body)
	if exact.Cached {
		t.Error("exact request hit the greedy cache entry")
	}
	if exact.Strategy != "exact" || exact.Quality != serenity.QualityOptimal {
		t.Errorf("exact response labeled %q/%q", exact.Strategy, exact.Quality)
	}
	if got.Peak < exact.Peak {
		t.Errorf("greedy peak %d below optimal %d", got.Peak, exact.Peak)
	}

	// The batch endpoint applies the same parameter to every item.
	batch, err := json.Marshal(batchRequest{Items: []json.RawMessage{body, graphBody(t, smallCell(5))}})
	if err != nil {
		t.Fatal(err)
	}
	var br batchResponse
	if resp, data := postBatch(t, ts, "?strategy=greedy", batch); resp.StatusCode != http.StatusOK || json.Unmarshal(data, &br) != nil || br.Scheduled != 2 {
		t.Fatalf("greedy batch: status %d: %s", resp.StatusCode, data)
	}
	for _, item := range br.Items {
		if item.Schedule.Strategy != "greedy" || item.Schedule.Quality != serenity.QualityHeuristic {
			t.Errorf("batch item %d labeled %q/%q, want greedy/heuristic", item.Index, item.Schedule.Strategy, item.Schedule.Quality)
		}
	}
}

// TestBestEffortDeadlineFallback is the serving-side acceptance scenario: a
// deadline the exact DP cannot meet yields 200 with a heuristic schedule, and
// /metrics reports the fallback.
func TestBestEffortDeadlineFallback(t *testing.T) {
	s, ts := testServer(t)
	// No exact search of this graph finishes, at any machine speed: a sparse
	// 100-node random DAG whose tensors all differ in size offers the DP few
	// safe moves, and its frontier passes a million states (on its way past
	// the 4M-state valve) within a dozen levels. 50ms lands mid-search.
	g := graph.RandomDAG(rand.New(rand.NewSource(7)), graph.RandomDAGConfig{Nodes: 100, EdgeProb: 0.03, MaxFanIn: 2})
	got, _ := postScheduleOK(t, ts, "?strategy=best-effort&deadline_ms=50", graphBody(t, g))
	if got.Quality != serenity.QualityHeuristic {
		t.Errorf("quality = %q, want heuristic under an impossible deadline", got.Quality)
	}
	if got.Fallbacks == 0 {
		t.Error("response reports no fallbacks")
	}
	if len(got.Order) != got.Nodes || got.Peak <= 0 {
		t.Errorf("degraded response is not a valid schedule: %d/%d nodes, peak %d", len(got.Order), got.Nodes, got.Peak)
	}
	if s.fallbacks.Load() == 0 {
		t.Error("fallback counter never incremented")
	}

	_, metrics := getJSON(t, ts, "/metrics")
	for _, want := range []string{
		"serenityd_fallbacks_total",
		"serenityd_heuristic_responses_total 1",
		`serenityd_stage_seconds_total{stage="search"}`,
		`serenityd_stage_seconds_total{stage="alloc"}`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// Degraded results must not be pinned in the cache.
	again, _ := postScheduleOK(t, ts, "?strategy=best-effort&deadline_ms=50", graphBody(t, g))
	if again.Cached {
		t.Error("heuristic fallback response was served from the cache")
	}

	// Same strategy with a generous deadline: full exact quality.
	small := graphBody(t, smallCell(5))
	easy, _ := postScheduleOK(t, ts, "?strategy=best-effort&deadline_ms=60000", small)
	if easy.Quality != serenity.QualityOptimal || easy.Fallbacks != 0 {
		t.Errorf("feasible best-effort degraded: quality=%q fallbacks=%d", easy.Quality, easy.Fallbacks)
	}

	// The counter is the sum of the responses' fallbacks: add one forced
	// degradation and one exact compile, then reconcile every response.
	forced, _ := postScheduleOK(t, ts, "?strategy=best-effort&degrade=force", graphBody(t, smallCell(6)))
	if forced.Fallbacks == 0 {
		t.Error("forced degradation reports no fallbacks")
	}
	exact, _ := postScheduleOK(t, ts, "", graphBody(t, smallCell(7)))
	sum := 0
	for _, r := range []scheduleResponse{got, again, easy, forced, exact} {
		sum += r.Fallbacks
	}
	_, metrics = getJSON(t, ts, "/metrics")
	if want := fmt.Sprintf("\nserenityd_fallbacks_total %d\n", sum); !strings.Contains(string(metrics), want) {
		t.Errorf("metrics disagree with the responses' fallbacks (want %q):\n%s", strings.TrimSpace(want), metrics)
	}
}

// TestRequestValidation: malformed strategy/deadline/options fail fast with
// 400 and a JSON error body, before any scheduling work.
func TestRequestValidation(t *testing.T) {
	_, ts := testServer(t)
	body := graphBody(t, smallCell(1))
	for _, query := range []string{
		"?strategy=simulated-annealing",
		"?deadline_ms=abc",
		"?deadline_ms=-5",
		"?deadline_ms=0",
		"?parallelism=-2",
	} {
		resp, data := postSchedule(t, ts, query, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", query, resp.StatusCode, data)
			continue
		}
		var e errorResponse
		if err := json.Unmarshal(data, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q is not a JSON error", query, data)
		}
	}
}

// TestBudgetExceededResponse pins the ErrBudgetExceeded wire contract: a
// distinct 422 status with a JSON error body naming both sides of the
// overflow.
func TestBudgetExceededResponse(t *testing.T) {
	_, ts := testServer(t)
	resp, data := postSchedule(t, ts, "?budget=1", graphBody(t, smallCell(1)))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("content type %q, want JSON", ct)
	}
	var e errorResponse
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("error body is not JSON: %v (%s)", err, data)
	}
	if !strings.Contains(e.Error, "exceeds device budget") {
		t.Errorf("error %q does not explain the budget overflow", e.Error)
	}
}

// TestScheduleBatchEndpoint is the batch acceptance scenario: mixed
// valid/invalid items answered per item (200s alongside 400s in one 200
// response), with the cross-request segment memo shared across items — the
// two stacks reuse each other's cell DP — and the memo metrics moving.
func TestScheduleBatchEndpoint(t *testing.T) {
	s, ts := testServer(t)
	stacked := func(cells int) *serenity.Graph {
		return models.StackedUniformRandWire(fmt.Sprintf("batch-%d", cells), cells, models.WSConfig{
			Nodes: 12, K: 4, P: 0.75, Seed: 9, HW: 8, Channel: 4,
		})
	}
	items := []json.RawMessage{
		graphBody(t, stacked(2)),
		[]byte(`{"nodes": "not-a-graph"}`),
		graphBody(t, stacked(3)),
		graphBody(t, smallCell(7)),
	}
	body, err := json.Marshal(batchRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}

	resp, data := postBatch(t, ts, "", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var got batchResponse
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Items) != len(items) {
		t.Fatalf("batch answered %d of %d items", len(got.Items), len(items))
	}
	if got.Scheduled != 3 || got.Failed != 1 {
		t.Errorf("scheduled=%d failed=%d, want 3/1", got.Scheduled, got.Failed)
	}
	for i, item := range got.Items {
		if item.Index != i {
			t.Errorf("item %d carries index %d", i, item.Index)
		}
		if i == 1 {
			if item.Status != http.StatusBadRequest || item.Error == "" || item.Schedule != nil {
				t.Errorf("invalid item: status=%d error=%q schedule=%v, want a 400 with an error body", item.Status, item.Error, item.Schedule)
			}
			continue
		}
		if item.Status != http.StatusOK || item.Schedule == nil {
			t.Fatalf("item %d: status=%d error=%q, want 200 with a schedule", i, item.Status, item.Error)
		}
		if len(item.Schedule.Order) != item.Schedule.Nodes || item.Schedule.Peak <= 0 {
			t.Errorf("item %d: not a valid schedule (%d/%d nodes, peak %d)", i, len(item.Schedule.Order), item.Schedule.Nodes, item.Schedule.Peak)
		}
	}

	// The uniform stacks repeat one cell within and across items: the memo
	// must have both hits and misses, and hold entries.
	st := s.segMemo.Stats()
	if st.Hits < 1 || st.Misses < 1 || st.Entries < 1 {
		t.Errorf("segment memo did not move: %+v", st)
	}
	_, metrics := getJSON(t, ts, "/metrics")
	for _, want := range []string{
		fmt.Sprintf("serenityd_segment_memo_hits_total %d", st.Hits),
		fmt.Sprintf("serenityd_segment_memo_misses_total %d", st.Misses),
		fmt.Sprintf("serenityd_segment_memo_entries %d", st.Entries),
		"serenityd_batch_requests_total 1",
		fmt.Sprintf("serenityd_batch_items_total %d", len(items)),
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}

	// The same batch again: every valid item is a whole-graph cache hit.
	resp, data = postBatch(t, ts, "", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d: %s", resp.StatusCode, data)
	}
	var again batchResponse
	if err := json.Unmarshal(data, &again); err != nil {
		t.Fatal(err)
	}
	for i, item := range again.Items {
		if i == 1 {
			continue
		}
		if item.Schedule == nil || !item.Schedule.Cached {
			t.Errorf("repeat item %d not served from the schedule cache", i)
		}
	}
	if st2 := s.segMemo.Stats(); st2.Misses != st.Misses {
		t.Errorf("cached batch re-ran segment searches: misses %d -> %d", st.Misses, st2.Misses)
	}
}

// TestScheduleBatchErrors: the batch envelope itself fails fast — bad
// method, malformed body, empty and oversized batches, bad query options.
func TestScheduleBatchErrors(t *testing.T) {
	_, ts := testServer(t)
	if resp, data := postBatch(t, ts, "", []byte(`{not json`)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400 (%s)", resp.StatusCode, data)
	}
	if resp, data := postBatch(t, ts, "", []byte(`{"items": []}`)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch: status %d, want 400 (%s)", resp.StatusCode, data)
	}
	if resp, data := postBatch(t, ts, "?strategy=quantum", []byte(`{"items": [0]}`)); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad strategy: status %d, want 400 (%s)", resp.StatusCode, data)
	}
	over := batchRequest{Items: make([]json.RawMessage, maxBatchItems+1)}
	for i := range over.Items {
		over.Items[i] = json.RawMessage("0")
	}
	body, err := json.Marshal(over)
	if err != nil {
		t.Fatal(err)
	}
	if resp, data := postBatch(t, ts, "", body); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch: status %d, want 413 (%s)", resp.StatusCode, data)
	}
	resp, err := ts.Client().Get(ts.URL + "/v1/schedule/batch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", resp.StatusCode)
	}
}

// TestScheduleBatchPerItemBudget: a budget only some items can meet fails
// exactly the over-budget items with the single endpoint's 422, leaving the
// rest scheduled.
func TestScheduleBatchPerItemBudget(t *testing.T) {
	_, ts := testServer(t)
	items := []json.RawMessage{
		graphBody(t, smallCell(1)),
		// Same wiring at double resolution and channels: 4x the tensor
		// bytes, so a budget between the two arenas always exists.
		graphBody(t, serenity.RandWireCell("big-cell", 12, 4, 0.75, 1, 16, 8)),
	}
	body, err := json.Marshal(batchRequest{Items: items})
	if err != nil {
		t.Fatal(err)
	}
	// First find a budget between the two arenas: schedule both unbudgeted.
	resp, data := postBatch(t, ts, "", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("probe status %d: %s", resp.StatusCode, data)
	}
	var probe batchResponse
	if err := json.Unmarshal(data, &probe); err != nil {
		t.Fatal(err)
	}
	if probe.Scheduled != 2 {
		t.Fatalf("probe scheduled %d of 2", probe.Scheduled)
	}
	lo, hi := probe.Items[0].Schedule.ArenaSize, probe.Items[1].Schedule.ArenaSize
	if lo == hi {
		t.Skip("cells landed on equal arenas; no budget separates them")
	}
	if lo > hi {
		lo, hi = hi, lo
	}
	resp, data = postBatch(t, ts, fmt.Sprintf("?budget=%d", lo), body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("budget batch status %d: %s", resp.StatusCode, data)
	}
	var got batchResponse
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Scheduled != 1 || got.Failed != 1 {
		t.Fatalf("scheduled=%d failed=%d, want exactly the affordable item to pass", got.Scheduled, got.Failed)
	}
	for _, item := range got.Items {
		if item.Schedule != nil && item.Schedule.ArenaSize > lo {
			t.Errorf("item %d scheduled over budget", item.Index)
		}
		if item.Status != http.StatusOK && item.Status != http.StatusUnprocessableEntity {
			t.Errorf("item %d: status %d, want 200 or 422", item.Index, item.Status)
		}
		if item.Status == http.StatusUnprocessableEntity && !strings.Contains(item.Error, "exceeds device budget") {
			t.Errorf("over-budget item error %q does not explain the overflow", item.Error)
		}
	}
}

// TestSearchValveAnswers503: a StepTimeout no level can meet fails the exact
// search of SwiftNet A by the valve, which is the server's limit — 503 naming
// the valve and the way out, on the single endpoint and per batch item, never
// 500 — while best-effort absorbs the same valve and answers 200.
func TestSearchValveAnswers503(t *testing.T) {
	cfg := testConfig()
	cfg.opts.StepTimeout = time.Nanosecond
	_, ts := startServer(t, cfg)
	body := graphBody(t, serenity.SwiftNetCellA())

	resp, data := postSchedule(t, ts, "", body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("exact under a 1ns step timeout: status %d, want 503: %s", resp.StatusCode, data)
	}
	for _, want := range []string{"-timeout 1ns", "strategy=best-effort"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("503 body %s does not mention %q", data, want)
		}
	}
	if got, _ := postScheduleOK(t, ts, "?strategy=best-effort", body); got.Quality != "heuristic" || got.Fallbacks == 0 {
		t.Errorf("best-effort under the same valve: quality %q, fallbacks %d, want a degraded 200", got.Quality, got.Fallbacks)
	}

	batch, err := json.Marshal(batchRequest{Items: []json.RawMessage{body}})
	if err != nil {
		t.Fatal(err)
	}
	resp, data = postBatch(t, ts, "", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d: %s", resp.StatusCode, data)
	}
	var got batchResponse
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if len(got.Items) != 1 || got.Items[0].Status != http.StatusServiceUnavailable {
		t.Errorf("batch item under the valve: %s, want status 503", data)
	}
}

func postBatch(t *testing.T, ts *httptest.Server, query string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+"/v1/schedule/batch"+query, "application/json", bytes.NewReader(body))
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
