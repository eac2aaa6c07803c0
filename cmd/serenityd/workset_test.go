package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"regexp"
	"slices"
	"sync"
	"testing"

	serenity "github.com/serenity-ml/serenity"
)

// corpusGraph is a disk-restart-shaped request: cells stacked behind 1×1
// projections, each a Watts–Strogatz WS(nodes, 4, 0.75) ring whose sinks are
// joined by concat → pointwise conv (rewritable) on even seeds and by add on
// odd ones.
func corpusGraph(name string, cells, nodes int, seed int64) *serenity.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := serenity.NewBuilder(name)
	x := b.Input(serenity.Shape{1, 16, 16, 16})
	for c := 0; c < cells; c++ {
		x = b.PointwiseConv(x, 16)
		preds := make([][]int, nodes)
		seen := map[[2]int]bool{}
		for i := 0; i < nodes; i++ {
			for j := 1; j <= 2; j++ {
				u, v := i, (i+j)%nodes
				if rng.Float64() < 0.75 {
					for v = rng.Intn(nodes); v == i; v = rng.Intn(nodes) {
					}
				}
				if u > v {
					u, v = v, u
				}
				if !seen[[2]int{u, v}] {
					seen[[2]int{u, v}] = true
					preds[v] = append(preds[v], u)
				}
			}
		}
		ids := make([]int, nodes)
		used := make([]bool, nodes)
		for i := range ids {
			src := x
			switch len(preds[i]) {
			case 0:
			case 1:
				src = ids[preds[i][0]]
			default:
				ops := make([]int, len(preds[i]))
				for j, p := range preds[i] {
					ops[j] = ids[p]
					used[p] = true
				}
				src = b.Add(ops...)
			}
			for _, p := range preds[i] {
				used[p] = true
			}
			ids[i] = b.SepConv(src, 16, 3, 1, serenity.PadSame)
		}
		var sinks []int
		for i, id := range ids {
			if !used[i] {
				sinks = append(sinks, id)
			}
		}
		switch {
		case len(sinks) == 1:
			x = sinks[0]
		case (seed+int64(c))%2 == 0:
			x = b.PointwiseConv(b.Concat(sinks...), 16)
		default:
			x = b.Add(sinks...)
		}
	}
	return b.Graph()
}

// replayWriter is an http.ResponseWriter that keeps the status and the body
// of the last response in buffers it reuses, so a benchmark's allocation
// count is the handler's alone.
type replayWriter struct {
	h    http.Header
	code int
	body []byte
}

func (w *replayWriter) Header() http.Header { return w.h }

func (w *replayWriter) WriteHeader(code int) { w.code = code }

func (w *replayWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	w.body = append(w.body, p...)
	return len(p), nil
}

// replayRequest is one reusable POST /v1/schedule: serve resets its body
// and the writer, then runs h.
type replayRequest struct {
	body []byte
	rd   bytes.Reader
	req  *http.Request
}

func newReplayRequest(body []byte, query string) *replayRequest {
	rr := &replayRequest{body: body}
	rr.req = &http.Request{Method: http.MethodPost, URL: &url.URL{Path: "/v1/schedule", RawQuery: query},
		Header: http.Header{}, ContentLength: int64(len(body)), Body: io.NopCloser(&rr.rd)}
	return rr
}

func (rr *replayRequest) serve(h http.Handler, w *replayWriter) {
	rr.rd.Reset(rr.body)
	clear(w.h)
	w.code, w.body = 0, w.body[:0]
	h.ServeHTTP(w, rr.req)
}

// diskRestartCorpus compiles corpus graphs on a server over a fresh store
// directory, closes it (flushing the store), and returns the request bodies
// with a config that reopens the same directory: every server built from it
// answers each body's segments from disk.
func diskRestartCorpus(tb testing.TB, graphs int) ([][]byte, config) {
	tb.Helper()
	cfg := testConfig()
	cfg.opts.Parallelism = 2
	cfg.storeDir = tb.TempDir()
	s, err := build(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	h := s.handler()
	bodies := make([][]byte, graphs)
	w := &replayWriter{h: http.Header{}}
	for i := range bodies {
		bodies[i] = graphBody(tb, corpusGraph(fmt.Sprintf("corpus-%d", i), 3, 20, int64(i)))
		newReplayRequest(bodies[i], "").serve(h, w)
		if w.code != http.StatusOK {
			tb.Fatalf("compiling corpus graph %d: status %d: %s", i, w.code, w.body)
		}
	}
	s.close()
	return bodies, cfg
}

// BenchmarkDiskHitRequest measures one /v1/schedule request whose every
// segment is a disk hit, decode to encode, as the disk-restart workload sends
// it: each round restarts the server on the corpus's store (off the clock) and
// replays every graph once, so no request finds its answer in memory.
func BenchmarkDiskHitRequest(b *testing.B) {
	bodies, cfg := diskRestartCorpus(b, 32)
	reqs := make([]*replayRequest, len(bodies))
	for i, body := range bodies {
		reqs[i] = newReplayRequest(body, "")
	}
	w := &replayWriter{h: http.Header{}}
	var s *server
	var h http.Handler
	defer func() {
		if s != nil {
			s.close()
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%len(reqs) == 0 {
			b.StopTimer()
			if s != nil {
				s.close()
			}
			var err error
			if s, err = build(cfg); err != nil {
				b.Fatal(err)
			}
			h = s.handler()
			b.StartTimer()
		}
		reqs[i%len(reqs)].serve(h, w)
		if w.code != http.StatusOK {
			b.Fatalf("status %d: %s", w.code, w.body)
		}
	}
}

// drainWorkSets empties s's working-set pool, so its next request starts a
// set of its own, as on a freshly started server.
func drainWorkSets(s *server) {
	for {
		select {
		case <-s.workSets:
		default:
			return
		}
	}
}

// timings matches the response fields that measure a compilation rather than
// describe its answer.
var timings = regexp.MustCompile(`"(scheduling_ms|rewrite|partition|search|alloc)": [-+.e0-9]+`)

// normalized is a response with its timings zeroed, so two servers' answers
// compare byte for byte; with anyCached, the cached flag too.
func normalized(code int, etag string, body []byte, anyCached bool) string {
	body = timings.ReplaceAll(body, []byte(`"$1": 0`))
	if anyCached {
		body = bytes.ReplaceAll(body, []byte(`"cached": false`), []byte(`"cached": true`))
	}
	return fmt.Sprintf("%d %s %s", code, etag, body)
}

// recycleStep is one request of a recycle test: a body and its query, sent
// with a context already canceled when canceled is set.
type recycleStep struct {
	body     []byte
	query    string
	canceled bool
}

// recycleSteps is a sequence in which stale working-set memory would show:
// graphs larger then smaller, a canceled request, cached hits under the
// compiled names and under other names (a rewritten graph derived per hit),
// and an unpartitioned compilation.
func recycleSteps(t *testing.T) []recycleStep {
	big := graphBody(t, corpusGraph("big", 4, 24, 1))
	small := graphBody(t, corpusGraph("small", 2, 12, 2))
	alpha := graphBody(t, rewritableCell(t, "alpha"))
	return []recycleStep{
		{body: big},
		{body: small},
		{body: graphBody(t, corpusGraph("gone", 3, 20, 3)), canceled: true},
		{body: alpha},
		{body: small},
		{body: graphBody(t, rewritableCell(t, "beta"))},
		{body: big},
		{body: graphBody(t, corpusGraph("late", 3, 20, 4))},
		{body: alpha},
		{body: small, query: "partition=false"},
		{body: alpha, query: "strategy=best-effort&degrade=force"},
	}
}

// serveSteps runs steps through a new server's handler one after another and
// returns each answer in normalized form, and how many working sets the pool
// holds at the end; fresh empties the pool before every request.
func serveSteps(t *testing.T, steps []recycleStep, fresh bool) ([]string, int) {
	s, err := build(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	h := s.handler()
	w := &replayWriter{h: http.Header{}}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	var out []string
	for _, st := range steps {
		if fresh {
			drainWorkSets(s)
		}
		rr := newReplayRequest(st.body, st.query)
		if st.canceled {
			rr.req = rr.req.WithContext(canceled)
		}
		rr.serve(h, w)
		out = append(out, normalized(w.code, w.h.Get("ETag"), w.body, false))
	}
	return out, len(s.workSets)
}

// TestRecycledRequestsMatchFresh sends one sequence to a server whose
// requests recycle one working set and to one whose every request starts a
// set of its own: every answer must be byte-equal, timings aside.
func TestRecycledRequestsMatchFresh(t *testing.T) {
	steps := recycleSteps(t)
	want, _ := serveSteps(t, steps, true)
	got, pooled := serveSteps(t, steps, false)
	if pooled == 0 {
		t.Fatal("no working set came back to the pool")
	}
	for i := range steps {
		if got[i] != want[i] {
			t.Errorf("step %d: the recycled server answered\n%.600s\nwhere a fresh one answered\n%.600s", i, got[i], want[i])
		}
	}
}

// TestRecycledRequestsConcurrent sends 32 requests at once over real
// connections (meaningful under -race) — cached hits under the compiled
// names and under others, and never-seen graphs several requests compile
// together — while working sets cycle through the pool. Each answer must be
// byte-equal to what a fresh server answers the same request one at a time,
// apart from the cached flag, which says whether a request led or followed.
func TestRecycledRequestsConcurrent(t *testing.T) {
	var warm, bodies [][]byte
	for i := range 4 {
		b := graphBody(t, corpusGraph(fmt.Sprintf("warm-%d", i), 3, 16, int64(10+i)))
		warm = append(warm, b)
		bodies = append(bodies, b, graphBody(t, renamed(t, corpusGraph(fmt.Sprintf("warm-%d", i), 3, 16, int64(10+i)), "other")))
	}
	for i := range 4 {
		bodies = append(bodies, graphBody(t, corpusGraph(fmt.Sprintf("new-%d", i), 3, 16, int64(20+i))))
	}
	start := func() (*server, func(body []byte) string) {
		s, ts := testServer(t)
		post := func(body []byte) string {
			resp, data := postSchedule(t, ts, "", body)
			return normalized(resp.StatusCode, resp.Header.Get("ETag"), data, true)
		}
		for _, b := range warm {
			post(b)
		}
		return s, post
	}
	s, fresh := start()
	want := make([]string, len(bodies))
	for i, b := range bodies {
		drainWorkSets(s)
		want[i] = fresh(b)
	}
	_, post := start()
	const requests = 32
	got := make([]string, requests)
	var wg sync.WaitGroup
	for k := range requests {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[k] = post(bodies[k%len(bodies)])
		}()
	}
	wg.Wait()
	for k := range requests {
		if got[k] != want[k%len(bodies)] {
			t.Errorf("request %d: answered\n%.600s\nwhere a fresh server answers\n%.600s", k, got[k], want[k%len(bodies)])
		}
	}
}

// TestRefinementOutlivesItsWorkSet: a degraded answer's repair runs after its
// request's handler released the working set and later requests rebuilt
// their graphs in it, and still finds the unpressured answer — the job
// compiles a clone, not the recycled graph.
func TestRefinementOutlivesItsWorkSet(t *testing.T) {
	s, ts := refineServer(t)
	unblock := plugRefine(t, s.refine, 1)
	body := graphBody(t, corpusGraph("repaired", 3, 20, 5))
	degraded, _ := postScheduleOK(t, ts, "?strategy=best-effort&degrade=force&wait_refined=1", body)
	if degraded.Fallbacks == 0 {
		t.Fatal("forced degradation served no fallback")
	}
	for i := range 4 { // the graphs these decode and compile overwrite the set
		postScheduleOK(t, ts, "", graphBody(t, corpusGraph(fmt.Sprintf("after-%d", i), 4, 24, int64(30+i))))
	}
	close(unblock)
	drainRefine(t, s.refine)
	refined, resp := postScheduleOK(t, ts, "?strategy=best-effort&degrade=force&wait_refined=30000", body)
	_, other := testServer(t)
	exact, exactResp := postScheduleOK(t, other, "?strategy=best-effort", body)
	if refined.Fallbacks != 0 || !slices.Equal(refined.Order, exact.Order) || refined.Peak != exact.Peak ||
		resp.Header.Get("ETag") != exactResp.Header.Get("ETag") {
		t.Errorf("the repair answered %d fallbacks, peak %d, ETag %s; the unpressured answer is peak %d, ETag %s",
			refined.Fallbacks, refined.Peak, resp.Header.Get("ETag"), exact.Peak, exactResp.Header.Get("ETag"))
	}
}

// TestRenamedHitSlotSurvivesReuse: the rewritten graph a renamed hit derives
// and leaves in its answer's slot is built on memory of its own, so it is
// byte-stable after later requests rebuild their graphs in the working set
// the hit was decoded in.
func TestRenamedHitSlotSurvivesReuse(t *testing.T) {
	s, ts := testServer(t)
	postScheduleOK(t, ts, "", graphBody(t, rewritableCell(t, "alpha")))
	beta := graphBody(t, rewritableCell(t, "beta"))
	hit, _ := postScheduleOK(t, ts, "", beta)
	entry, ok := s.cache.Get(cachedKey(t, s, beta))
	if !ok || entry.rewritten == nil || entry.rewritten.Load() == nil {
		t.Fatal("the renamed hit left no rewritten graph in its answer's slot")
	}
	slot := entry.rewritten.Load().g
	before, err := json.Marshal(slot)
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := json.Marshal(hit.RewrittenGraph); !bytes.Equal(before, want) {
		t.Fatal("the slot's graph is not the one the renamed hit answered with")
	}
	for i := range 4 {
		postScheduleOK(t, ts, "", graphBody(t, corpusGraph(fmt.Sprintf("after-%d", i), 4, 24, int64(40+i))))
		postScheduleOK(t, ts, "", beta)
	}
	if after, _ := json.Marshal(slot); !bytes.Equal(after, before) {
		t.Error("the slot's rewritten graph changed after later requests reused the working set")
	}
}

// TestWorkSetPoolBounded: the pool keeps at most retainedWorkSets idle sets
// and drops a set that outgrew workSetBytes.
func TestWorkSetPoolBounded(t *testing.T) {
	s, err := build(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	sets := make([]*workSet, retainedWorkSets+2)
	for i := range sets {
		sets[i] = s.acquireWorkSet()
	}
	sets[0].body = make([]byte, 0, workSetBytes+1)
	for _, w := range sets {
		s.releaseWorkSet(w)
	}
	if n := len(s.workSets); n != retainedWorkSets {
		t.Errorf("%d idle sets retained, want %d", n, retainedWorkSets)
	}
	for range retainedWorkSets {
		if w := s.acquireWorkSet(); w == sets[0] || w.bytes() > workSetBytes {
			t.Error("the pool kept a set over its byte cap")
		}
	}
}
