package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	serenity "github.com/serenity-ml/serenity"
)

// renamed returns a copy of g called name with every node's name prefixed by
// name+"/": the same structure, so the same fingerprint and cache key, under
// names no other copy shares.
func renamed(t testing.TB, g *serenity.Graph, name string) *serenity.Graph {
	t.Helper()
	c := new(serenity.Graph)
	if err := c.UnmarshalJSON(graphBody(t, g)); err != nil {
		t.Fatal(err)
	}
	c.Name = name
	for _, n := range c.Nodes {
		n.Name = name + "/" + n.Name
	}
	return c
}

// rewritableCell is a paper cell whose concat→conv patterns rewrite, so its
// answers carry a rewritten graph.
func rewritableCell(t testing.TB, name string) *serenity.Graph {
	t.Helper()
	g := renamed(t, serenity.SwiftNetCellA(), name)
	if _, n, err := serenity.RewriteGraph(g); err != nil || n == 0 {
		t.Fatalf("SwiftNet cell A no longer rewrites (%d sites, %v); the test needs a rewritable graph", n, err)
	}
	return g
}

// postLater posts body on a goroutine of its own and delivers the decoded
// answer, which must be a 200, on the returned channel.
func postLater(t *testing.T, ts *httptest.Server, query string, body []byte) <-chan scheduleResponse {
	ch := make(chan scheduleResponse, 1)
	go func() {
		var sr scheduleResponse
		resp, data := postSchedule(t, ts, query, body)
		if err := json.Unmarshal(data, &sr); resp.StatusCode != http.StatusOK || err != nil {
			t.Errorf("POST %s: status %d, decode error %v: %s", query, resp.StatusCode, err, data)
		}
		ch <- sr
	}()
	return ch
}

// waitFor polls cond for up to ten seconds.
func waitFor(cond func() bool) {
	for deadline := time.Now().Add(10 * time.Second); !cond() && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

// wantOwnNames fails unless got is a cached answer to src that carries src's
// own names — its graph name, and in rewritten_graph the rewrite of src
// itself, named src.Name+"+rewrite" — with the schedule of want, the answer
// the first submitter of the structure got.
func wantOwnNames(t *testing.T, got, want scheduleResponse, src *serenity.Graph) {
	t.Helper()
	if !got.Cached {
		t.Error("cached = false, want a cached answer")
	}
	if got.Graph != src.Name {
		t.Errorf("graph = %q, want the requester's %q", got.Graph, src.Name)
	}
	rg := got.RewrittenGraph
	if rg == nil {
		t.Fatal("the cached answer carries no rewritten_graph")
	}
	if rg.Name != src.Name+"+rewrite" {
		t.Errorf("rewritten_graph is named %q, want %q", rg.Name, src.Name+"+rewrite")
	}
	for _, n := range rg.Nodes {
		if !strings.HasPrefix(n.Name, src.Name+"/") {
			t.Fatalf("rewritten_graph node %d is named %q: not one of the requester's %q names", n.ID, n.Name, src.Name+"/")
		}
	}
	own, _, err := serenity.RewriteGraph(src)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rg.AppendJSON(nil, 0), own.AppendJSON(nil, 0)) {
		t.Error("rewritten_graph is not the rewrite of the requester's graph")
	}
	if got.Peak != want.Peak || !reflect.DeepEqual(got.Order, want.Order) || etagFor(&got) != etagFor(&want) {
		t.Errorf("answer moved: peak %d order %v etag %s, want peak %d order %v etag %s",
			got.Peak, got.Order, etagFor(&got), want.Peak, want.Order, etagFor(&want))
	}
}

// TestCachedAnswerCarriesRequesterNames: hits are structural, names are the
// requester's. One rewritable structure is submitted under two sets of graph
// and node names; on every route a cached answer leaves by — a plain hit, a
// batch item, a coalesced follower, a ?wait_refined answer — the second
// submitter gets the first's schedule and ETag with its own names, never the
// first submitter's.
func TestCachedAnswerCarriesRequesterNames(t *testing.T) {
	alpha, beta := rewritableCell(t, "alpha"), rewritableCell(t, "beta")

	t.Run("schedule", func(t *testing.T) {
		_, ts := testServer(t)
		first, firstResp := postScheduleOK(t, ts, "", graphBody(t, alpha))
		if first.Cached {
			t.Fatal("the first submission was served from the cache")
		}
		got, resp := postScheduleOK(t, ts, "", graphBody(t, beta))
		wantOwnNames(t, got, first, beta)
		if resp.Header.Get("ETag") != firstResp.Header.Get("ETag") {
			t.Errorf("ETag %s, want the first answer's %s", resp.Header.Get("ETag"), firstResp.Header.Get("ETag"))
		}
	})

	t.Run("batch", func(t *testing.T) {
		_, ts := testServer(t)
		first, _ := postScheduleOK(t, ts, "", graphBody(t, alpha))
		resp, data := postBatch(t, ts, "", []byte(`{"items": [`+string(graphBody(t, beta))+`]}`))
		var br batchResponse
		if err := json.Unmarshal(data, &br); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("batch: status %d, decode error %v: %s", resp.StatusCode, err, data)
		}
		if len(br.Items) != 1 || br.Items[0].Schedule == nil {
			t.Fatalf("batch item: %s", data)
		}
		wantOwnNames(t, *br.Items[0].Schedule, first, beta)
	})

	t.Run("coalesced", func(t *testing.T) {
		// The leader's compile waits at the newPipeline seam until the
		// follower has parked on its flight.
		release := make(chan struct{})
		var compiles atomic.Int32
		s, ts := pipelineServer(t, func(serenity.Options, *serenity.Pipeline) {
			if compiles.Add(1) == 1 {
				<-release
			}
		})
		leader := postLater(t, ts, "", graphBody(t, alpha))
		waitFor(func() bool { return compiles.Load() == 1 })
		follower := postLater(t, ts, "", graphBody(t, beta))
		// The follower's cache miss comes just before it joins the flight.
		waitFor(func() bool { return s.cache.Stats().Misses == 2 })
		time.Sleep(20 * time.Millisecond)
		close(release)
		first, got := <-leader, <-follower
		if n := s.coalesced.Load(); n != 1 || compiles.Load() != 1 {
			t.Fatalf("%d coalesced requests and %d compiles, want the follower to join the leader's one flight", n, compiles.Load())
		}
		if first.Cached || first.Graph != alpha.Name || first.RewrittenGraph == nil || first.RewrittenGraph.Name != alpha.Name+"+rewrite" {
			t.Errorf("the leader's own answer: cached=%t graph %q, want its own uncached compilation", first.Cached, first.Graph)
		}
		wantOwnNames(t, got, first, beta)
	})

	t.Run("wait_refined", func(t *testing.T) {
		cfg := testConfig()
		cfg.refineOpts = serenity.RefinePoolOptions{Workers: 1, QueueDepth: 64}
		s, ts := startServer(t, cfg)
		unblock := plugRefine(t, s.refine, 1)
		const q = "?strategy=best-effort&degrade=force"
		// alpha queues the repair, which compiles alpha's graph; beta waits
		// for that repair's answer.
		if degraded, _ := postScheduleOK(t, ts, q, graphBody(t, alpha)); degraded.Quality != serenity.QualityHeuristic || degraded.RefinementsQueued == 0 {
			t.Fatalf("alpha: quality %q, refinements_queued %d", degraded.Quality, degraded.RefinementsQueued)
		}
		waited := postLater(t, ts, q+"&wait_refined=30000", graphBody(t, beta))
		waitFor(func() bool { return s.inFlight.Load() == 1 })
		time.Sleep(20 * time.Millisecond) // let beta reach its wait
		close(unblock)
		got := <-waited
		if got.Quality != serenity.QualityOptimal {
			t.Fatalf("beta waited for the repair and got quality %q", got.Quality)
		}
		drainRefine(t, s.refine)
		refined, _ := postScheduleOK(t, ts, q, graphBody(t, alpha))
		if refined.Graph != alpha.Name || refined.Quality != serenity.QualityOptimal {
			t.Fatalf("alpha after the repair: graph %q quality %q", refined.Graph, refined.Quality)
		}
		wantOwnNames(t, got, refined, beta)
	})
}

// cacheEntry is the response-cache value a request without query parameters
// stores for g.
func cacheEntry(t *testing.T, s *server, g *serenity.Graph) *scheduleResponse {
	t.Helper()
	e, ok := s.cache.Get(scheduleKey(g.Fingerprint(), s.opts, 0, false))
	if !ok {
		t.Fatalf("no cache entry for %q", g.Name)
	}
	return e
}

// TestCacheEntriesHoldNoGraph pins the entry layout and who fills the
// rewritten-graph slot: a compile stores an answer without a graph, the key's
// first hit fills that key's slot alone, and a 304 fills nothing.
func TestCacheEntriesHoldNoGraph(t *testing.T) {
	s, ts := testServer(t)
	const n = 4
	var graphs [n]*serenity.Graph
	var tags [n]string
	for i := range graphs {
		// Distinct structures: each stacks a different number of cells.
		b := serenity.NewBuilder(fmt.Sprintf("stack-%d", i))
		x := b.Input(serenity.Shape{1, 16, 16, 4})
		for c := 0; c <= i; c++ {
			l := b.Conv(x, 8, 3, 1, serenity.PadSame)
			r := b.Conv(x, 8, 3, 1, serenity.PadSame)
			x = b.Conv(b.Concat(l, r), 4, 3, 1, serenity.PadSame)
		}
		graphs[i] = b.Graph()
		r, resp := postScheduleOK(t, ts, "", graphBody(t, graphs[i]))
		if r.Cached || r.Rewrites == 0 || r.RewrittenGraph == nil {
			t.Fatalf("graph %d: cached=%t rewrites=%d; want a fresh rewritten answer", i, r.Cached, r.Rewrites)
		}
		tags[i] = resp.Header.Get("ETag")
	}
	slotFilled := func(i int) bool { return cacheEntry(t, s, graphs[i]).rewritten.Load() != nil }
	for i, g := range graphs {
		e := cacheEntry(t, s, g)
		if e.RewrittenGraph != nil || e.Graph != "" {
			t.Errorf("entry %d holds graph %q and rewritten graph %v, want neither", i, e.Graph, e.RewrittenGraph != nil)
		}
		if e.rewritten == nil || slotFilled(i) {
			t.Errorf("entry %d: slot %v, want an empty slot after the compile alone", i, e.rewritten)
		}
	}

	// A conditional request that matches answers 304 and derives nothing.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/schedule", bytes.NewReader(graphBody(t, graphs[0])))
	req.Header.Set("If-None-Match", tags[0])
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match: status %d, want 304", resp.StatusCode)
	}
	for i := range graphs {
		if slotFilled(i) {
			t.Errorf("a 304 filled slot %d", i)
		}
	}

	// One hit fills exactly its own key's slot, under its names.
	if hit, _ := postScheduleOK(t, ts, "", graphBody(t, graphs[2])); !hit.Cached {
		t.Fatal("the repeat was not a cache hit")
	}
	for i := range graphs {
		if got, want := slotFilled(i), i == 2; got != want {
			t.Errorf("after one hit on key 2, slot %d filled = %t", i, got)
		}
	}
	if ng := cacheEntry(t, s, graphs[2]).rewritten.Load(); ng.names != namesDigest(graphs[2]) || ng.g.Name != graphs[2].Name+"+rewrite" {
		t.Errorf("slot 2 holds %q, derived under other names", ng.g.Name)
	}
}

// TestCachedHitBytesUnchanged: for a byte-identical request the hit is the
// compile's answer byte for byte apart from "cached" — what a response cache
// that pinned the compile's own rewritten graph served — whether it is the
// hit that fills the slot or one that reads it.
func TestCachedHitBytesUnchanged(t *testing.T) {
	_, ts := testServer(t)
	body := graphBody(t, rewritableCell(t, "alpha"))
	resp, cold := postSchedule(t, ts, "", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, cold)
	}
	want := bytes.Replace(cold, []byte(`"cached": false`), []byte(`"cached": true`), 1)
	if bytes.Equal(want, cold) {
		t.Fatal(`the compile's answer has no "cached": false`)
	}
	for i := 0; i < 2; i++ {
		if _, hit := postSchedule(t, ts, "", body); !bytes.Equal(hit, want) {
			t.Errorf("hit %d differs from the compile's answer:\n got: %.300s\nwant: %.300s", i, hit, want)
		}
	}
}

// TestConcurrentRenamedHits races hits under two name sets on one key whose
// slot starts empty — the fill, the reads and the renamed derivations all at
// once — and holds every answer byte-equal to the serial answer for its names.
func TestConcurrentRenamedHits(t *testing.T) {
	_, ts := testServer(t)
	if first, _ := postScheduleOK(t, ts, "", graphBody(t, rewritableCell(t, "gamma"))); first.Cached {
		t.Fatal("the first submission was served from the cache")
	}
	bodies := [2][]byte{graphBody(t, rewritableCell(t, "alpha")), graphBody(t, rewritableCell(t, "beta"))}
	const perName = 16
	var got [2][perName][]byte
	var wg sync.WaitGroup
	for k := range bodies {
		for i := 0; i < perName; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := ts.Client().Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(bodies[k]))
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				var buf bytes.Buffer
				if _, err := buf.ReadFrom(resp.Body); err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("status %d, read error %v", resp.StatusCode, err)
				}
				got[k][i] = buf.Bytes()
			}()
		}
	}
	wg.Wait()
	for k, body := range bodies {
		_, serial := postSchedule(t, ts, "", body)
		for i := range got[k] {
			if !bytes.Equal(got[k][i], serial) {
				t.Errorf("name set %d, concurrent hit %d differs from the serial answer", k, i)
			}
		}
	}
}

// TestSameNamesHitAllocatesNoGraph pins the hit path's cost once a key's slot
// is filled: respForClient returns its copy by value and reads the slot, so a
// same-names hit allocates nothing, graph or response.
func TestSameNamesHitAllocatesNoGraph(t *testing.T) {
	s, err := build(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	g := rewritableCell(t, "alpha")
	r, err := s.compute(t.Context(), g, s.opts, g.Fingerprint(), false, new(serenity.Workspace))
	if err != nil {
		t.Fatal(err)
	}
	entry, _ := s.putExact("k", r)
	if _, err := respForClient(entry, true, g); err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(50, func() { namesDigest(g) }); a != 0 {
		t.Errorf("namesDigest: %.0f allocations, want none", a)
	}
	if a := testing.AllocsPerRun(50, func() { _, _ = respForClient(entry, true, g) }); a != 0 {
		t.Errorf("a same-names hit: %.0f allocations, want none", a)
	}
}

// BenchmarkCachedHit measures one /v1/schedule cache hit through the handler,
// decode to encode, on a rewritable cell: "same-names" repeats the compiled
// request's bytes, so the hit reads the key's filled slot; "renamed" sends the
// same structure under other names, so every hit re-derives its rewritten
// graph.
func BenchmarkCachedHit(b *testing.B) {
	s, err := build(testConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer s.close()
	h := s.handler()
	post := func(body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.Bytes())
		}
		return w
	}
	alpha := graphBody(b, rewritableCell(b, "alpha"))
	post(alpha) // compile
	for _, bc := range []struct {
		name string
		body []byte
	}{
		{"same-names", alpha},
		{"renamed", graphBody(b, rewritableCell(b, "beta"))},
	} {
		b.Run(bc.name, func(b *testing.B) {
			post(bc.body)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				post(bc.body)
			}
		})
	}
}
