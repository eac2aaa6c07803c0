package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	serenity "github.com/serenity-ml/serenity"
	"github.com/serenity-ml/serenity/internal/trace"
)

// tracedServer is testServer plus admission and a refinement pool, so a
// trace shows its admission wait and refine.* lifecycle spans link back to
// the degraded request.
func tracedServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	cfg := testConfig()
	cfg.compileSlots, cfg.admitQueue = 4, 64
	cfg.refineOpts = serenity.RefinePoolOptions{Workers: 1, QueueDepth: 64}
	return startServer(t, cfg)
}

// flattenTree collects every span name in a rendered tree, and returns the
// nodes by name for attribute assertions (last writer wins per name).
func flattenTree(nodes []*trace.Node, names map[string][]*trace.Node) {
	for _, n := range nodes {
		names[n.Name] = append(names[n.Name], n)
		flattenTree(n.Children, names)
	}
}

// TestDebugTraceInlineSpanTree pins the ?debug=trace contract on a cold
// compile: the response carries the request's full span tree inline —
// admission wait, all four pipeline stages, and a per-segment memo-tier walk
// ending in a DP search span with its counters.
func TestDebugTraceInlineSpanTree(t *testing.T) {
	_, ts := tracedServer(t)
	body := graphBody(t, smallCell(91))
	sr, _ := postScheduleOK(t, ts, "?debug=trace", body)
	if sr.Trace == nil {
		t.Fatal("?debug=trace response carried no inline trace")
	}
	if len(sr.Trace.TraceID) != 32 {
		t.Fatalf("trace_id %q is not 32 hex chars", sr.Trace.TraceID)
	}
	names := map[string][]*trace.Node{}
	flattenTree(sr.Trace.Spans, names)
	for _, want := range []string{
		"schedule", "admission.wait",
		"stage.rewrite", "stage.partition", "stage.search", "stage.alloc",
		"segment", "dp.search",
	} {
		if len(names[want]) == 0 {
			t.Errorf("span %q missing from inline trace (have %v)", want, spanNames(names))
		}
	}
	// Every segment reports how the memo answered it; a cold compile is all
	// fresh searches.
	for _, seg := range names["segment"] {
		if tier := seg.Attrs["memo_tier"]; tier != "fresh" {
			t.Errorf("cold segment memo_tier = %q, want \"fresh\"", tier)
		}
	}
	// The DP span carries the search counters the flight recorder and
	// exemplars lean on, and the soft budget it searched at.
	for _, dp := range names["dp.search"] {
		if dp.Attrs["states"] == "" || dp.Attrs["quality"] == "" {
			t.Errorf("dp.search span missing counters: %v", dp.Attrs)
		}
		for _, k := range []string{"budget_cap", "states_pruned", "forced"} {
			if dp.Attrs[k] == "" {
				t.Errorf("dp.search span missing budget attribute %q: %v", k, dp.Attrs)
			}
		}
	}
	// The traced compile seeded the search stage's exemplar under its own
	// trace ID, linking /metrics to the retained trace.
	_, metrics := getJSON(t, ts, "/metrics")
	exemplar := fmt.Sprintf(`serenityd_stage_exemplar_seconds{stage="search",trace_id=%q} `, sr.Trace.TraceID)
	if !bytes.Contains(metrics, []byte("\n"+exemplar)) {
		t.Errorf("/metrics has no line starting %q:\n%s", exemplar, metrics)
	}
}

func spanNames(names map[string][]*trace.Node) []string {
	out := make([]string, 0, len(names))
	for n := range names {
		out = append(out, n)
	}
	return out
}

// TestDegradedTraceRetainedWithRefinement is the flight-recorder acceptance
// path: a forced-degraded request's span tree is retrievable from
// GET /debug/traces after the fact, the flight recorder logged the fallback
// incident against the same trace ID, and once the background refinement
// drains, its linked refine.* spans appear in the retained trace.
func TestDegradedTraceRetainedWithRefinement(t *testing.T) {
	s, ts := tracedServer(t)
	body := graphBody(t, smallCell(92))
	sr, _ := postScheduleOK(t, ts, "?strategy=best-effort&degrade=force&debug=trace", body)
	if sr.Quality != serenity.QualityHeuristic || sr.Trace == nil {
		t.Fatalf("forced degrade: quality %q, trace %v", sr.Quality, sr.Trace)
	}
	id := sr.Trace.TraceID
	// Every degraded search says so on its own span, with the reason.
	inline := map[string][]*trace.Node{}
	flattenTree(sr.Trace.Spans, inline)
	if len(inline["dp.search"]) == 0 {
		t.Errorf("degraded inline trace has no dp.search span (have %v)", spanNames(inline))
	}
	for _, dp := range inline["dp.search"] {
		if dp.Attrs["fell_back"] != "true" || dp.Attrs["fallback_reason"] == "" {
			t.Errorf("degraded dp.search span: fell_back=%q fallback_reason=%q, want \"true\" and a reason",
				dp.Attrs["fell_back"], dp.Attrs["fallback_reason"])
		}
	}

	// The degraded trace survives tail-sampling and is listed once.
	listResp, listData := getJSON(t, ts, "/debug/traces")
	if listResp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/traces: %d", listResp.StatusCode)
	}
	var listing struct {
		Traces []trace.Summary `json:"traces"`
	}
	if err := json.Unmarshal(listData, &listing); err != nil {
		t.Fatal(err)
	}
	listed := 0
	for _, tr := range listing.Traces {
		if tr.ID.String() == id {
			listed++
			if !tr.Degraded {
				t.Error("retained trace not marked degraded")
			}
		}
	}
	if listed != 1 {
		t.Fatalf("degraded trace %s listed %d times in /debug/traces, want once", id, listed)
	}

	// The flight recorder snapshotted the fallback against this trace.
	_, incData := getJSON(t, ts, "/debug/incidents")
	var incidents struct {
		Incidents []trace.IncidentReport `json:"incidents"`
	}
	if err := json.Unmarshal(incData, &incidents); err != nil {
		t.Fatal(err)
	}
	incFound := false
	for _, rep := range incidents.Incidents {
		if rep.Reason == "fallback" && rep.TraceID == id {
			incFound = true
		}
	}
	if !incFound {
		t.Fatalf("no fallback incident recorded for trace %s: %+v", id, incidents.Incidents)
	}

	// After the background repair drains, the full tree — including the
	// linked refinement spans recorded AFTER the request finished — is
	// retrievable by ID.
	drainRefine(t, s.refine)
	getResp, getData := getJSON(t, ts, "/debug/traces/"+id)
	if getResp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/traces/%s: %d: %s", id, getResp.StatusCode, getData)
	}
	var full struct {
		TraceID  string        `json:"trace_id"`
		Degraded bool          `json:"degraded"`
		Spans    []*trace.Node `json:"spans"`
	}
	if err := json.Unmarshal(getData, &full); err != nil {
		t.Fatal(err)
	}
	if full.TraceID != id || !full.Degraded {
		t.Fatalf("retrieved trace = %+v", full)
	}
	names := map[string][]*trace.Node{}
	flattenTree(full.Spans, names)
	for _, want := range []string{"schedule", "stage.search", "refine.run"} {
		if len(names[want]) == 0 {
			t.Errorf("retained trace missing %q spans (have %v)", want, spanNames(names))
		}
	}

	// A miss stays a clean 404, not a served-error counter bump.
	errBefore := s.errored.Load()
	missResp, _ := getJSON(t, ts, "/debug/traces/ffffffffffffffffffffffffffffffff")
	if missResp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace miss answered %d, want 404", missResp.StatusCode)
	}
	if s.errored.Load() != errBefore {
		t.Error("a debug-endpoint miss bumped the served-error counter")
	}
}

// TestFleetTraceStitchesPeerServeSpans proves the fleet propagation contract
// on a two-node ring: a traced compile on the caller carries its traceparent
// on every peer fetch, and the owner records peer-serve child spans under
// the SAME trace ID — retrievable on the owner as a remote fragment.
func TestFleetTraceStitchesPeerServeSpans(t *testing.T) {
	opts := serenity.DefaultOptions()
	opts.StepTimeout = 2 * time.Second
	opts.Parallelism = 4
	nodes, err := newDrillFleet(opts, 2)
	defer func() {
		for _, n := range nodes {
			if n != nil {
				n.close()
			}
		}
	}()
	if err != nil {
		t.Fatal(err)
	}
	a, b := nodes[0], nodes[1]

	// Segment ownership splits across the ring, so scan a few graphs until
	// one has at least one A-owned segment — then B's compile must fetch it
	// from A, and the stitch is observable on both sides.
	for seed := int64(1); seed <= 8; seed++ {
		g := serenity.RandWireCell(fmt.Sprintf("rw-trace-stitch-%d", seed), 24, 4, 0.75, seed, 16, 8)
		body := graphBody(t, g)
		if _, err := drillPost(a.ts, body); err != nil {
			t.Fatal(err)
		}
		// Barrier on write-behind replication: B-owned segments land in B's
		// store, so B's only peer traffic is for A-owned keys.
		a.s.peers.Drain()

		resp, err := b.ts.Client().Post(b.ts.URL+"/v1/schedule?debug=trace", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var sr scheduleResponse
		derr := json.NewDecoder(resp.Body).Decode(&sr)
		resp.Body.Close()
		if derr != nil {
			t.Fatal(derr)
		}
		if resp.StatusCode != http.StatusOK || sr.Trace == nil {
			t.Fatalf("traced compile on B: status %d, trace %v", resp.StatusCode, sr.Trace)
		}
		names := map[string][]*trace.Node{}
		flattenTree(sr.Trace.Spans, names)
		if len(names["memo.peer"]) == 0 {
			// Every segment was B-owned; try a different graph.
			continue
		}

		// Caller side: the peer fetch is a child of the segment walk under
		// B's trace ID. Owner side: the same trace ID holds a remote
		// fragment with the peer-serve span A recorded.
		frag := a.s.tracer.Get(sr.Trace.TraceID)
		if frag == nil {
			t.Fatalf("owner holds no fragment for caller trace %s", sr.Trace.TraceID)
		}
		served := false
		for _, sp := range frag.Spans {
			if sp.Name == "peer.serve.segment" && sp.Remote {
				served = true
			}
		}
		if !served {
			t.Fatalf("owner fragment for %s has no remote peer.serve.segment span: %+v", sr.Trace.TraceID, frag.Spans)
		}
		// The fragment is also discoverable from the owner's listing.
		fragListed := false
		for _, sum := range a.s.tracer.Traces() {
			if sum.ID.String() == sr.Trace.TraceID && sum.Remote {
				fragListed = true
			}
		}
		if !fragListed {
			t.Error("owner's /debug/traces listing does not surface the remote fragment")
		}
		return
	}
	t.Fatal("no graph in 8 seeds produced a peer fetch; ring ownership never split")
}

// getJSON GETs a path off the test server and returns the response + body.
func getJSON(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}
