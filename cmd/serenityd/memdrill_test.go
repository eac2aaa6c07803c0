package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"testing"
	"time"

	serenity "github.com/serenity-ml/serenity"
	"github.com/serenity-ml/serenity/internal/govern"
)

// TestMemDrill is the self-asserting memory-pressure drill (CI runs it under
// a real GOMEMLIMIT=256MiB): it walks the governor's ladder rung by rung
// against an in-process server and verifies every shed and degradation the
// tiers promise, then releases the pressure and proves the damage was
// temporary — parked refinements drain, degraded answers repair to exact,
// and a replay of the baseline set costs zero fresh DP states.
//
// Pressure is driven through ballast reservations in the governor's own
// ledger rather than real allocations: deterministic, instant, and safe to
// run under a small GOMEMLIMIT (the point is to certify the ladder's
// behavior at each tier; the byte accounting that keeps individual searches
// inside their reservations is certified by the DP's differential tests).
// The workload is the adversarial wide-graph family — parallel independent
// chains with no internal articulation points, the topology whose DP
// frontier grows exponentially and cannot be partitioned away.
func TestMemDrill(t *testing.T) {
	cfg := testConfig()
	cfg.opts.StepTimeout = time.Second
	cfg.opts.Parallelism = runtime.GOMAXPROCS(0)
	cfg.cacheSize, cfg.segMemoSize = 256, 4096
	cfg.compileSlots, cfg.admitQueue = runtime.GOMAXPROCS(0), 64
	cfg.govern = govern.Options{Limit: 256 << 20}
	cfg.refineOpts = serenity.RefinePoolOptions{Workers: 1, QueueDepth: 256}
	s, ts := startServer(t, cfg)

	post := func(path string, body []byte) (int, []byte, http.Header) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, data, resp.Header
	}
	adversarial := func(name string, seed int64) []byte {
		return graphBody(t, serenity.AdversarialWideGraph(name, 8, 3, 8, 4, seed))
	}
	limit := s.gov.Stats().Limit

	// Phase 1 — baseline: compile the adversarial set under Normal pressure.
	// Every answer must be exact; this warms the memo for the zero-fresh-work
	// replay assertion at the end.
	baseline := make([][]byte, 4)
	for i := range baseline {
		baseline[i] = adversarial(fmt.Sprintf("adv-mem-base-%d", i), int64(100+i))
		code, data, _ := post("/v1/schedule", baseline[i])
		if code != http.StatusOK || !bytes.Contains(data, []byte(`"quality": "optimal"`)) {
			t.Fatalf("baseline compile %d: status %d, want 200 optimal: %s", i, code, data)
		}
	}
	t.Logf("baseline %d adversarial graphs compiled exact under %d-byte budget", len(baseline), limit)

	// ballast books a fraction of the effective limit straight into the
	// reservation ledger, stepping the sampled level deterministically to want.
	var held []*govern.Reservation
	release := func() {
		for _, r := range held {
			r.Release()
		}
		held = nil
		s.gov.Refresh()
	}
	defer release()
	ballast := func(frac float64, want govern.Level) {
		t.Helper()
		held = append(held, s.gov.Reserve(int64(frac*float64(limit))))
		if lvl := s.gov.Refresh(); lvl != want {
			t.Fatalf("ballast stacked to +%.0f%% yields level %s, want %s", 100*frac, lvl, want)
		}
	}

	// Phase 2 — Elevated: refinement work parks. Force a degraded answer so a
	// repair enqueues, then watch the pool shed it instead of running it.
	ballast(0.72, govern.LevelElevated)
	code, data, _ := post("/v1/schedule?strategy=best-effort&deadline_ms=2000&degrade=force", adversarial("adv-mem-degraded", 900))
	if code != http.StatusOK || !bytes.Contains(data, []byte(`"quality": "heuristic"`)) {
		t.Fatalf("forced degradation under elevated pressure: status %d: %s", code, data)
	}
	for parkDeadline := time.Now().Add(10 * time.Second); s.refine.Stats().Parked == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(parkDeadline) {
			t.Fatalf("refinements never parked under elevated pressure: %+v", s.refine.Stats())
		}
	}
	t.Logf("elevated tier parked %d refinement(s) (%d shed events)", s.refine.Stats().Parked, s.refine.Stats().Shed)

	// Phase 3 — High: batch admissions shed with 429 + Retry-After while
	// interactive singles still compile.
	ballast(0.15, govern.LevelHigh) // stacked on the elevated ballast: ~87%
	batchBody, err := json.Marshal(batchRequest{Items: []json.RawMessage{baseline[0], baseline[1]}})
	if err != nil {
		t.Fatal(err)
	}
	code, data, hdr := post("/v1/schedule/batch", batchBody)
	if code != http.StatusTooManyRequests {
		t.Fatalf("batch under high pressure: status %d, want 429: %s", code, data)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("batch 429 under high pressure carries no Retry-After")
	}
	// Interactive traffic still flows at High: the memo-warm baseline graph
	// answers 200 without a fresh search.
	if code, data, _ = post("/v1/schedule", baseline[0]); code != http.StatusOK {
		t.Fatalf("interactive request under high pressure: status %d: %s", code, data)
	}

	// Phase 4 — Critical: new searches get the floor reservation. Best-effort
	// degrades to its heuristic (200, repaired later); exact answers 503 +
	// Retry-After. Fresh fingerprints so neither can ride the memo.
	ballast(0.10, govern.LevelCritical) // ~97%
	criticalBE := adversarial("adv-mem-critical-be", 901)
	code, data, _ = post("/v1/schedule?strategy=best-effort&deadline_ms=2000", criticalBE)
	if code != http.StatusOK || !bytes.Contains(data, []byte(`"quality": "heuristic"`)) {
		t.Fatalf("best-effort under critical pressure: status %d, want 200 heuristic: %s", code, data)
	}
	code, data, hdr = post("/v1/schedule", adversarial("adv-mem-critical-exact", 902))
	if code != http.StatusServiceUnavailable {
		t.Fatalf("exact under critical pressure: status %d, want 503: %s", code, data)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("critical 503 carries no Retry-After")
	}
	gs := s.gov.Stats()
	if gs.Degraded == 0 {
		t.Errorf("critical tier recorded no forced degradation: %+v", gs)
	}

	// Phase 5 — release: pressure clears, parked refinements requeue and
	// drain, and every degraded answer repairs to exact.
	release()
	if lvl := s.gov.Level(); lvl != govern.LevelNormal {
		t.Fatalf("level %s after releasing all ballast, want normal", lvl)
	}
	drainRefine(t, s.refine)
	rs := s.refine.Stats()
	if rs.Shed == 0 || rs.Requeued == 0 {
		t.Fatalf("drill never exercised park/requeue: %+v", rs)
	}
	code, data, _ = post("/v1/schedule?strategy=best-effort&deadline_ms=2000&wait_refined=30000", criticalBE)
	if code != http.StatusOK || !bytes.Contains(data, []byte(`"quality": "optimal"`)) {
		t.Fatalf("critical-degraded graph not repaired after pressure cleared: status %d: %s", code, data)
	}

	// Replay the baseline set: every answer must come from cache/memo with
	// zero fresh DP work — pressure cost the process nothing durable.
	statesBefore := s.states.Load()
	for i, body := range baseline {
		code, data, _ = post("/v1/schedule", body)
		if code != http.StatusOK || !bytes.Contains(data, []byte(`"quality": "optimal"`)) {
			t.Fatalf("baseline replay %d: status %d, want 200 optimal: %s", i, code, data)
		}
	}
	if fresh := s.states.Load() - statesBefore; fresh != 0 {
		t.Fatalf("baseline replay explored %d fresh DP states, want 0", fresh)
	}
	t.Logf("pressure released; %d refinements requeued and drained, baseline replay cost 0 fresh states (sheds=%d, degraded=%d, grow denials=%d)",
		rs.Requeued, gs.Sheds+rs.Shed, gs.Degraded, gs.GrowDenied)
}
