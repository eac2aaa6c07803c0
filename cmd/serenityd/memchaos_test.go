package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/pprof"
	"sync"
	"testing"
	"time"

	serenity "github.com/serenity-ml/serenity"
	"github.com/serenity-ml/serenity/internal/govern"
)

// checkGoroutines polls until the goroutine count returns to (about) the
// captured baseline, failing with a full goroutine dump if the shutdown path
// stranded anything — the governor watchdog, the refine requeue loop, or a
// worker blocked on a channel nobody will close.
func checkGoroutines(t *testing.T, baseline, slack int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+slack {
			return
		}
		if time.Now().After(deadline) {
			var buf bytes.Buffer
			_ = pprof.Lookup("goroutine").WriteTo(&buf, 1)
			t.Errorf("goroutine leak after shutdown: %d at start, %d now\n%s",
				baseline, runtime.NumGoroutine(), buf.String())
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// newMemChaosServer builds the full overload stack — segment memo, admission
// semaphore, memory governor with a live watchdog, and a refinement pool that
// parks under pressure — and registers shutdown plus a goroutine-leak check.
// The governor reads an injected zero heap load so the pressure level is
// driven purely by the reservation ledger: deterministic under the race
// detector regardless of how much the test binary itself has allocated.
func newMemChaosServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	// +2 of slack on the full stack: the runtime and the HTTP transport own
	// a couple of transient goroutines (GC workers, timer wakeups) that come
	// and go outside our control.
	baseline := runtime.NumGoroutine()
	t.Cleanup(func() { checkGoroutines(t, baseline, 2) })

	cfg := testConfig()
	cfg.cacheSize = 256
	cfg.compileSlots, cfg.admitQueue = 4, 16
	cfg.govern = govern.Options{
		Limit:          64 << 20,
		Headroom:       1,
		SampleInterval: 5 * time.Millisecond,
		ReadLoad:       func() int64 { return 0 },
	}
	cfg.refineOpts = serenity.RefinePoolOptions{Workers: 2, QueueDepth: 256, RequeueInterval: 2 * time.Millisecond}
	s, ts := startServer(t, cfg)
	if !s.gov.Enabled() {
		t.Fatal("chaos governor failed to enable")
	}
	return s, ts
}

// TestMemChaosSurvivesPressure is the OOM-chaos certification: seeded mixed
// traffic (exact, forced-degraded best-effort, batch) hammers the server
// while a chaos goroutine oscillates ballast reservations across the whole
// pressure ladder. The contract under fire: every response is 200, 429, or
// 503 — never a hung connection, never an unexplained 5xx — and every
// rejection carries Retry-After. Then pressure clears and the damage must be
// temporary: the pool drains, and a degraded answer repairs to a schedule
// bit-identical to an unpressured exact compilation.
func TestMemChaosSurvivesPressure(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is not short")
	}
	s, ts := newMemChaosServer(t)
	limit := s.gov.Stats().Limit

	// Small adversarial graphs: parallel chains with no articulation points,
	// so every request lands its whole frontier in one governed search.
	const nGraphs = 6
	bodies := make([][]byte, nGraphs)
	for i := range bodies {
		g := serenity.AdversarialWideGraph(fmt.Sprintf("adv-chaos-%d", i), 6, 3, 8, 4, int64(i))
		var buf bytes.Buffer
		if err := serenity.WriteGraphJSON(&buf, g); err != nil {
			t.Fatal(err)
		}
		bodies[i] = buf.Bytes()
	}

	post := func(path string, body []byte) (*http.Response, []byte, error) {
		resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			return nil, nil, err
		}
		data, err := readAllClose(resp)
		return resp, data, err
	}

	// The chaos goroutine: book 50–100% of the effective limit as ballast,
	// hold it a few milliseconds, release, breathe, repeat. Every tier of the
	// ladder is visited many times over the soak.
	chaosStop := make(chan struct{})
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-chaosStop:
				return
			default:
			}
			frac := 0.5 + 0.5*rng.Float64()
			ballast := s.gov.Reserve(int64(frac * float64(limit)))
			s.gov.Refresh()
			time.Sleep(time.Duration(2+rng.Intn(4)) * time.Millisecond)
			ballast.Release()
			s.gov.Refresh()
			time.Sleep(time.Duration(1+rng.Intn(3)) * time.Millisecond)
		}
	}()

	// Mixed traffic: 8 seeded workers, each interleaving interactive exact
	// requests, forced-degraded best-effort (so refinements keep flowing into
	// the parking lot), and 2-item batches (the first class shed at High).
	const (
		workers    = 8
		iterations = 30
	)
	var (
		mu       sync.Mutex
		statuses = map[int]int{}
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < iterations; i++ {
				body := bodies[rng.Intn(nGraphs)]
				var (
					resp *http.Response
					data []byte
					err  error
				)
				switch rng.Intn(3) {
				case 0:
					resp, data, err = post("/v1/schedule", body)
				case 1:
					resp, data, err = post("/v1/schedule?strategy=best-effort&deadline_ms=2000&degrade=force", body)
				default:
					batch, merr := json.Marshal(map[string]any{
						"items": []json.RawMessage{bodies[rng.Intn(nGraphs)], body},
					})
					if merr != nil {
						t.Error(merr)
						return
					}
					resp, data, err = post("/v1/schedule/batch", batch)
				}
				if err != nil {
					t.Errorf("worker %d: transport error: %v", seed, err)
					return
				}
				switch resp.StatusCode {
				case http.StatusOK:
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					if resp.Header.Get("Retry-After") == "" {
						t.Errorf("worker %d: %d rejection without Retry-After: %s", seed, resp.StatusCode, data)
					}
				default:
					t.Errorf("worker %d: status %d outside the overload contract: %s", seed, resp.StatusCode, data)
				}
				mu.Lock()
				statuses[resp.StatusCode]++
				mu.Unlock()
			}
		}(int64(100 + w))
	}
	wg.Wait()
	close(chaosStop)
	<-chaosDone

	// Deterministic rung checks after the random soak: hold Critical ballast
	// and certify both halves of the split — exact traffic answers a typed
	// 503 + Retry-After, best-effort degrades to 200 heuristic.
	for s.gov.Refresh() != govern.LevelNormal {
		time.Sleep(time.Millisecond)
	}
	crit := s.gov.Reserve(int64(0.97 * float64(limit)))
	if lvl := s.gov.Refresh(); lvl != govern.LevelCritical {
		t.Fatalf("critical ballast yields level %s", lvl)
	}
	var fresh bytes.Buffer
	if err := serenity.WriteGraphJSON(&fresh,
		serenity.AdversarialWideGraph("adv-chaos-fresh", 6, 3, 8, 4, 999)); err != nil {
		t.Fatal(err)
	}
	resp503, data503, err := post("/v1/schedule", fresh.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if resp503.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("exact under held critical ballast: status %d, want 503: %s", resp503.StatusCode, data503)
	}
	if resp503.Header.Get("Retry-After") == "" {
		t.Error("critical 503 missing Retry-After")
	}
	degraded, _ := postScheduleOK(t, ts, "?strategy=best-effort&deadline_ms=2000", fresh.Bytes())
	if degraded.Quality != serenity.QualityHeuristic {
		t.Fatalf("best-effort under critical ballast served quality %q, want heuristic", degraded.Quality)
	}
	crit.Release()

	// Recovery: pressure gone, parked refinements requeue and drain, and the
	// degraded answer repairs to exactly what an unpressured exact compile of
	// the same graph produces — order, peak, arena, bit for bit.
	deadline := time.Now().Add(10 * time.Second)
	for s.gov.Refresh() != govern.LevelNormal {
		if time.Now().After(deadline) {
			t.Fatalf("level stuck at %s after chaos: %+v", s.gov.Level(), s.gov.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	drainRefine(t, s.refine)
	refined, _ := postScheduleOK(t, ts, "?strategy=best-effort&deadline_ms=2000&wait_refined=30000", fresh.Bytes())
	if refined.Quality != serenity.QualityOptimal {
		t.Fatalf("degraded answer never repaired: quality %q", refined.Quality)
	}
	exact, _ := postScheduleOK(t, ts, "", fresh.Bytes())
	if exact.Peak != refined.Peak || exact.ArenaSize != refined.ArenaSize {
		t.Errorf("repaired peak/arena %d/%d diverged from exact %d/%d",
			refined.Peak, refined.ArenaSize, exact.Peak, exact.ArenaSize)
	}
	if fmt.Sprint(exact.Order) != fmt.Sprint(refined.Order) {
		t.Errorf("repaired order diverged from exact\nexact: %v\ngot:   %v", exact.Order, refined.Order)
	}

	if statuses[http.StatusOK] == 0 {
		t.Error("chaos soak produced no successful responses")
	}
	gs := s.gov.Stats()
	if gs.Degraded == 0 {
		t.Errorf("chaos never forced a degradation: %+v", gs)
	}
	t.Logf("chaos soak: statuses=%v governor=%+v refine=%+v", statuses, gs, s.refine.Stats())
}

// readAllClose drains and closes a response body.
func readAllClose(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

// TestGovernorShutdownNoLeak pins the watchdog lifecycle: Start launches one
// sampling goroutine, Stop retires it synchronously and is idempotent, and a
// second Start after Stop stays a no-op (startOnce), so shutdown never
// strands a ticker loop.
func TestGovernorShutdownNoLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	g := govern.New(govern.Options{
		Limit:          1 << 20,
		SampleInterval: time.Millisecond,
		ReadLoad:       func() int64 { return 0 },
	})
	if !g.Enabled() {
		t.Fatal("governor failed to enable")
	}
	g.Start()
	time.Sleep(5 * time.Millisecond) // let the watchdog tick
	g.Stop()
	g.Stop()  // idempotent
	g.Start() // post-Stop Start must not relaunch the watchdog
	// Zero slack: the watchdog is exactly one goroutine, so any residue here
	// is a real leak.
	checkGoroutines(t, before, 0)
}
