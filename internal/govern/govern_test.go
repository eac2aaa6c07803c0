package govern

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// testGovernor builds a governor over a deterministic injected load.
func testGovernor(limit int64, load *int64, mu *sync.Mutex) *Governor {
	return New(Options{
		Limit:    limit,
		Headroom: 1, // effectively none; watermarks sit on limit-1
		ReadLoad: func() int64 {
			mu.Lock()
			defer mu.Unlock()
			return *load
		},
	})
}

func TestLadderTransitions(t *testing.T) {
	var mu sync.Mutex
	load := int64(0)
	g := testGovernor(1000, &load, &mu)
	eff := int64(999)
	set := func(v int64) {
		mu.Lock()
		load = v
		mu.Unlock()
		g.Refresh()
	}

	steps := []struct {
		load int64
		want Level
	}{
		{0, LevelNormal},
		{int64(0.70*float64(eff)) - 1, LevelNormal},
		{int64(0.70*float64(eff)) + 1, LevelElevated},
		{int64(0.85*float64(eff)) + 1, LevelHigh},
		{int64(0.95*float64(eff)) + 1, LevelCritical},
		{0, LevelNormal}, // pressure clears
	}
	for _, s := range steps {
		set(s.load)
		if got := g.Level(); got != s.want {
			t.Fatalf("load %d: level %v, want %v", s.load, got, s.want)
		}
	}
}

func TestReserveLedgerDrivesLevel(t *testing.T) {
	var mu sync.Mutex
	load := int64(0)
	g := testGovernor(1<<20, &load, &mu)

	// A reservation alone can escalate the level: the ledger counts toward
	// the watermarks even before the search allocates.
	r := g.Reserve(1 << 20)
	if got := g.Level(); got != LevelCritical {
		t.Fatalf("level after full-limit reservation: %v, want critical", got)
	}
	if s := g.Stats(); s.Reserved != 1<<20 {
		t.Fatalf("reserved %d, want %d", s.Reserved, 1<<20)
	}
	r.Release()
	if got := g.Level(); got != LevelNormal {
		t.Fatalf("level after release: %v, want normal", got)
	}
	r.Release() // idempotent
	if s := g.Stats(); s.Reserved != 0 {
		t.Fatalf("reserved %d after double release, want 0", s.Reserved)
	}
}

func TestReserveAtCriticalGrantsFloor(t *testing.T) {
	var mu sync.Mutex
	load := int64(1 << 20) // pin the heap at the limit
	g := testGovernor(1<<20, &load, &mu)
	g.Refresh()
	if g.Level() != LevelCritical {
		t.Fatalf("level %v, want critical", g.Level())
	}
	r := g.Reserve(4 << 20)
	defer r.Release()
	if lim := r.SearchLimit(); lim != floorReservation {
		t.Fatalf("critical-tier SearchLimit %d, want floor %d", lim, floorReservation)
	}
	if s := g.Stats(); s.Degraded != 1 {
		t.Fatalf("degraded count %d, want 1", s.Degraded)
	}
}

func TestGrowGrantsBelowHighDeniesAbove(t *testing.T) {
	var mu sync.Mutex
	load := int64(0)
	g := testGovernor(1<<20, &load, &mu)

	r := g.Reserve(minReservation)
	if lim := r.SearchLimit(); lim != minReservation {
		t.Fatalf("SearchLimit %d, want %d", lim, minReservation)
	}
	if got := r.Grow(2 * minReservation); got != 4*minReservation {
		t.Fatalf("grow granted %d, want %d", got, 4*minReservation)
	}
	if s := g.Stats(); s.Grows != 1 || s.Reserved != 4*minReservation {
		t.Fatalf("stats after grow: %+v", s)
	}

	mu.Lock()
	load = 1 << 20
	mu.Unlock()
	g.Refresh()
	if got := r.Grow(8 * minReservation); got != 0 {
		t.Fatalf("grow under pressure granted %d, want 0 (denied)", got)
	}
	if s := g.Stats(); s.GrowDenied != 1 {
		t.Fatalf("grow-denied count %d, want 1", s.GrowDenied)
	}
	r.Release()
	if s := g.Stats(); s.Reserved != 0 {
		t.Fatalf("reserved %d after release, want 0", s.Reserved)
	}
}

func TestDisabledGovernorIsTransparent(t *testing.T) {
	// Limit < 0 disables even when GOMEMLIMIT is set in the environment.
	g := New(Options{Limit: -1})
	if g.Enabled() {
		t.Fatal("negative limit should disable the governor")
	}
	if g.Level() != LevelNormal {
		t.Fatalf("disabled level %v, want normal", g.Level())
	}
	r := g.Reserve(1 << 40)
	if lim := r.SearchLimit(); lim != 0 {
		t.Fatalf("disabled SearchLimit %d, want 0 (unlimited)", lim)
	}
	if got := r.Grow(1 << 40); got != 1<<40 {
		t.Fatalf("disabled Grow %d, want pass-through", got)
	}
	r.Release()
	g.Start() // no-op
	g.Stop()

	var nilG *Governor
	nr := nilG.Reserve(123)
	if nr.SearchLimit() != 0 || nr.Grow(5) != 5 {
		t.Fatal("nil governor reservation should be unlimited")
	}
	nr.Release()
	nilG.NoteShed()
	if s := nilG.Stats(); s != (Stats{}) {
		t.Fatalf("nil governor stats %+v", s)
	}
}

func TestWatchdogSamplesAndShutsDown(t *testing.T) {
	before := runtime.NumGoroutine()
	var mu sync.Mutex
	load := int64(0)
	g := New(Options{
		Limit:          1000,
		Headroom:       1,
		SampleInterval: time.Millisecond,
		ReadLoad: func() int64 {
			mu.Lock()
			defer mu.Unlock()
			return load
		},
	})
	g.Start()
	g.Start() // idempotent
	mu.Lock()
	load = 999
	mu.Unlock()
	deadline := time.Now().Add(2 * time.Second)
	for g.Level() != LevelCritical {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never sampled the elevated load")
		}
		time.Sleep(time.Millisecond)
	}
	g.Stop()
	g.Stop() // idempotent
	deadline = time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d > %d before", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLiveHeapSampling(t *testing.T) {
	// Sanity-check the real runtime/metrics path: a governed process has a
	// nonzero live heap. The process holds a large object while sampling:
	// before the first GC only the heap-objects backstop answers, and the
	// runtime counts small objects there only once their span leaves a P's
	// cache, so a young process that has allocated nothing large can read 0.
	// A large object is counted the moment it is allocated.
	held := make([]byte, 1<<20)
	g := New(Options{Limit: 1 << 40})
	g.Refresh()
	if s := g.Stats(); s.Heap <= 0 {
		t.Fatalf("live heap sample %d, want > 0", s.Heap)
	}
	runtime.KeepAlive(held)
}
