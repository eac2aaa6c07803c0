// Package govern implements serenityd's process-wide memory governor: a
// reservation ledger plus heap watermarks that convert memory pressure into
// bounded degradation instead of an OOM kill.
//
// Searches reserve an estimated byte footprint before running and upgrade it
// mid-search through a callback wired into the DP's MemGrow hook; the
// governor tracks sampled heap liveness (runtime/metrics) plus outstanding
// reservations against watermarks derived from GOMEMLIMIT (or an explicit
// limit) and publishes a pressure level:
//
//	Normal   — everything admitted.
//	Elevated — refinement work is shed (parked, re-enqueued when clear).
//	High     — batch admissions are rejected with 429; mid-search memory
//	           upgrades are denied, so running searches abort at their
//	           reserved ceiling instead of growing.
//	Critical — new searches are granted a floor reservation that aborts
//	           immediately, forcing interactive best-effort traffic down to
//	           its heuristic fallback (serve-then-refine repairs the result
//	           to bit-identical optimal once pressure clears).
//
// The ladder never touches correctness: every degradation it forces flows
// through paths that already guarantee feasible schedules, and the pressure
// signal is advisory — the hard per-search guarantee is the DP's own
// MemLimit valve, which the reservations parameterize.
//
// Not everything the live-heap sample sees is reserved. The DP keeps up to
// two idle working sets between searches (level buffers, frontier table,
// history, per-node masks; see internal/dp), each capped under 1 MiB, so up
// to 2 MiB of the sampled heap is retained search memory that no
// reservation covers. It is real heap and counts toward every watermark;
// a search that runs on a retained set still reserves its full estimate.
package govern

import (
	"math"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// Level is the governor's pressure tier.
type Level int32

// Pressure tiers, in escalation order.
const (
	LevelNormal Level = iota
	LevelElevated
	LevelHigh
	LevelCritical
)

// String renders the tier for metrics and logs.
func (l Level) String() string {
	switch l {
	case LevelNormal:
		return "normal"
	case LevelElevated:
		return "elevated"
	case LevelHigh:
		return "high"
	case LevelCritical:
		return "critical"
	}
	return "unknown"
}

// Defaults for Options zero values.
const (
	defaultSampleInterval = 100 * time.Millisecond
	// The watermarks, as fractions of the effective limit (Limit - Headroom).
	elevatedFrac = 0.70
	highFrac     = 0.85
	criticalFrac = 0.95
	// minReservation floors what Reserve grants below Critical, so a search
	// whose caller underestimated still gets room for a modest frontier.
	minReservation = 256 << 10
	// floorReservation is the Critical-tier grant: below even the DP's
	// level-0 accounting, so a governed search aborts before expanding.
	floorReservation = 1
)

// Options configures a Governor.
type Options struct {
	// Limit is the byte budget the governor defends. Zero derives it from
	// GOMEMLIMIT (debug.SetMemoryLimit); if that is unset too, the governor
	// is disabled: level stays Normal and reservations are unlimited.
	Limit int64
	// Headroom is subtracted from Limit before watermarks are computed —
	// slack for the runtime, request buffers, and everything the ledger
	// does not see. Defaults to Limit/16.
	Headroom int64
	// SampleInterval is the heap sampling cadence of the Start watchdog.
	// Defaults to 100ms.
	SampleInterval time.Duration
	// ReadLoad, when non-nil, replaces the runtime/metrics heap sample —
	// injectable load for deterministic tests and drills.
	ReadLoad func() int64
}

// Governor is the process-wide memory governor. All methods are safe for
// concurrent use.
type Governor struct {
	opts      Options
	limit     int64 // effective limit: Limit - Headroom; 0 = disabled
	elevated  int64
	high      int64
	critical  int64
	heap      atomic.Int64 // last sampled heap-live bytes
	reserved  atomic.Int64 // outstanding reservation bytes
	level     atomic.Int32
	sheds     atomic.Int64 // pressure-shed admissions (batch 429s, refine parks)
	degraded  atomic.Int64 // searches forced to degrade by the ladder
	grows     atomic.Int64 // mid-search upgrades granted
	growDeny  atomic.Int64 // mid-search upgrades denied
	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	wg        sync.WaitGroup
}

// New builds a governor. It does not start the sampling watchdog; call
// Start (and Stop on shutdown) for live heap tracking, or drive Refresh
// manually.
func New(opts Options) *Governor {
	limit := opts.Limit
	if limit == 0 {
		// debug.SetMemoryLimit(-1) reports the current GOMEMLIMIT without
		// changing it; MaxInt64 means unset.
		if ml := debug.SetMemoryLimit(-1); ml > 0 && ml < math.MaxInt64 {
			limit = ml
		}
	}
	g := &Governor{opts: opts, stop: make(chan struct{})}
	if limit <= 0 {
		return g // disabled
	}
	head := opts.Headroom
	if head <= 0 {
		head = limit / 16
	}
	eff := limit - head
	if eff <= 0 {
		eff = limit
	}
	g.limit = eff
	g.elevated = int64(elevatedFrac * float64(eff))
	g.high = int64(highFrac * float64(eff))
	g.critical = int64(criticalFrac * float64(eff))
	g.Refresh()
	return g
}

// Enabled reports whether the governor has a byte budget to defend. Safe on
// a nil receiver, like Level, Reserve, and Stats, so call sites configured
// without a governor need no guards.
func (g *Governor) Enabled() bool { return g != nil && g.limit > 0 }

// readHeap samples live-heap bytes: what the previous GC marked reachable —
// the closest runtime analogue of "what a memory limit kills you over",
// without the double-count of free spans. Before the first GC that metric
// reads zero, so heap-objects-in-use backstops it.
func readHeap() int64 {
	s := []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		if v := int64(s[0].Value.Uint64()); v > 0 {
			return v
		}
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		return int64(s[1].Value.Uint64())
	}
	return 0
}

// Refresh samples the heap (or the injected ReadLoad) and recomputes the
// pressure level. Start's watchdog calls it on every tick; tests and drills
// call it directly for deterministic transitions.
func (g *Governor) Refresh() Level {
	if !g.Enabled() {
		return LevelNormal
	}
	var h int64
	if g.opts.ReadLoad != nil {
		h = g.opts.ReadLoad()
	} else {
		h = readHeap()
	}
	g.heap.Store(h)
	return g.recompute()
}

// recompute rederives the level from the last heap sample plus outstanding
// reservations. Reservations are upper bounds on additional retention, so
// the sum is conservative — the governor sheds slightly early rather than
// slightly late.
func (g *Governor) recompute() Level {
	load := g.heap.Load() + g.reserved.Load()
	lvl := LevelNormal
	switch {
	case load >= g.critical:
		lvl = LevelCritical
	case load >= g.high:
		lvl = LevelHigh
	case load >= g.elevated:
		lvl = LevelElevated
	}
	g.level.Store(int32(lvl))
	return lvl
}

// Level returns the current pressure tier.
func (g *Governor) Level() Level {
	if !g.Enabled() {
		return LevelNormal
	}
	return Level(g.level.Load())
}

// Start launches the sampling watchdog. Safe to call once; Stop shuts it
// down and waits for the goroutine to exit.
func (g *Governor) Start() {
	if !g.Enabled() {
		return
	}
	g.startOnce.Do(func() {
		iv := g.opts.SampleInterval
		if iv <= 0 {
			iv = defaultSampleInterval
		}
		g.wg.Add(1)
		go func() {
			defer g.wg.Done()
			t := time.NewTicker(iv)
			defer t.Stop()
			for {
				select {
				case <-g.stop:
					return
				case <-t.C:
					g.Refresh()
				}
			}
		}()
	})
}

// Stop terminates the watchdog and blocks until it has exited. Idempotent.
func (g *Governor) Stop() {
	g.stopOnce.Do(func() { close(g.stop) })
	g.wg.Wait()
}

// Reservation is one search's admitted byte budget. Its methods match the
// root package's SearchReservation contract: SearchLimit seeds the DP's
// MemLimit, Grow is its MemGrow hook, Release returns the bytes.
type Reservation struct {
	g        *Governor
	granted  int64
	released atomic.Bool
	// Per-reservation lifecycle counters, reported by Grows/Denied so a
	// trace span can attribute governor activity to one specific search
	// (the Governor's own counters are process-wide aggregates).
	grows  atomic.Int64
	denied atomic.Int64
}

// Reserve admits a search expected to retain about estimate bytes. It never
// refuses: below Critical it books max(estimate, 256KiB) into the ledger;
// at Critical it grants a floor so small the DP aborts before expanding —
// the caller's memory-pressure fallback (heuristic degradation or a typed
// 503) takes over from there. A nil *Governor or a disabled governor grants
// an unlimited reservation, so call sites need no nil checks.
func (g *Governor) Reserve(estimate int64) *Reservation {
	if g == nil || !g.Enabled() {
		return &Reservation{}
	}
	var grant int64
	if g.Level() >= LevelCritical {
		grant = floorReservation
		g.degraded.Add(1)
	} else {
		grant = estimate
		if grant < minReservation {
			grant = minReservation
		}
	}
	g.reserved.Add(grant)
	g.recompute()
	return &Reservation{g: g, granted: grant}
}

// SearchLimit is the byte ceiling to run the search under: the granted
// reservation, or 0 (unlimited) for an ungoverned reservation.
func (r *Reservation) SearchLimit() int64 {
	if r.g == nil {
		return 0
	}
	return r.granted
}

// Grow asks the governor to raise this reservation's ceiling to at least
// needed bytes mid-search. At High pressure or above the upgrade is denied
// (returns 0) and the search aborts at its current ceiling; otherwise the
// ledger books double the ask — headroom so the next level or two do not
// immediately re-consult — and the new ceiling is returned.
func (r *Reservation) Grow(needed int64) int64 {
	if r.g == nil {
		return needed // ungoverned: always grant
	}
	if r.g.Level() >= LevelHigh {
		r.g.growDeny.Add(1)
		r.denied.Add(1)
		return 0
	}
	newLimit := 2 * needed
	if newLimit < needed { // overflow
		newLimit = needed
	}
	r.g.reserved.Add(newLimit - r.granted)
	r.granted = newLimit
	r.g.grows.Add(1)
	r.grows.Add(1)
	r.g.recompute()
	return newLimit
}

// Grows reports how many mid-search ceiling raises this reservation was
// granted; Denied how many were refused under pressure. Both exist for
// per-search attribution (trace spans); the Governor's Stats aggregate the
// same events process-wide.
func (r *Reservation) Grows() int64  { return r.grows.Load() }
func (r *Reservation) Denied() int64 { return r.denied.Load() }

// Release returns the reservation to the ledger. Idempotent.
func (r *Reservation) Release() {
	if r.g == nil || !r.released.CompareAndSwap(false, true) {
		return
	}
	r.g.reserved.Add(-r.granted)
	r.g.recompute()
}

// NoteShed records one unit of work shed because of pressure (a batch 429,
// a parked refinement).
func (g *Governor) NoteShed() {
	if g != nil {
		g.sheds.Add(1)
	}
}

// Stats is a point-in-time snapshot for metrics and logs.
type Stats struct {
	Limit      int64 // effective limit the watermarks divide (0 = disabled)
	Heap       int64 // last sampled heap-live bytes
	Reserved   int64 // outstanding reservation bytes
	Level      Level
	Sheds      int64
	Degraded   int64
	Grows      int64
	GrowDenied int64
}

// Stats snapshots the governor.
func (g *Governor) Stats() Stats {
	if g == nil {
		return Stats{}
	}
	return Stats{
		Limit:      g.limit,
		Heap:       g.heap.Load(),
		Reserved:   g.reserved.Load(),
		Level:      g.Level(),
		Sheds:      g.sheds.Load(),
		Degraded:   g.degraded.Load(),
		Grows:      g.grows.Load(),
		GrowDenied: g.growDeny.Load(),
	}
}
