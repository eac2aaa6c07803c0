package main

import (
	"fmt"
	"net/http"

	serenity "github.com/serenity-ml/serenity"
	"github.com/serenity-ml/serenity/internal/cache"
	"github.com/serenity-ml/serenity/internal/fleet"
	"github.com/serenity-ml/serenity/internal/govern"
)

// scrape is one /metrics request's snapshot: each component's Stats() read
// once, then handed to every family that reports from it. Absent components
// leave zero values behind; their families are either guarded off (on) or
// report zeros, exactly as the page always has.
type scrape struct {
	s    *server
	cs   cache.Stats
	ms   serenity.SegmentMemoStats
	ss   serenity.StoreStats
	rs   serenity.RefinePoolStats
	gs   govern.Stats
	ps   fleet.ClientStats
	hs   fleet.HealthStats
	fs   fleet.ServerStats
	ys   fleet.SyncerStats
	ring *fleet.Ring
}

func (s *server) scrape() *scrape {
	return &scrape{
		s: s, cs: s.cache.Stats(), gs: s.gov.Stats(), ring: s.ring.Load(),
		ms: statsOf(s.segMemo, (*serenity.SegmentMemo).Stats),
		ss: statsOf(s.store, (*serenity.ScheduleStore).Stats),
		rs: statsOf(s.refine, (*serenity.RefinePool).Stats),
		ps: statsOf(s.peers, (*fleet.Client).Stats),
		hs: statsOf(s.health, (*fleet.Health).Stats),
		fs: statsOf(s.peerSrv, (*fleet.Server).Stats),
		ys: statsOf(s.syncer, (*fleet.Syncer).Stats),
	}
}

// statsOf reads an optional component's stats, zero when it is absent.
func statsOf[C, S any](c *C, stats func(*C) S) (zero S) {
	if c == nil {
		return zero
	}
	return stats(c)
}

// sample is one exposition line of a family: an optional rendered label set
// and the value the family's format verb prints.
type sample struct {
	labels string
	v      any
}

// family is one row of the /metrics page. on, when non-nil, is the optional
// component's guard: a fleetless or ungoverned server omits those families
// entirely instead of exporting zeros.
type family struct {
	name, typ, help, format string
	on                      func(*scrape) bool
	samples                 func(*scrape) []sample
}

// one adapts a single unlabeled value to a family's samples.
func one(v func(*scrape) any) func(*scrape) []sample {
	return func(m *scrape) []sample { return []sample{{v: v(m)}} }
}

// perClass renders an admission family's fixed label set.
func perClass(v func(a *admission, c admitClass) int64) func(*scrape) []sample {
	return func(m *scrape) []sample {
		out := make([]sample, numClasses)
		for c := admitClass(0); c < numClasses; c++ {
			out[c] = sample{fmt.Sprintf("{class=%q}", c), v(m.s.admit, c)}
		}
		return out
	}
}

func hasGov(m *scrape) bool     { return m.s.gov.Enabled() }
func hasPeers(m *scrape) bool   { return m.s.peers != nil }
func hasPeerSrv(m *scrape) bool { return m.s.peerSrv != nil }
func hasSyncer(m *scrape) bool  { return m.s.syncer != nil }
func hasRing(m *scrape) bool    { return m.ring != nil }
func hasAdmit(m *scrape) bool   { return m.s.admit != nil }

// metricFamilies is the /metrics page, in exposition order. README
// §Observability lists the same families (TestMetricsReadmeInSync).
var metricFamilies = []family{
	{"serenityd_requests_total", "counter", "Schedule requests received, including rejected ones.", "%d", nil, one(func(m *scrape) any { return m.s.requests.Load() })},
	{"serenityd_in_flight_requests", "gauge", "Schedule requests currently executing.", "%d", nil, one(func(m *scrape) any { return m.s.inFlight.Load() })},
	{"serenityd_cache_hits_total", "counter", "Schedule cache hits.", "%d", nil, one(func(m *scrape) any { return m.cs.Hits })},
	{"serenityd_cache_misses_total", "counter", "Schedule cache lookups that missed; subtract coalesced requests for compilations actually run.", "%d", nil, one(func(m *scrape) any { return m.cs.Misses })},
	{"serenityd_cache_evictions_total", "counter", "Schedule cache evictions.", "%d", nil, one(func(m *scrape) any { return m.cs.Evictions })},
	{"serenityd_cache_entries", "gauge", "Schedule cache current size.", "%d", nil, one(func(m *scrape) any { return m.cs.Len })},
	{"serenityd_coalesced_requests_total", "counter", "Requests served by joining an identical in-flight compilation.", "%d", nil, one(func(m *scrape) any { return m.s.coalesced.Load() })},
	{"serenityd_states_explored_total", "counter", "DP states explored by non-cached compilations.", "%d", nil, one(func(m *scrape) any { return m.s.states.Load() })},
	{"serenityd_errors_total", "counter", "Requests answered with an error.", "%d", nil, one(func(m *scrape) any { return m.s.errored.Load() })},
	{"serenityd_canceled_requests_total", "counter", "Requests abandoned by the client mid-compile.", "%d", nil, one(func(m *scrape) any { return m.s.canceled.Load() })},
	{"serenityd_fallbacks_total", "counter", "Segments degraded from exact to heuristic search (strategy=best-effort).", "%d", nil, one(func(m *scrape) any { return m.s.fallbacks.Load() })},
	{"serenityd_heuristic_responses_total", "counter", "Non-cached compilations answered with a heuristic-quality schedule.", "%d", nil, one(func(m *scrape) any { return m.s.heuristic.Load() })},
	{"serenityd_stage_seconds_total", "counter", "Cumulative pipeline time per stage across non-cached compilations.", "%.6f", nil,
		func(m *scrape) (out []sample) {
			for i, st := range pipelineStages {
				out = append(out, sample{fmt.Sprintf("{stage=%q}", st), float64(m.s.stageNS[i].Load()) / 1e9})
			}
			return out
		}},
	// Exemplars: the latest traced compilation's per-stage time, labeled
	// with its trace ID so a dashboard can jump from the latency series to
	// GET /debug/traces/{trace_id}. A separate valid 0.0.4 series (the
	// `# {...}` exemplar suffix is OpenMetrics-only).
	{"serenityd_stage_exemplar_seconds", "gauge", "Per-stage time of the most recent traced compilation; trace_id keys into /debug/traces.", "%.6f", nil,
		func(m *scrape) (out []sample) {
			for i, st := range pipelineStages {
				if ex := m.s.exemplars[i].Load(); ex != nil {
					out = append(out, sample{fmt.Sprintf("{stage=%q,trace_id=%q}", st, ex.traceID), ex.seconds})
				}
			}
			return out
		}},
	{"serenityd_traces_retained", "gauge", "Traces currently retained in the /debug/traces ring (fleet fragments included).", "%d", nil, one(func(m *scrape) any { return len(m.s.tracer.Traces()) })},
	// DP core throughput: fresh states over cumulative search-stage time.
	// Cache hits skip the pipeline entirely; segment-memo hits add zero
	// states and only microseconds of lookup time to the denominator, so
	// the gauge tracks the core's crunch rate to within the memo's lookup
	// overhead (a slight under-read under heavily warmed traffic).
	{"serenityd_dp_states_per_second", "gauge", "Fresh DP states explored per second of cumulative search-stage time.", "%.1f", nil,
		one(func(m *scrape) any {
			searchSec := float64(m.s.stageNS[searchStage].Load()) / 1e9
			if searchSec <= 0 {
				return 0.0
			}
			return float64(m.s.states.Load()) / searchSec
		})},
	{"serenityd_dp_frontier_high_water", "gauge", "Largest DP frontier (coexisting signatures) any compilation has held.", "%d", nil, one(func(m *scrape) any { return m.s.frontierHigh.Load() })},
	{"serenityd_segment_memo_hits_total", "counter", "Segment searches served from the cross-request segment memo.", "%d", nil, one(func(m *scrape) any { return m.ms.Hits })},
	{"serenityd_segment_memo_misses_total", "counter", "Segment searches that ran because the memo had no entry.", "%d", nil, one(func(m *scrape) any { return m.ms.Misses })},
	{"serenityd_segment_memo_entries", "gauge", "Segment memo current size.", "%d", nil, one(func(m *scrape) any { return m.ms.Entries })},
	{"serenityd_store_hits_total", "counter", "Segment artifacts served from the persistent schedule store.", "%d", nil, one(func(m *scrape) any { return m.ss.Hits })},
	{"serenityd_store_misses_total", "counter", "Store lookups that fell through to a fresh search.", "%d", nil, one(func(m *scrape) any { return m.ss.Misses })},
	{"serenityd_store_writes_total", "counter", "Segment artifacts written through to the store.", "%d", nil, one(func(m *scrape) any { return m.ss.Writes })},
	{"serenityd_store_evictions_total", "counter", "Artifacts evicted to honor -store-max-bytes.", "%d", nil, one(func(m *scrape) any { return m.ss.Evictions })},
	{"serenityd_store_corrupt_records_total", "counter", "Store records dropped for failing CRC or artifact validation.", "%d", nil, one(func(m *scrape) any { return m.ss.CorruptRecords })},
	{"serenityd_store_bytes", "gauge", "Live bytes held by the persistent schedule store.", "%d", nil, one(func(m *scrape) any { return m.ss.LiveBytes })},
	{"serenityd_store_entries", "gauge", "Artifacts currently retrievable from the store.", "%d", nil, one(func(m *scrape) any { return m.ss.Entries })},
	{"serenityd_batch_requests_total", "counter", "Batch schedule requests received.", "%d", nil, one(func(m *scrape) any { return m.s.batches.Load() })},
	{"serenityd_batch_items_total", "counter", "Graphs submitted across all batch requests.", "%d", nil, one(func(m *scrape) any { return m.s.batchItem.Load() })},
	{"serenityd_refinements_queued_total", "counter", "Background refinements accepted into the repair queue.", "%d", nil, one(func(m *scrape) any { return m.rs.Queued })},
	{"serenityd_refinements_done_total", "counter", "Background refinements that completed and repaired their caches.", "%d", nil, one(func(m *scrape) any { return m.rs.Done })},
	{"serenityd_refinements_failed_total", "counter", "Background refinements that ran but errored; nothing was replaced.", "%d", nil, one(func(m *scrape) any { return m.rs.Failed })},
	{"serenityd_refinements_dropped_total", "counter", "Refinements shed without running: full queue, refused gate, or shutdown.", "%d", nil, one(func(m *scrape) any { return m.rs.Dropped })},
	{"serenityd_refinements_outstanding", "gauge", "Refinements queued or running right now.", "%d", nil, one(func(m *scrape) any { return m.rs.Outstanding })},
	{"serenityd_refinements_shed_total", "counter", "Refinements that had to wait out the memory governor's pressure signal before running.", "%d", nil, one(func(m *scrape) any { return m.rs.Shed })},
	{"serenityd_refinements_requeued_total", "counter", "Held refinements resumed after pressure cleared.", "%d", nil, one(func(m *scrape) any { return m.rs.Requeued })},
	{"serenityd_refinements_parked", "gauge", "Refinements a worker holds right now, waiting out memory pressure (at most -refine-workers).", "%d", nil, one(func(m *scrape) any { return m.rs.Parked })},

	{"serenityd_mem_limit_bytes", "gauge", "Effective byte budget the memory governor defends (limit minus headroom).", "%d", hasGov, one(func(m *scrape) any { return m.gs.Limit })},
	{"serenityd_mem_pressure_level", "gauge", "Current pressure tier: 0 normal, 1 elevated (refinement shed), 2 high (batch 429, grows denied), 3 critical (searches forced to degrade).", "%d", hasGov, one(func(m *scrape) any { return int(m.gs.Level) })},
	{"serenityd_mem_heap_bytes", "gauge", "Last sampled heap-live bytes.", "%d", hasGov, one(func(m *scrape) any { return m.gs.Heap })},
	{"serenityd_mem_reserved_bytes", "gauge", "Outstanding search reservation bytes in the governor's ledger.", "%d", hasGov, one(func(m *scrape) any { return m.gs.Reserved })},
	{"serenityd_mem_pressure_sheds_total", "counter", "Work units shed by the pressure ladder: batch 429s plus parked refinements.", "%d", hasGov, one(func(m *scrape) any { return m.gs.Sheds + m.rs.Shed })},
	{"serenityd_mem_pressure_degraded_total", "counter", "Searches forced down the degradation ladder by Critical pressure (heuristic fallback or 503).", "%d", hasGov, one(func(m *scrape) any { return m.gs.Degraded })},
	{"serenityd_mem_grows_total", "counter", "Mid-search reservation upgrades granted by the governor.", "%d", hasGov, one(func(m *scrape) any { return m.gs.Grows })},
	{"serenityd_mem_grow_denied_total", "counter", "Mid-search reservation upgrades denied at High pressure or above; the search aborted at its ceiling.", "%d", hasGov, one(func(m *scrape) any { return m.gs.GrowDenied })},

	{"serenityd_peer_hits_total", "counter", "Segment artifacts fetched from a fleet peer instead of a fresh search.", "%d", hasPeers, one(func(m *scrape) any { return m.ps.Hits })},
	{"serenityd_peer_misses_total", "counter", "Peer fetches that came back empty (404, dead peer, shed); the caller computed locally.", "%d", hasPeers, one(func(m *scrape) any { return m.ps.Misses })},
	{"serenityd_peer_timeouts_total", "counter", "Peer fetch attempts that ran out their per-attempt budget.", "%d", hasPeers, one(func(m *scrape) any { return m.ps.Timeouts })},
	{"serenityd_peer_replicated_total", "counter", "Locally computed artifacts pushed to their ring owners (write-behind).", "%d", hasPeers, one(func(m *scrape) any { return m.ps.Replicated })},
	{"serenityd_peer_replication_dropped_total", "counter", "Replication pushes shed (queue overflow, dead owner); anti-entropy heals them.", "%d", hasPeers, one(func(m *scrape) any { return m.ps.ReplicationDropped })},
	{"serenityd_peer_failovers_total", "counter", "Fetches and replications routed to a failover owner because the primary was unhealthy.", "%d", hasPeers, one(func(m *scrape) any { return m.ps.Failovers })},
	{"serenityd_peer_state", "gauge", "Per-peer health as seen from this node: 1 for the current state, 0 otherwise.", "%d", hasPeers,
		func(m *scrape) (out []sample) {
			snap := m.s.health.Snapshot()
			for _, peer := range m.s.health.Members() {
				for _, st := range fleet.States {
					v := 0
					if snap[peer] == st {
						v = 1
					}
					out = append(out, sample{fmt.Sprintf("{peer=%q,state=%q}", peer, st), v})
				}
			}
			return out
		}},
	{"serenityd_peer_probes_total", "counter", "Health probe attempts against fleet peers.", "%d", hasPeers, one(func(m *scrape) any { return m.hs.Probes })},
	{"serenityd_peer_probe_failures_total", "counter", "Health probes that failed (error, timeout, non-2xx).", "%d", hasPeers, one(func(m *scrape) any { return m.hs.Failures })},
	{"serenityd_peer_transitions_total", "counter", "Health state changes (demotions and revivals), from probes and fetch outcomes alike.", "%d", hasPeers, one(func(m *scrape) any { return m.hs.Transitions })},
	{"serenityd_peer_served_hits_total", "counter", "Peer artifact GETs this node answered with a payload.", "%d", hasPeerSrv, one(func(m *scrape) any { return m.fs.SegmentHits })},
	{"serenityd_peer_served_misses_total", "counter", "Peer artifact GETs this node answered 404.", "%d", hasPeerSrv, one(func(m *scrape) any { return m.fs.SegmentMisses })},
	{"serenityd_peer_shed_total", "counter", "Peer requests refused by the peer admission lane (-peer-slots).", "%d", hasPeerSrv, one(func(m *scrape) any { return m.fs.Shed })},
	{"serenityd_peer_sync_records_total", "counter", "Store records streamed out to peers' anti-entropy pulls.", "%d", hasPeerSrv, one(func(m *scrape) any { return m.fs.SyncRecords })},
	{"serenityd_peer_sync_rounds_total", "counter", "Anti-entropy rounds completed (including no-op ones).", "%d", hasSyncer, one(func(m *scrape) any { return m.ys.Rounds })},
	{"serenityd_peer_sync_pulled_total", "counter", "Store records imported from peers by anti-entropy.", "%d", hasSyncer, one(func(m *scrape) any { return m.ys.Pulled })},
	{"serenityd_peer_sync_errors_total", "counter", "Anti-entropy rounds that failed (unreachable peer, alien stream).", "%d", hasSyncer, one(func(m *scrape) any { return m.ys.Errors })},
	{"serenityd_peer_ring_members", "gauge", "Fleet membership size, this node included.", "%d", hasRing, one(func(m *scrape) any { return len(m.ring.Members()) })},
	{"serenityd_peer_ring_owned_share", "gauge", "Estimated fraction of the keyspace this node owns; far from 1/members means a misbalanced ring.", "%.4f", hasRing, one(func(m *scrape) any { return m.ring.OwnedShare(4096) })},

	{"serenityd_admission_admitted_total", "counter", "Compile-slot acquisitions granted, per priority class.", "%d", hasAdmit, perClass(func(a *admission, c admitClass) int64 { return a.admitted[c].Load() })},
	{"serenityd_admission_rejected_total", "counter", "Acquisitions rejected with 429 because the class queue was full.", "%d", hasAdmit, perClass(func(a *admission, c admitClass) int64 { return a.rejected[c].Load() })},
	{"serenityd_admission_waiting", "gauge", "Acquisitions currently queued for a compile slot, per priority class.", "%d", hasAdmit, perClass(func(a *admission, c admitClass) int64 { return a.waiting[c].Load() })},
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	m := s.scrape()
	for _, f := range metricFamilies {
		if f.on != nil && !f.on(m) {
			continue
		}
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, smp := range f.samples(m) {
			fmt.Fprintf(w, "%s%s "+f.format+"\n", f.name, smp.labels, smp.v)
		}
	}
}
