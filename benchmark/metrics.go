package main

import "strings"

// The metric catalogue. BENCHMARK.json declares the same names, units and
// directions (TestCatalogueMatchesBenchmarkJSON keeps the two in step); this
// table adds what the JSON schema has no room for: each per-layer metric's
// layer, where the number comes from, and which end-to-end metric on which
// workload it is expected to move.

// e2eMetric is one end-to-end metric: what a user of serenityd would see.
type e2eMetric struct {
	name, unit, better string
	bound              float64 // share of the parent's median it may worsen by
	what               string
}

var e2eMetrics = []e2eMetric{
	{"setup_s", "s", "lower", 0.25, "first process spawn → start of the measured phase (readiness, preload, restarts, replication drain); median over the run's set-ups; go build excluded"},
	{"throughput_rps", "req/s", "higher", 0.25, "validated-OK responses ÷ measured wall time"},
	{"latency_p50_ms", "ms", "lower", 0.25, "closed loop: send → last body byte; open loop: due time → last body byte, as the median over six consecutive slices of the run of each slice's p50"},
	{"latency_p95_ms", "ms", "lower", 0.25, "same samples (and, for the open loop, slices) as latency_p50_ms"},
	{"server_cpu_ms_per_req", "ms", "lower", 0.25, "Δ(utime+stime) of every serenityd over the measured phase ÷ requests attempted"},
	{"server_peak_rss_mb", "MiB", "lower", 0.25, "Σ VmHWM over the serenityd roles at the end of the run"},
	{"ok_share", "ratio", "higher", 0.001, "1 − (transport error + unexpected status + failed validation) ÷ attempted; the issue's failed_share, turned so that it is never 0"},
	{"peak_reduction_geomean", "x", "higher", 0.05, "geometric mean over OK responses of baseline_peak ÷ peak: the paper's headline, guarding against faster-by-scheduling-worse"},
	{"optimal_share", "ratio", "higher", 0.001, "OK responses with quality optimal ÷ OK responses"},
}

// move names one end-to-end metric on one workload.
type move struct{ metric, workload string }

// source says where a per-layer number comes from.
type source string

const (
	srcReplay  source = "R" // spans around the layer's public functions in the replay pass
	srcMetrics source = "M" // Δ of /metrics counters over the measured phase
	srcJSON    source = "J" // fields of the response JSON
	srcProc    source = "P" // /proc and the harness's own clocks
	srcHTTP    source = "H" // client-side timing of the HTTP run
)

// layerMetric is one per-layer metric. Its layer is the name's prefix, which
// is the module's name.
type layerMetric struct {
	name, unit, better string
	src                source
	moves              []move // what it should move; never empty
	what               string
}

func (l layerMetric) layer() string {
	layer, _, _ := strings.Cut(l.name, ".")
	return layer
}

// Shorthands for the interaction table below.
var (
	p50Warm   = move{"latency_p50_ms", "warm-memo"}
	cpuWarm   = move{"server_cpu_ms_per_req", "warm-memo"}
	p50Mixed  = move{"latency_p50_ms", "mixed-open"}
	p95Mixed  = move{"latency_p95_ms", "mixed-open"}
	rpsCold   = move{"throughput_rps", "cold-search"}
	p50Cold   = move{"latency_p50_ms", "cold-search"}
	p95Cold   = move{"latency_p95_ms", "cold-search"}
	rssCold   = move{"server_peak_rss_mb", "cold-search"}
	cpuCold   = move{"server_cpu_ms_per_req", "cold-search"}
	redCold   = move{"peak_reduction_geomean", "cold-search"}
	p50Disk   = move{"latency_p50_ms", "disk-restart"}
	rpsDisk   = move{"throughput_rps", "disk-restart"}
	setupDisk = move{"setup_s", "disk-restart"}
	p50Fleet  = move{"latency_p50_ms", "peer-fleet"}
	p95Fleet  = move{"latency_p95_ms", "peer-fleet"}
	setupFlt  = move{"setup_s", "peer-fleet"}
	okMixed   = move{"ok_share", "mixed-open"}
)

var layerMetrics = []layerMetric{
	// graph: most of a hot request; under 2% of a cold one.
	{"graph.decode_us", "us", "lower", srcReplay, []move{p50Warm, cpuWarm, p50Mixed}, "graph.ReadJSON of one request body, p50"},
	{"graph.decode_mb_per_s", "MB/s", "higher", srcReplay, []move{p50Warm, cpuWarm}, "request bytes decoded ÷ time in graph.ReadJSON"},
	{"graph.fingerprint_us", "us", "lower", srcReplay, []move{p50Warm, cpuWarm, p50Mixed}, "Graph.Fingerprint of the decoded graph, p50"},
	{"graph.request_bytes_p50", "B", "lower", srcJSON, []move{p50Warm}, "size of the request bodies sent"},

	{"rewrite.time_us", "us", "lower", srcReplay, []move{p50Warm}, "rewrite.RewriteAll with the default rules, p50 (paid by segwarm, not by hot)"},
	{"rewrite.sites_per_graph", "count", "higher", srcJSON, []move{redCold, {"peak_reduction_geomean", "warm-memo"}}, "mean `rewrites` of OK responses"},
	{"rewrite.nodes_after", "count", "lower", srcJSON, []move{rpsCold}, "mean `nodes` of OK responses: the graph the DP actually searches"},

	{"partition.time_us", "us", "lower", srcReplay, []move{p50Warm}, "partition.Split of the rewritten graph, p50"},
	{"partition.segments_per_graph", "count", "higher", srcJSON, []move{p50Warm}, "mean len(partition_sizes) of OK responses"},
	{"partition.max_segment_nodes", "count", "lower", srcJSON, []move{rpsCold, p95Cold}, "largest partition_sizes entry seen: bounds the DP's cost"},

	// dp: the only layer that matters on cold-search; reads 0 where nothing is searched.
	{"dp.search_ms_per_graph", "ms", "lower", srcReplay, []move{rpsCold, p50Cold, p95Cold}, "Σ dp.AdaptiveSchedule time over a graph's segments, mean over searched graphs"},
	{"dp.states_per_s", "1/s", "higher", srcReplay, []move{rpsCold}, "states explored ÷ time inside the DP, over the replayed searches"},
	{"dp.states_per_graph", "count", "lower", srcJSON, []move{rpsCold, p95Cold}, "mean `states_explored` of OK responses (hits replay the stored count)"},
	{"dp.max_frontier", "count", "lower", srcJSON, []move{rssCold}, "largest `max_frontier` of any response"},
	{"dp.peak_bytes_per_state", "B", "lower", srcReplay, []move{rssCold}, "dp.Result.PeakBytes ÷ MaxFrontier, mean over replayed searches"},
	{"dp.allocs_per_search", "count", "lower", srcReplay, []move{cpuCold}, "heap allocations during one replayed search, p50"},
	{"dp.fresh_states_per_req", "count", "lower", srcMetrics, []move{rpsCold, {"throughput_rps", "mixed-open"}}, "Δserenityd_states_explored_total ÷ attempted; exactly 0 on warm-memo, disk-restart, peer-fleet"},

	{"sched.baseline_us", "us", "lower", srcReplay, []move{p50Warm}, "sched.KahnFIFO + MemModel.Peak, paid by every uncached request, p50"},
	{"sched.greedy_us", "us", "lower", srcReplay, []move{p95Mixed}, "sched.GreedyMemoryRun per degraded graph, p50; 0 without a degraded class"},

	{"alloc.plan_us", "us", "lower", srcReplay, []move{p50Warm, p50Disk, p50Fleet}, "alloc.Plan of the final order, p50"},
	{"alloc.fragmentation_pct", "%", "lower", srcJSON, []move{redCold}, "mean arena_size ÷ peak − 1 of OK responses"},

	{"cache.lru_get_ns", "ns", "lower", srcReplay, []move{p50Warm}, "cache.Cache.Get on a 256-entry LRU; expected negligible, and the number says so"},
	{"cache.lru_put_ns", "ns", "lower", srcReplay, []move{p50Warm}, "cache.Cache.Put with eviction"},
	{"cache.coalesced_share", "ratio", "higher", srcMetrics, []move{p50Mixed}, "Δserenityd_coalesced_requests_total ÷ attempted"},

	{"segmemo.warm_search_us_per_segment", "us", "lower", srcReplay, []move{p50Warm, p50Mixed}, "Result.Stages.Search ÷ segments on an all-memory-hit Pipeline.Run, p50"},
	{"segmemo.hit_share", "ratio", "higher", srcMetrics, []move{p50Warm}, "memory-tier hits ÷ segment lookups on the target server"},
	{"segmemo.miss_walk_us", "us", "lower", srcReplay, []move{p50Cold}, "Stages.Search ÷ segments on an all-miss run whose searcher only replays known orders: the tier walk without the DP"},

	{"store.get_us", "us", "lower", srcReplay, []move{p50Disk, rpsDisk}, "ScheduleStore.GetArtifact of one segment key, p50"},
	{"store.put_us", "us", "lower", srcReplay, []move{cpuCold}, "ScheduleStore.PutArtifact of one segment artifact, p50"},
	{"store.codec_marshal_ns", "ns", "lower", srcReplay, []move{cpuCold}, "MarshalSegmentArtifact, per call"},
	{"store.codec_unmarshal_ns", "ns", "lower", srcReplay, []move{p50Disk, p50Fleet}, "UnmarshalSegmentArtifact, per call"},
	{"store.artifact_bytes_p50", "B", "lower", srcReplay, []move{p50Disk, p50Fleet}, "size of one marshalled segment artifact"},
	{"store.disk_hit_share", "ratio", "higher", srcMetrics, []move{p50Disk, rpsDisk}, "Δstore hits ÷ Δ(store hits + misses); 1 on disk-restart"},
	{"store.disk_warm_search_us_per_segment", "us", "lower", srcReplay, []move{p50Disk, rpsDisk}, "Stages.Search ÷ segments on a Pipeline.Run over a reopened store and an empty memo, p50"},
	{"store.restart_ready_ms", "ms", "lower", srcProc, []move{setupDisk, setupFlt}, "SIGTERM → /readyz 200 of a server restarted on its store, median"},

	{"fleet.fetch_rtt_us", "us", "lower", srcReplay, []move{p50Fleet, p95Fleet}, "fleet.Client.Fetch of one artifact from its owner over loopback HTTP, p50"},
	{"fleet.peer_hit_share", "ratio", "higher", srcMetrics, []move{p50Fleet}, "Δpeer hits ÷ segment lookups that missed memory on B; about 2/3 on peer-fleet"},
	{"fleet.peer_timeouts", "count", "lower", srcMetrics, []move{p95Fleet}, "Δserenityd_peer_timeouts_total on B"},
	{"fleet.replication_drain_ms", "ms", "lower", srcProc, []move{setupFlt}, "end of A's compiles → A's replication counter at rest"},
	{"fleet.ring_owner_ns", "ns", "lower", srcReplay, []move{p50Fleet}, "fleet.Ring.Owner of one segment key"},

	{"govern.reserve_release_ns", "ns", "lower", srcReplay, []move{cpuCold}, "govern.Governor.Reserve + Release, paid per fresh search only"},
	{"govern.reserved_bytes_peak", "B", "lower", srcReplay, []move{rssCold}, "largest ledger balance a replayed search reached, grows included"},

	{"trace.overhead_pct", "%", "lower", srcHTTP, []move{{"throughput_rps", "warm-memo"}}, "req/s drop of warm-memo re-run with ?debug=trace on every request; moves no end-to-end metric while sampling stays off"},
	{"trace.spans_per_req", "count", "lower", srcJSON, []move{{"throughput_rps", "warm-memo"}}, "spans in the inline tree of a traced request, mean"},

	{"pipeline.run_cold_ms", "ms", "lower", srcReplay, []move{p50Cold}, "Pipeline.Run on a never-seen graph, p50"},
	{"pipeline.run_warm_us", "us", "lower", srcReplay, []move{p50Warm, p50Disk, p50Fleet}, "Pipeline.Run answered entirely by the memo hierarchy, p50"},
	{"pipeline.other_us", "us", "lower", srcReplay, []move{p50Warm, p50Cold}, "Run − Σ stages (validate, baseline, MemModel builds, verification), p50"},

	{"serenityd.hot_p50_us", "us", "lower", srcHTTP, []move{p50Warm, p50Mixed}, "HTTP latency of class hot, p50"},
	{"serenityd.segwarm_p50_us", "us", "lower", srcHTTP, []move{p50Warm, p50Mixed}, "HTTP latency of class segwarm, p50"},
	{"serenityd.cold_p50_ms", "ms", "lower", srcHTTP, []move{p50Cold, p95Mixed}, "HTTP latency of class cold, p50"},
	{"serenityd.degraded_p50_ms", "ms", "lower", srcHTTP, []move{p95Mixed}, "HTTP latency of class degraded, p50"},
	{"serenityd.http_overhead_us", "us", "lower", srcHTTP, []move{cpuWarm}, "HTTP p50 − in-process Pipeline.Run p50 of the workload's main class: network, handler, encode"},
	{"serenityd.latency_p99_ms", "ms", "lower", srcHTTP, []move{p95Mixed, p95Cold}, "p99 of the end-to-end latency samples; repeats ±25%, so it never gates"},
	{"serenityd.response_bytes_p50", "B", "lower", srcHTTP, []move{cpuWarm}, "size of the response bodies"},
	{"serenityd.respcache_hit_share", "ratio", "higher", srcMetrics, []move{p50Warm}, "Δcache hits ÷ Δ(hits + misses); about 0.5 on warm-memo"},
	{"serenityd.rejected_429", "count", "lower", srcMetrics, []move{okMixed}, "Δserenityd_admission_rejected_total, all classes"},
	{"serenityd.refinements_done", "count", "higher", srcMetrics, []move{p95Mixed}, "Δserenityd_refinements_done_total"},
	{"serenityd.admitted_total", "count", "lower", srcMetrics, []move{p95Mixed}, "Δserenityd_admission_admitted_total, all classes: compile-slot grants"},

	// loadgen: the benchmark itself. A run whose client used more than 40% of
	// the machine or ran more than 5 ms late at p95 measured the generator.
	{"loadgen.lateness_p95_ms", "ms", "lower", srcHTTP, []move{p95Mixed}, "sent − due, p95 (0 for closed loops)"},
	{"loadgen.over_100ms_share", "ratio", "lower", srcHTTP, []move{p95Mixed}, "requests sent more than 100 ms late ÷ attempted"},
	{"loadgen.client_cpu_share", "ratio", "lower", srcProc, []move{{"throughput_rps", "warm-memo"}}, "this process's CPU seconds ÷ (measured wall × cores)"},
}

// Generator self-check thresholds.
const (
	maxClientCPUShare = 0.40
	maxLatenessP95MS  = 5.0
)
