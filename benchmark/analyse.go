package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"unsafe"

	serenity "github.com/serenity-ml/serenity"
)

// report is one run's outcome: the contract's four keys plus the flags and
// messages the human summary prints.
type report struct {
	Correct   bool
	Attempted int
	Failed    int
	E2E       map[string]float64
	Layer     map[string]float64
	Problems  []string // first few validation failures and broken assertions
	Flags     []string // generator self-check warnings
}

const maxProblems = 8

func (r *report) problem(format string, args ...any) {
	r.Correct = false
	if len(r.Problems) < maxProblems {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// verdict is one validated sample.
type verdict struct {
	a   *answer
	err error
}

// validate checks every sample against its request (and its set-up
// answer), on two goroutines, after the timed phase. The load generator
// interned the bodies, so every repeat of a hot graph carries the very same
// bytes and is checked once.
func validate(samples []sample, refs []*answer) []verdict {
	out := make([]verdict, len(samples))
	var wg sync.WaitGroup
	const workers = 2
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			type key struct {
				g    *serenity.Graph
				body *byte
			}
			memo := map[key]verdict{}
			for i := w; i < len(samples); i += workers {
				s := &samples[i]
				if s.err != nil {
					out[i] = verdict{err: fmt.Errorf("transport: %w", s.err)}
					continue
				}
				k := key{s.req.g, unsafe.SliceData(s.body)}
				v, ok := memo[k]
				if !ok {
					var ref *answer
					if s.req.ref >= 0 {
						if ref = refs[s.req.ref]; ref == nil {
							v.err = fmt.Errorf("set-up answer %d was itself invalid", s.req.ref)
						}
					}
					if v.err == nil {
						v.a, v.err = checkAnswer(s.req, s.status, s.body, ref)
					}
					memo[k] = v
				}
				out[i] = v
			}
		}()
	}
	wg.Wait()
	return out
}

// analyse validates everything the run received and turns the observations
// into the end-to-end metrics and the per-layer metrics that come from
// outside the process (HTTP timing, response JSON, /metrics, /proc). The
// replay pass adds the rest.
func analyse(cfg config, m *measured) (*report, error) {
	rep := &report{Correct: true, Attempted: len(m.samples), E2E: map[string]float64{}, Layer: map[string]float64{}}
	for _, lm := range layerMetrics {
		rep.Layer[lm.name] = 0 // every metric is reported on every workload
	}

	// Set-up answers first: they are the references warm answers must equal.
	pre := make([]sample, len(m.refs))
	for i, body := range m.refs {
		pre[i] = sample{req: m.in.preload[i], status: 200, body: body}
	}
	refs := make([]*answer, len(pre))
	for i, v := range validate(pre, nil) {
		if v.err != nil {
			rep.problem("set-up answer %d: %v", i, v.err)
			continue
		}
		refs[i] = v.a
	}

	var expected *expectedFile // the golden answers are for the full-scale sequence
	if !cfg.tiny {
		var err error
		if expected, err = loadExpected(cfg.dir, cfg.w.name, cfg.seed); err != nil {
			return nil, err
		}
	}
	verdicts := validate(m.samples, refs)

	var (
		lat, late                           []float64
		classLat                            [numClasses][]float64
		reqBytes, respBytes                 []float64
		ok, optimal, over100                int
		logRed, rewrites, nodes, segs, frag float64
		states                              float64
		maxSeg, maxFrontier                 int
	)
	perPass := len(m.in.reqs)
	for i := range m.samples {
		s, v := &m.samples[i], verdicts[i]
		lat = append(lat, s.latency().Seconds())
		classLat[s.req.class] = append(classLat[s.req.class], s.latency().Seconds())
		late = append(late, (s.sent - s.due).Seconds())
		if s.sent-s.due > 100e6 {
			over100++
		}
		reqBytes = append(reqBytes, float64(len(s.req.body)))
		respBytes = append(respBytes, float64(len(s.body)))
		if v.err == nil && expected != nil && i%perPass < len(expected.Peaks) {
			if want := expected.Peaks[i%perPass]; v.a.Peak != want[0] || v.a.BaselinePeak != want[1] {
				v.err = fmt.Errorf("peak %d / baseline %d, expected/%s.json says %d / %d",
					v.a.Peak, v.a.BaselinePeak, cfg.w.name, want[0], want[1])
			}
		}
		if v.err != nil {
			rep.Failed++
			rep.problem("request %d (%s): %v", i, s.req.class, v.err)
			continue
		}
		a := v.a
		ok++
		if a.Quality == "optimal" {
			optimal++
		}
		logRed += math.Log(float64(a.BaselinePeak) / float64(a.Peak))
		rewrites += float64(a.Rewrites)
		nodes += float64(a.Nodes)
		segs += float64(len(a.PartitionSizes))
		frag += float64(a.ArenaSize)/float64(a.Peak) - 1
		states += float64(a.StatesExplored)
		maxFrontier = max(maxFrontier, a.MaxFrontier)
		for _, sz := range a.PartitionSizes {
			maxSeg = max(maxSeg, sz)
		}
	}
	if ok == 0 {
		return rep, fmt.Errorf("%s: none of %d requests succeeded; first problem: %v", cfg.w.name, rep.Attempted, rep.Problems)
	}

	// Workload-level contracts: which workloads may search at all.
	fresh := m.prom["serenityd_states_explored_total"]
	switch {
	case !cfg.w.searches && fresh != 0:
		rep.problem("%v fresh DP states on a workload that must search nothing", fresh)
	case cfg.w.searches && fresh <= 0:
		rep.problem("no fresh DP states on a workload that must search")
	}

	attempted := float64(rep.Attempted)
	rep.E2E["setup_s"] = median(m.setups)
	rep.E2E["throughput_rps"] = float64(ok) / m.wall.Seconds()
	p50, p95 := sliceMedian(lat, 0.50), sliceMedian(lat, 0.95)
	slices.Sort(lat)
	if !cfg.w.open {
		p50, p95 = quantile(lat, 0.50), quantile(lat, 0.95)
	}
	rep.E2E["latency_p50_ms"] = 1e3 * p50
	rep.E2E["latency_p95_ms"] = 1e3 * p95
	rep.E2E["server_cpu_ms_per_req"] = 1e3 * m.srvCPU / attempted
	rep.E2E["server_peak_rss_mb"] = m.rssMiB
	rep.E2E["ok_share"] = float64(ok) / attempted
	rep.E2E["peak_reduction_geomean"] = math.Exp(logRed / float64(ok))
	rep.E2E["optimal_share"] = float64(optimal) / float64(ok)

	L := rep.Layer
	n := float64(ok)
	slices.Sort(reqBytes)
	slices.Sort(respBytes)
	slices.Sort(late)
	L["graph.request_bytes_p50"] = quantile(reqBytes, 0.5)
	L["rewrite.sites_per_graph"] = rewrites / n
	L["rewrite.nodes_after"] = nodes / n
	L["partition.segments_per_graph"] = segs / n
	L["partition.max_segment_nodes"] = float64(maxSeg)
	L["dp.states_per_graph"] = states / n
	L["dp.max_frontier"] = float64(maxFrontier)
	L["dp.fresh_states_per_req"] = fresh / attempted
	L["alloc.fragmentation_pct"] = 100 * frag / n
	L["cache.coalesced_share"] = m.prom["serenityd_coalesced_requests_total"] / attempted
	L["serenityd.latency_p99_ms"] = 1e3 * quantile(lat, 0.99)
	L["serenityd.response_bytes_p50"] = quantile(respBytes, 0.5)
	L["serenityd.rejected_429"] = m.prom.sum("serenityd_admission_rejected_total")
	L["serenityd.refinements_done"] = m.prom["serenityd_refinements_done_total"]
	L["serenityd.admitted_total"] = m.prom.sum("serenityd_admission_admitted_total")
	L["fleet.peer_timeouts"] = m.prom["serenityd_peer_timeouts_total"]

	memoHits, memoMiss := m.prom["serenityd_segment_memo_hits_total"], m.prom["serenityd_segment_memo_misses_total"]
	diskHits, diskMiss := m.prom["serenityd_store_hits_total"], m.prom["serenityd_store_misses_total"]
	peerHits := m.prom["serenityd_peer_hits_total"]
	L["segmemo.hit_share"] = share(memoHits-diskHits-peerHits, memoHits+memoMiss)
	L["store.disk_hit_share"] = share(diskHits, diskHits+diskMiss)
	L["fleet.peer_hit_share"] = share(peerHits, diskHits+diskMiss)
	L["serenityd.respcache_hit_share"] = share(m.prom["serenityd_cache_hits_total"],
		m.prom["serenityd_cache_hits_total"]+m.prom["serenityd_cache_misses_total"])

	for c := range classLat {
		slices.Sort(classLat[c])
	}
	L["serenityd.hot_p50_us"] = 1e6 * quantile(classLat[classHot], 0.5)
	L["serenityd.segwarm_p50_us"] = 1e6 * quantile(classLat[classSegwarm], 0.5)
	L["serenityd.cold_p50_ms"] = 1e3 * quantile(classLat[classCold], 0.5)
	L["serenityd.degraded_p50_ms"] = 1e3 * quantile(classLat[classDegraded], 0.5)

	var restarts []float64
	for _, d := range m.restarts {
		restarts = append(restarts, 1e3*d.Seconds())
	}
	L["store.restart_ready_ms"] = median(restarts)
	L["fleet.replication_drain_ms"] = 1e3 * m.drain.Seconds()

	L["loadgen.lateness_p95_ms"] = 1e3 * quantile(late, 0.95)
	L["loadgen.over_100ms_share"] = float64(over100) / attempted
	L["loadgen.client_cpu_share"] = m.cliCPU / (m.wall.Seconds() * float64(runtime.NumCPU()))
	if v := L["loadgen.client_cpu_share"]; v > maxClientCPUShare {
		rep.Flags = append(rep.Flags, fmt.Sprintf("client used %.0f%% of the machine: the numbers measure the generator", 100*v))
	}
	if v := L["loadgen.lateness_p95_ms"]; v > maxLatenessP95MS {
		rep.Flags = append(rep.Flags, fmt.Sprintf("generator ran %.1f ms late at p95: the numbers measure the generator", v))
	}

	if t := m.traced; t != nil {
		tv := validate(t.samples, refs)
		var spans, okT float64
		for i, v := range tv {
			if v.err != nil {
				rep.problem("traced request %d: %v", i, v.err)
				continue
			}
			okT++
			if v.a.Trace == nil {
				rep.problem("traced request %d came back without a span tree", i)
				continue
			}
			spans += float64(countSpans(v.a.Trace.Spans))
		}
		if okT > 0 {
			tracedRPS := okT / t.wall.Seconds()
			L["trace.overhead_pct"] = 100 * (1 - tracedRPS/rep.E2E["throughput_rps"])
			L["trace.spans_per_req"] = spans / okT
		}
	}
	return rep, nil
}

// latencySlices is how many consecutive, equal slices an open-loop run's
// latency percentiles are taken over.
const latencySlices = 6

// sliceMedian cuts xs, in request order, into latencySlices slices, takes the
// q-quantile of each, and returns their median. In an open loop one stall of
// the machine — a neighbour's burst, a slow fsync — delays every arrival
// behind it and would own the whole run's p95; here it lands in one slice. A
// closed loop needs none of this: a stall there costs the one or two requests
// in flight.
func sliceMedian(xs []float64, q float64) float64 {
	var qs []float64
	for k := 0; k < latencySlices; k++ {
		part := slices.Clone(xs[k*len(xs)/latencySlices : (k+1)*len(xs)/latencySlices])
		if len(part) == 0 {
			continue
		}
		slices.Sort(part)
		qs = append(qs, quantile(part, q))
	}
	return median(qs)
}

// share is part ÷ whole, and 0 when there is no whole.
func share(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	return part / whole
}
