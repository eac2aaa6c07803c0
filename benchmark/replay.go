package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	serenity "github.com/serenity-ml/serenity"
	"github.com/serenity-ml/serenity/internal/alloc"
	"github.com/serenity-ml/serenity/internal/cache"
	"github.com/serenity-ml/serenity/internal/dp"
	"github.com/serenity-ml/serenity/internal/fleet"
	"github.com/serenity-ml/serenity/internal/govern"
	"github.com/serenity-ml/serenity/internal/graph"
	"github.com/serenity-ml/serenity/internal/partition"
	"github.com/serenity-ml/serenity/internal/rewrite"
	"github.com/serenity-ml/serenity/internal/sched"
)

// The replay pass is the traced run. The end-to-end numbers come from the
// untraced HTTP run; afterwards the workload's own generated inputs are fed,
// in this process, through each layer's public functions, with a span around
// every call. Nothing inside the program is instrumented: the spans live
// here, in the benchmark's files, and are named after the layers so that
// spans added inside the program later can reuse the names.

// span is one timed call. Spans of one request share Req; Parent is the span
// that caused this one (-1 for a request's root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Self is End−Start minus the part its children cover.
	Self int64 `json:"self_ns"`
	// Ops is how many times the call ran inside the span; calls that take
	// nanoseconds are looped so the clock's own cost vanishes. Bytes and
	// Count carry the work done (bytes decoded, states explored, …).
	Ops   int   `json:"ops,omitempty"`
	Bytes int64 `json:"bytes,omitempty"`
	Count int64 `json:"count,omitempty"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// do runs fn inside a new span and returns the span's id; fn receives the id
// to parent its own children on.
func (t *tracer) do(parent, req int, name string, fn func(id int)) int {
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Ops: 1})
	start := time.Since(t.t0)
	fn(id)
	end := time.Since(t.t0)
	s := &t.spans[id]
	s.Start, s.End = int64(start), int64(end)
	return id
}

// loop is do for calls too short to time one at a time.
func (t *tracer) loop(parent, req int, name string, ops int, fn func(i int)) {
	id := t.do(parent, req, name, func(int) {
		for i := 0; i < ops; i++ {
			fn(i)
		}
	})
	t.spans[id].Ops = ops
}

// finish computes self times.
func (t *tracer) finish() {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			t.spans[s.Parent].Self -= s.End - s.Start
		}
	}
}

// perOp returns the sorted per-call self times, in seconds, of every span
// called name.
func (t *tracer) perOp(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.Self)/float64(s.Ops)/1e9)
		}
	}
	slices.Sort(out)
	return out
}

// totals sums a span name's self time (seconds), Bytes and Count.
func (t *tracer) totals(name string) (seconds float64, bytes, count int64) {
	for _, s := range t.spans {
		if s.Name == name {
			seconds += float64(s.Self) / 1e9
			bytes += s.Bytes
			count += s.Count
		}
	}
	return
}

// Loop counts for the nanosecond-scale calls.
const (
	lruOps   = 64
	ringOps  = 64
	ledgOps  = 64
	codecOps = 16
)

// replayNode is one in-process stand-in for a serenityd: the memo hierarchy a
// Pipeline runs against.
type replayNode struct {
	memo  *serenity.SegmentMemo
	store *serenity.ScheduleStore
	dir   string
	peers serenity.PeerTier
}

func openReplayNode(dir string) (*replayNode, error) {
	store, err := serenity.OpenScheduleStore(dir, 0)
	if err != nil {
		return nil, err
	}
	return &replayNode{memo: serenity.NewSegmentMemo(4096), store: store, dir: dir}, nil
}

// reopen closes the store and opens it again under an empty memo: the
// in-process image of a restart.
func (n *replayNode) reopen() error {
	if err := n.store.Close(); err != nil {
		return err
	}
	store, err := serenity.OpenScheduleStore(n.dir, 0)
	if err != nil {
		return err
	}
	n.store, n.memo = store, serenity.NewSegmentMemo(4096)
	return nil
}

// governAdapter bridges *govern.Reservation to serenity.SearchReservation
// (method results are invariant), exactly as serenityd does.
type governAdapter struct{ g *govern.Governor }

func (a governAdapter) Reserve(estimate int64) serenity.SearchReservation {
	return a.g.Reserve(estimate)
}

// walkSearcher answers every segment with an order searched earlier, so a
// Pipeline.Run over empty tiers pays for the whole tier walk — memo miss,
// disk miss, store write-behind — and for no search at all.
type walkSearcher struct {
	orders map[string]serenity.Order
	// key is unique per replayed request, so even the projection segments
	// every graph shares miss every tier.
	key string
}

func (walkSearcher) Name() string      { return "replay-walk" }
func (w walkSearcher) MemoKey() string { return w.key }
func (w walkSearcher) Search(_ context.Context, m *serenity.MemModel) (serenity.SearchResult, error) {
	order, ok := w.orders[m.G.Name]
	if !ok {
		return serenity.SearchResult{}, fmt.Errorf("no replayed order for segment %s", m.G.Name)
	}
	return serenity.SearchResult{Order: order, Quality: serenity.QualityOptimal}, nil
}

// replayer holds the pass's state.
type replayer struct {
	cfg     config
	tr      *tracer
	ctx     context.Context
	opts    serenity.Options
	exact   serenity.ExactDP // the searcher serenityd's defaults select; its MemoKey keys the tiers
	home    *replayNode      // the server the workload's requests go to
	scratch *replayNode      // takes the standalone store.put calls, so they never warm `home`
	gov     *govern.Governor
	lru     *cache.Cache[*serenity.Result] // stands in for serenityd's 256-entry response LRU
	putLRU  *cache.Cache[*serenity.Result] // takes the timed puts, so they never evict from `lru`
	ring    *fleet.Ring
	client  *fleet.Client

	runCold, runWarm, runOther []float64 // Pipeline.Run, seconds
	warmSeg, diskSeg, walkSeg  []float64 // Stages.Search ÷ segments, seconds
	bytesPerState              []float64
	allocs, artifact           []float64
	mainRuns, mainHTTP         []float64 // Pipeline.Run and HTTP latency of the same requests of class w.main
	reservedPeak               int64
	cleanup                    []func()
}

func (r *replayer) close() {
	for i := len(r.cleanup) - 1; i >= 0; i-- {
		r.cleanup[i]()
	}
}

func (r *replayer) node(name string) (*replayNode, error) {
	dir, err := os.MkdirTemp(r.cfg.work, "replay-"+name+"-")
	if err != nil {
		return nil, err
	}
	r.cleanup = append(r.cleanup, func() { os.RemoveAll(dir) })
	n, err := openReplayNode(dir)
	if err != nil {
		return nil, err
	}
	r.cleanup = append(r.cleanup, func() { n.store.Close() })
	return n, nil
}

// pipeline builds the Pipeline serenityd would build for one request against
// node n.
func (r *replayer) pipeline(n *replayNode, c class) (*serenity.Pipeline, error) {
	opts := r.opts
	if c == classDegraded {
		opts.Strategy = serenity.StrategyBestEffort
	}
	p, err := serenity.NewPipeline(opts)
	if err != nil {
		return nil, err
	}
	if be, ok := p.Searcher.(serenity.BestEffort); ok {
		be.SkipExact = true
		p.Searcher = be
	}
	p.SegmentMemo, p.Store, p.Peers = n.memo, n.store, n.peers
	p.Govern = governAdapter{r.gov}
	return p, nil
}

// replayInputs is what the replay pass keeps of the HTTP run: the set-up
// requests, the first measured requests, and how long each of those took over
// HTTP. Everything else the run holds — thousands of graphs and bodies — is
// released first, so that this process's collector does not tax the spans.
type replayInputs struct {
	preload, sample []*request
	httpLatency     []float64 // seconds, parallel to sample
}

func newReplayInputs(cfg config, m *measured) replayInputs {
	n := min(len(m.in.reqs), cfg.w.replay)
	if cfg.tiny {
		n = min(n, 8)
	}
	in := replayInputs{preload: m.in.preload, sample: slices.Clone(m.in.reqs[:n])}
	for i := range in.sample {
		in.httpLatency = append(in.httpLatency, m.samples[i].latency().Seconds())
	}
	return in
}

// replay runs the traced pass for cfg.w over the inputs the HTTP run used,
// adds the replay-sourced per-layer metrics to rep, and writes the spans to
// trace-<workload>.json.
func replay(ctx context.Context, cfg config, in replayInputs, rep *report) error {
	opts := serenity.DefaultOptions()
	opts.Parallelism = 2
	r := &replayer{
		cfg:   cfg,
		tr:    &tracer{t0: time.Now()},
		ctx:   ctx,
		opts:  opts,
		exact: serenity.ExactDP{AdaptiveBudget: opts.AdaptiveBudget, StepTimeout: opts.StepTimeout},
		// The ledger alone is replayed: this process's heap is not a
		// server's working set and must not read as memory pressure.
		gov:    govern.New(govern.Options{Limit: 1 << 30, ReadLoad: func() int64 { return 0 }}),
		lru:    cache.New[*serenity.Result](256),
		putLRU: cache.New[*serenity.Result](256),
	}
	defer r.close()
	var err error
	if r.home, err = r.node("home"); err != nil {
		return err
	}
	if r.scratch, err = r.node("scratch"); err != nil {
		return err
	}
	if err := r.prepare(in); err != nil {
		return fmt.Errorf("replay set-up: %w", err)
	}
	for i, req := range in.sample {
		if err := r.request(i, req); err != nil {
			return fmt.Errorf("replaying request %d (%s): %w", i, req.class, err)
		}
		if req.class == cfg.w.main {
			r.mainHTTP = append(r.mainHTTP, in.httpLatency[i])
		}
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	r.tr.finish()
	r.metrics(rep)
	return r.write()
}

// prepare brings the in-process tiers to the state the HTTP run's servers
// were in when the measured phase began. None of it is traced.
func (r *replayer) prepare(in replayInputs) error {
	fleet, restart := r.cfg.w.main == classPeer, r.cfg.w.main == classDisk
	// Corpus workloads need only the set-up answers the sample refers to; the
	// warm ones need every hot graph, because together they search the pool.
	need := map[int]bool{}
	for _, req := range in.sample {
		if req.ref >= 0 {
			need[req.ref] = true
		}
	}
	source := r.home
	if fleet {
		// The corpus is compiled on a second node, A; home is B.
		var err error
		if source, err = r.node("a"); err != nil {
			return err
		}
		if err := r.wireFleet(source); err != nil {
			return err
		}
	}
	for i, pre := range in.preload {
		if !need[i] && r.cfg.w.corpus > 0 {
			continue
		}
		p, err := r.pipeline(source, pre.class)
		if err != nil {
			return err
		}
		res, err := p.Run(r.ctx, pre.g)
		if err != nil {
			return err
		}
		if r.cfg.w.corpus == 0 {
			r.lru.Put(pre.g.Fingerprint(), res)
		}
		if fleet {
			source.store.Flush()
			if err := r.replicate(source, res.Graph); err != nil {
				return err
			}
		}
	}
	source.store.Flush()
	if restart {
		return r.home.reopen()
	}
	return nil
}

// replicate copies the artifacts of g's segments that home owns from a's
// store into home's, as a's write-behind replication did in the HTTP run.
func (r *replayer) replicate(a *replayNode, g *graph.Graph) error {
	part, err := partition.Split(g)
	if err != nil {
		return err
	}
	for _, seg := range part.Segments {
		key := seg.Fingerprint() + "|" + r.exact.MemoKey()
		if !r.ring.Owns(key) {
			continue
		}
		payload, ok := a.store.GetArtifact(key)
		if !ok {
			return fmt.Errorf("node a holds no artifact for a segment it just searched")
		}
		r.home.store.PutArtifact(key, payload)
	}
	return nil
}

// wireFleet serves node a's store over loopback HTTP and points home's peer
// tier at it through a two-member ring.
func (r *replayer) wireFleet(a *replayNode) error {
	mux := http.NewServeMux()
	ts := httptest.NewServer(mux)
	r.cleanup = append(r.cleanup, ts.Close)
	const self = "http://replay-home.invalid"
	ringA, err := fleet.NewRing(ts.URL, []string{ts.URL, self}, 0)
	if err != nil {
		return err
	}
	fleet.NewServer(a.store, ringA, nil).Register(mux)
	if r.ring, err = fleet.NewRing(self, []string{ts.URL, self}, 0); err != nil {
		return err
	}
	r.client = fleet.NewClient(r.ring, fleet.ClientOptions{})
	r.cleanup = append(r.cleanup, r.client.Close)
	r.home.peers = r.client
	return nil
}

// request replays one request: the calls serenityd makes for its class, each
// under its own span, then the whole Pipeline.Run the server would have run.
func (r *replayer) request(i int, req *request) error {
	var failed error
	fail := func(err error) bool {
		if err != nil && failed == nil {
			failed = err
		}
		return failed != nil
	}
	tr := r.tr
	tr.do(-1, i, "request."+req.class.String(), func(root int) {
		var g *graph.Graph
		id := tr.do(root, i, "graph.decode", func(int) {
			var err error
			g, err = graph.ReadJSON(bytes.NewReader(req.body))
			fail(err)
		})
		tr.spans[id].Bytes = int64(len(req.body))
		if failed != nil {
			return
		}
		var fp string
		tr.do(root, i, "graph.fingerprint", func(int) { fp = g.Fingerprint() })
		hit := false
		tr.loop(root, i, "cache.get", lruOps, func(int) { _, hit = r.lru.Get(fp) })
		if hit != (req.class == classHot) {
			fail(fmt.Errorf("response LRU hit=%t for class %s", hit, req.class))
		}
		if hit || failed != nil {
			return // a whole-response hit ends here
		}

		tr.do(root, i, "sched.baseline", func(int) {
			order, err := sched.KahnFIFO(g)
			if !fail(err) {
				_, err = sched.NewMemModel(g).Peak(order)
				fail(err)
			}
		})
		work := g
		tr.do(root, i, "rewrite.all", func(int) {
			rw, apps, err := rewrite.RewriteAll(g, rewrite.DefaultRules(), 0)
			if !fail(err) && len(apps) > 0 {
				work = rw
			}
		})
		var part *partition.Partition
		tr.do(root, i, "partition.split", func(int) {
			var err error
			part, err = partition.Split(work)
			fail(err)
		})
		if failed != nil {
			return
		}
		orders := map[string]serenity.Order{}
		for _, seg := range part.Segments {
			if fail(r.segment(root, i, req.class, seg, orders)) {
				return
			}
		}

		p, err := r.pipeline(r.home, req.class)
		if fail(err) {
			return
		}
		var res *serenity.Result
		tr.do(root, i, "pipeline.run", func(int) {
			res, err = p.Run(r.ctx, g)
			fail(err)
		})
		if failed != nil {
			return
		}
		fail(r.account(req.class, res))
		tr.do(root, i, "alloc.plan", func(int) {
			_, err := alloc.Plan(sched.NewMemModel(res.Graph), res.Order)
			fail(err)
		})
		if req.class == classCold {
			fail(r.walk(root, i, g, orders))
		}
		// serenityd caches only undegraded answers.
		if res.Fallbacks == 0 {
			r.lru.Put(fp, res)
			keys := make([]string, lruOps)
			for k := range keys {
				keys[k] = fmt.Sprintf("%s#%d", fp, k) // distinct keys, so the full LRU evicts on every put
			}
			tr.loop(root, i, "cache.put", lruOps, func(k int) { r.putLRU.Put(keys[k], res) })
		}
	})
	return failed
}

// segment makes the per-segment calls of class c outside any Pipeline: the
// search and the write-through for a cold segment, the heuristic for a
// degraded one, the tier read for a disk or peer one.
func (r *replayer) segment(parent, i int, c class, seg *partition.Segment, orders map[string]serenity.Order) error {
	tr := r.tr
	m := sched.NewMemModel(seg.G)
	key := seg.Fingerprint() + "|" + r.exact.MemoKey()
	var failed error
	switch c {
	case classCold:
		tr.loop(parent, i, "govern.reserve_release", ledgOps, func(int) {
			r.gov.Reserve(dp.FrontierStateBytes(seg.G.NumNodes()) * 4096).Release()
		})
		rsv := r.gov.Reserve(dp.FrontierStateBytes(seg.G.NumNodes()) * 4096)
		var ar *dp.AdaptiveResult
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		id := tr.do(parent, i, "dp.search", func(int) {
			ar, failed = dp.AdaptiveSchedule(m, dp.AdaptiveOptions{
				StepTimeout: r.opts.StepTimeout,
				Parallelism: r.opts.Parallelism,
				MemLimit:    rsv.SearchLimit(),
				MemGrow:     rsv.Grow,
			})
		})
		runtime.ReadMemStats(&ms1)
		r.reservedPeak = max(r.reservedPeak, r.gov.Stats().Reserved)
		rsv.Release()
		if failed != nil {
			return failed
		}
		if ar.Flag != dp.FlagSolution {
			return fmt.Errorf("replayed search ended with %v", ar.Flag)
		}
		tr.spans[id].Count = ar.StatesExplored
		r.allocs = append(r.allocs, float64(ms1.Mallocs-ms0.Mallocs))
		if ar.MaxFrontier > 0 {
			r.bytesPerState = append(r.bytesPerState, float64(ar.PeakBytes)/float64(ar.MaxFrontier))
		}
		orders[seg.G.Name] = ar.Order
		sr := serenity.SearchResult{Order: ar.Order, StatesExplored: ar.StatesExplored,
			MaxFrontier: ar.MaxFrontier, Quality: serenity.QualityOptimal}
		var payload []byte
		tr.loop(parent, i, "store.codec_marshal", codecOps, func(int) {
			payload, failed = serenity.MarshalSegmentArtifact(sr)
		})
		if failed != nil {
			return failed
		}
		r.artifact = append(r.artifact, float64(len(payload)))
		tr.do(parent, i, "store.put", func(int) { r.scratch.store.PutArtifact(key, payload) })
	case classDegraded:
		tr.do(parent, i, "sched.greedy", func(int) { _, failed = sched.GreedyMemoryRun(m) })
	case classDisk, classPeer:
		var payload []byte
		found := false
		if c == classPeer && !r.ring.Owns(key) {
			tr.loop(parent, i, "fleet.ring_owner", ringOps, func(int) { r.ring.Owner(key) })
			tr.do(parent, i, "fleet.fetch", func(int) { payload, found = r.client.Fetch(r.ctx, key) })
		} else {
			tr.do(parent, i, "store.get", func(int) { payload, found = r.home.store.GetArtifact(key) })
		}
		if !found {
			return fmt.Errorf("segment %s is in no tier the %s class reads", seg.G.Name, c)
		}
		r.artifact = append(r.artifact, float64(len(payload)))
		tr.loop(parent, i, "store.codec_unmarshal", codecOps, func(int) {
			_, failed = serenity.UnmarshalSegmentArtifact(payload)
		})
	}
	return failed
}

// walk runs the all-miss Pipeline.Run of a cold graph again with the search
// replaced by a lookup, over tiers nothing was ever stored in.
func (r *replayer) walk(parent, i int, g *graph.Graph, orders map[string]serenity.Order) error {
	p, err := r.pipeline(r.scratch, classCold)
	if err != nil {
		return err
	}
	p.Searcher, p.Govern, p.Parallelism = walkSearcher{orders, fmt.Sprintf("replay-walk-%d", i)}, nil, 1
	var res *serenity.Result
	r.tr.do(parent, i, "pipeline.run_walk", func(int) { res, err = p.Run(r.ctx, g) })
	if err != nil {
		return err
	}
	if res.SegmentMemoHits != 0 {
		return fmt.Errorf("the miss walk hit the memo %d times", res.SegmentMemoHits)
	}
	r.walkSeg = append(r.walkSeg, res.Stages.Search.Seconds()/float64(len(res.PartitionSizes)))
	return nil
}

// account files one Pipeline.Run under its class and checks that the tiers
// answered as the class promises.
func (r *replayer) account(c class, res *serenity.Result) error {
	segs := float64(len(res.PartitionSizes))
	run := res.SchedulingTime.Seconds()
	st := res.Stages
	r.runOther = append(r.runOther, (res.SchedulingTime - st.Rewrite - st.Partition - st.Search - st.Alloc).Seconds())
	if c == r.cfg.w.main {
		r.mainRuns = append(r.mainRuns, run)
	}
	fresh := res.FreshStatesExplored
	switch c {
	case classCold:
		r.runCold = append(r.runCold, run)
		if fresh == 0 {
			return fmt.Errorf("a cold graph was answered without a search")
		}
		return nil
	case classDegraded:
		return nil
	case classSegwarm:
		r.warmSeg = append(r.warmSeg, st.Search.Seconds()/segs)
	case classDisk:
		r.diskSeg = append(r.diskSeg, st.Search.Seconds()/segs)
		if res.SegmentMemoDiskHits == 0 {
			return fmt.Errorf("a disk-class graph hit the disk tier 0 times")
		}
	}
	r.runWarm = append(r.runWarm, run)
	if fresh != 0 {
		return fmt.Errorf("a %s graph explored %d fresh states", c, fresh)
	}
	return nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// metrics turns the spans into the replay-sourced per-layer metrics. A layer
// the workload never enters keeps its 0.
func (r *replayer) metrics(rep *report) {
	L, tr := rep.Layer, r.tr
	us := func(name string) float64 { return 1e6 * quantile(tr.perOp(name), 0.5) }
	ns := func(name string) float64 { return 1e9 * quantile(tr.perOp(name), 0.5) }

	L["graph.decode_us"] = us("graph.decode")
	if sec, b, _ := tr.totals("graph.decode"); sec > 0 {
		L["graph.decode_mb_per_s"] = float64(b) / 1e6 / sec
	}
	L["graph.fingerprint_us"] = us("graph.fingerprint")
	L["rewrite.time_us"] = us("rewrite.all")
	L["partition.time_us"] = us("partition.split")
	L["sched.baseline_us"] = us("sched.baseline")
	L["alloc.plan_us"] = us("alloc.plan")
	L["cache.lru_get_ns"] = ns("cache.get")
	L["cache.lru_put_ns"] = ns("cache.put")
	L["store.get_us"] = us("store.get")
	L["store.put_us"] = us("store.put")
	L["store.codec_marshal_ns"] = ns("store.codec_marshal")
	L["store.codec_unmarshal_ns"] = ns("store.codec_unmarshal")
	L["store.artifact_bytes_p50"] = median(r.artifact)
	L["fleet.fetch_rtt_us"] = us("fleet.fetch")
	L["fleet.ring_owner_ns"] = ns("fleet.ring_owner")
	L["govern.reserve_release_ns"] = ns("govern.reserve_release")
	L["govern.reserved_bytes_peak"] = float64(r.reservedPeak)

	// dp and greedy are per graph: sum a request's segment spans.
	perReq := func(name string) []float64 {
		sums := map[int]float64{}
		for _, s := range tr.spans {
			if s.Name == name {
				sums[s.Req] += float64(s.Self) / 1e9
			}
		}
		var out []float64
		for _, v := range sums {
			out = append(out, v)
		}
		return out
	}
	L["dp.search_ms_per_graph"] = 1e3 * mean(perReq("dp.search"))
	if sec, _, states := tr.totals("dp.search"); sec > 0 {
		L["dp.states_per_s"] = float64(states) / sec
	}
	L["dp.peak_bytes_per_state"] = mean(r.bytesPerState)
	L["dp.allocs_per_search"] = median(r.allocs)
	L["sched.greedy_us"] = 1e6 * median(perReq("sched.greedy"))

	L["segmemo.warm_search_us_per_segment"] = 1e6 * median(r.warmSeg)
	L["segmemo.miss_walk_us"] = 1e6 * median(r.walkSeg)
	L["store.disk_warm_search_us_per_segment"] = 1e6 * median(r.diskSeg)
	L["pipeline.run_cold_ms"] = 1e3 * median(r.runCold)
	L["pipeline.run_warm_us"] = 1e6 * median(r.runWarm)
	L["pipeline.other_us"] = 1e6 * median(r.runOther)
	L["serenityd.http_overhead_us"] = 1e6 * (median(r.mainHTTP) - median(r.mainRuns))
}

// traceFile is what out/trace-<workload>.json holds.
type traceFile struct {
	Workload string               `json:"workload"`
	Seed     uint64               `json:"seed"`
	Requests int                  `json:"requests"`
	ByName   map[string]spanStats `json:"by_name"`
	Spans    []span               `json:"spans"`
}

// spanStats summarises one span name for a reader who does not want to walk
// the spans.
type spanStats struct {
	Spans     int     `json:"spans"`
	TotalMS   float64 `json:"total_ms"`
	SelfMS    float64 `json:"self_ms"`
	SelfP50US float64 `json:"self_p50_us_per_op"`
}

func (r *replayer) write() error {
	tf := traceFile{Workload: r.cfg.w.name, Seed: r.cfg.seed, ByName: map[string]spanStats{}, Spans: r.tr.spans}
	for _, s := range r.tr.spans {
		st := tf.ByName[s.Name]
		st.Spans++
		st.TotalMS += float64(s.End-s.Start) / 1e6
		st.SelfMS += float64(s.Self) / 1e6
		tf.ByName[s.Name] = st
		if s.Parent < 0 {
			tf.Requests++
		}
	}
	for name, st := range tf.ByName {
		st.SelfP50US = 1e6 * quantile(r.tr.perOp(name), 0.5)
		tf.ByName[name] = st
	}
	if err := os.MkdirAll(r.cfg.out, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(r.cfg.out, "trace-"+r.cfg.w.name+".json"), data, 0o644)
}
