package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	serenity "github.com/serenity-ml/serenity"
	"github.com/serenity-ml/serenity/internal/bytesize"
	"github.com/serenity-ml/serenity/internal/cache"
	"github.com/serenity-ml/serenity/internal/fleet"
	"github.com/serenity-ml/serenity/internal/govern"
	"github.com/serenity-ml/serenity/internal/trace"
)

// maxRequestBytes bounds a /v1/schedule request body; the largest bundled
// model serializes to well under 1 MB, so 64 MB leaves room for very large
// client graphs without letting one request exhaust memory.
const maxRequestBytes = 64 << 20

// maxBodyPresize caps how much of a declared Content-Length is allocated
// before any of it arrived; a longer body grows the buffer as it comes in.
const maxBodyPresize = 1 << 20

// stageMS breaks the compile time down per pipeline stage, milliseconds.
type stageMS struct {
	Rewrite   float64 `json:"rewrite"`
	Partition float64 `json:"partition"`
	Search    float64 `json:"search"`
	Alloc     float64 `json:"alloc"`
}

// scheduleResponse is the wire format of a successful /v1/schedule call.
// Cached entries are shared across responses, so the struct is immutable
// after construction; Cached, Graph and RewrittenGraph are the per-response
// fields, set on a shallow copy (see respForClient).
type scheduleResponse struct {
	Graph          string             `json:"graph"`
	Nodes          int                `json:"nodes"`
	Fingerprint    string             `json:"fingerprint"`
	Order          []int              `json:"order"`
	Peak           int64              `json:"peak"`
	ArenaSize      int64              `json:"arena_size"`
	BaselinePeak   int64              `json:"baseline_peak"`
	Rewrites       int                `json:"rewrites,omitempty"`
	PartitionSizes []int              `json:"partition_sizes,omitempty"`
	Strategy       string             `json:"strategy"`
	Quality        serenity.Quality   `json:"quality"`
	SegmentQuality []serenity.Quality `json:"segment_quality,omitempty"`
	Fallbacks      int                `json:"fallbacks,omitempty"`
	StatesExplored int64              `json:"states_explored"`
	// SegmentMemoHits reports how many of this compilation's segments were
	// served from the server's cross-request segment memo instead of a fresh
	// search. On a cached response it describes the compilation that built
	// the entry.
	SegmentMemoHits int `json:"segment_memo_hits,omitempty"`
	// SegmentMemoDiskHits is the subset of SegmentMemoHits answered by the
	// persistent schedule store (-store-dir): artifacts surviving from a
	// previous process. Nonzero right after a restart is the warm-start
	// working.
	SegmentMemoDiskHits int `json:"segment_memo_disk_hits,omitempty"`
	// SegmentMemoPeerHits is the subset of SegmentMemoHits answered by the
	// distributed fleet tier (-peers): artifacts another node computed and this
	// one fetched from the key's ring owner instead of re-running the DP.
	SegmentMemoPeerHits int `json:"segment_memo_peer_hits,omitempty"`
	// MaxFrontier is the largest number of coexisting DP signatures any
	// segment's search held — how close the compilation came to the
	// server's state-cap valve.
	MaxFrontier  int     `json:"max_frontier,omitempty"`
	SchedulingMS float64 `json:"scheduling_ms"`
	StageMS      stageMS `json:"stage_ms"`
	Cached       bool    `json:"cached"`
	// RefinementsQueued is Fallbacks when this answer's background repair
	// was pending as the answer was built — queued by this request or by an
	// earlier identical one — so a later identical request can expect exact
	// quality; omitted when no repair is coming (none needed, no refinement
	// pool, or the pool shed the job).
	RefinementsQueued int `json:"refinements_queued,omitempty"`
	// RewrittenGraph is set when identity graph rewriting changed the graph:
	// Order indexes ITS nodes, not the submitted graph's, so clients need it
	// to interpret or execute the schedule. It is always the rewrite of the
	// requester's own graph, with the requester's names. A cache entry
	// never holds one: respForClient attaches it to each cached answer.
	RewrittenGraph *serenity.Graph `json:"rewritten_graph,omitempty"`
	// Trace is the inline span tree a ?debug=trace request asked for. It is
	// only ever set on a per-response copy — cached entries are shared and
	// stay trace-free.
	Trace *traceView `json:"trace,omitempty"`

	// etag is the entity tag of this answer (see etagFor), computed once
	// where the answer is built rather than on every request that serves it.
	etag string
	// rewritten is non-nil exactly when rewriting changed the graph: the
	// answer's write-once rewritten-graph slot, shared by every copy of the
	// answer. The key's first cached hit fills it (see rewrittenFor).
	rewritten *atomic.Pointer[namedGraph]
}

// namedGraph is a rewritten graph together with the names it was derived
// under: namesDigest of its source graph.
type namedGraph struct {
	names [sha256.Size]byte
	g     *serenity.Graph
}

// traceView is the ?debug=trace rendering of one request's span tree,
// attached inline to the schedule response. The same trace stays
// retrievable later via GET /debug/traces/{trace_id}.
type traceView struct {
	TraceID    string        `json:"trace_id"`
	DurationUS int64         `json:"duration_us"`
	Spans      []*trace.Node `json:"spans"`
}

// stageExemplar links one pipeline stage's most recent traced duration to
// the trace that exhibited it, so a dashboard reading the stage latency
// series can jump straight to a concrete span tree.
type stageExemplar struct {
	traceID string
	seconds float64
}

type errorResponse struct {
	Error string `json:"error"`
}

// server is the serenityd compile service: a schedule cache keyed by the
// graph's structural fingerprint plus the effective options, fronted by
// HTTP handlers with Prometheus-style counters.
type server struct {
	opts  serenity.Options
	cache *cache.Cache[*scheduleResponse]
	// segMemo is the process-wide segment-level schedule memo: per-segment
	// search results shared across ALL requests (single and batch, all
	// graphs), so two different models stacking the same cell pay for its
	// DP once. See serenity.SegmentMemo and the -segment-memo-size flag.
	segMemo *serenity.SegmentMemo
	// store, when non-nil, is the persistent tier under segMemo: the
	// on-disk schedule artifact store (-store-dir) that survives restarts,
	// so a redeployed server warm-starts from its predecessor's corpus
	// instead of re-running every DP under live traffic. See
	// serenity.ScheduleStore.
	store *serenity.ScheduleStore
	// maxNodes rejects graphs above this node count (-max-nodes);
	// computeTimeout bounds every request's compilation server-side so a
	// patient client cannot pin a CPU indefinitely (-compute-timeout). A
	// refinement runs under its pool's context instead (enqueueRefine).
	maxNodes       int
	computeTimeout time.Duration
	// maxBody bounds a request body in bytes (maxRequestBytes); a longer one
	// answers 413.
	maxBody int64
	// admit is the priority semaphore over compile slots (-compile-slots):
	// every compilation takes one slot in its class — interactive ahead of
	// batch items, batch ahead of background refinement — and a full class
	// queue answers 429 + Retry-After instead of hanging (see admission).
	admit *admission
	// gov, when enabled, is the process-wide memory governor (-mem-limit):
	// every fresh search reserves its estimated byte footprint, the watchdog
	// samples heap liveness against GOMEMLIMIT-derived watermarks, and the
	// pressure ladder sheds refinement, then batch (429), then forces
	// interactive best-effort searches down to their heuristic fallback
	// instead of letting the process OOM. Nil or disabled is fully
	// transparent. See internal/govern.
	gov *govern.Governor
	// refine is the background refinement pool (-refine-workers): a degraded
	// compilation is served immediately and one job, keyed by the schedule
	// key, re-runs it through schedule in the refinement class (the lowest) —
	// filling the segment memo, the schedule store and the ring owners through
	// the ordinary walk, then this server's response cache. See enqueueRefine
	// and serenity.RefinePool.
	refine *serenity.RefinePool
	// newPipeline builds one compilation's Pipeline from its options. It is
	// serenity.NewPipeline; a field so a test can see what each compile — a
	// request's or a refinement's — was asked for.
	newPipeline func(serenity.Options) (*serenity.Pipeline, error)
	// Fleet tier (-peers/-peer-addr), all nil on a fleetless server: peers
	// is the bounded fetch/replication client the pipeline consults as its
	// PeerTier, and its Ring() is this node's one copy of the consistent-hash
	// membership (admin join/leave swaps it under live traffic); peerSrv the
	// peer-facing HTTP surface (artifact get/put, sync) mounted on the same
	// mux, gated by peerLane; syncer the background anti-entropy loop over
	// the peers client; health the per-peer liveness view, the fleet's one
	// failure detector, driving failover routing. peers, peerSrv, peerLane
	// and health are set together on every fleet node; syncer only with
	// -peer-sync-interval > 0. See internal/fleet.
	peers    *fleet.Client
	peerSrv  *fleet.Server
	peerLane peerLane
	syncer   *fleet.Syncer
	health   *fleet.Health
	// fleetMu serializes concurrent membership edits.
	fleetMu sync.Mutex
	// ready flips once boot completed: store warm-started and the fleet ring
	// (when configured) wired. /readyz answers 503 until then so a load
	// balancer holds traffic off a node still importing its corpus, while
	// /healthz stays a pure liveness probe.
	ready atomic.Bool

	// tracer owns the request trace lifecycle: root spans for sampled and
	// ?debug=trace requests, the tail-sampled retained-trace ring behind
	// GET /debug/traces, the fragment store collecting fleet child spans and
	// refinement lifecycle spans by trace ID, and the degraded-request
	// flight recorder. Always non-nil: it keeps 256 traces, sampled per
	// -trace-sample.
	tracer *trace.Tracer
	// logger is the structured request log (-log-format); request-scoped
	// lines carry request_id and, when the request was traced, trace_id.
	logger *slog.Logger
	// exemplars holds, per pipeline stage, the latest traced compilation's
	// stage time and trace ID — the serenityd_stage_exemplar_seconds series.
	exemplars [4]atomic.Pointer[stageExemplar]

	// flights coalesces concurrent compilations of the same key into one
	// (singleflight); followers of a canceled leader retry on their own.
	flights cache.Group[*scheduleResponse]
	// workSets is the pool of idle request working sets (see workSet).
	workSets chan *workSet

	requests  atomic.Int64 // schedule requests received (batch counts once), including rejected ones
	batches   atomic.Int64 // /v1/schedule/batch requests received
	batchItem atomic.Int64 // graphs submitted across all batch requests
	inFlight  atomic.Int64 // currently executing schedule requests
	coalesced atomic.Int64 // requests served by joining another's flight
	states    atomic.Int64 // DP states explored by non-cached compilations
	errored   atomic.Int64 // requests answered with an error status
	canceled  atomic.Int64 // requests abandoned by the client mid-compile
	fallbacks atomic.Int64 // segments degraded from exact to heuristic search
	heuristic atomic.Int64 // non-cached compilations answered with a heuristic schedule
	// frontierHigh is the largest DP frontier (coexisting signatures) any
	// compilation's search has held since startup — the scheduler's memory
	// high-water mark, fed from Result.MaxFrontier.
	frontierHigh atomic.Int64
	// Cumulative per-stage pipeline time in nanoseconds, fed from
	// Result.Stages by every non-cached compilation that returns a Result.
	stageNS [4]atomic.Int64 // indexed like pipelineStages
	started time.Time
}

// pipelineStages names the stageNS counters' /metrics stage labels, in
// serenity.StageTimings field order; searchStage indexes the search stage.
var pipelineStages = [4]string{"rewrite", "partition", "search", "alloc"}

const searchStage = 2

// handler routes the service endpoints.
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/schedule", s.handleSchedule)
	mux.HandleFunc("/v1/schedule/batch", s.handleScheduleBatch)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	s.registerDebug(mux)
	if s.peerSrv != nil {
		s.peerSrv.Register(mux)
		mux.HandleFunc("GET /admin/fleet", s.handleFleetGet)
		mux.HandleFunc("POST /admin/fleet/join", s.handleFleetJoin)
		mux.HandleFunc("POST /admin/fleet/leave", s.handleFleetLeave)
	}
	return mux
}

// applyRing swaps the fleet membership: the client's ring, which the
// pipeline's routing, the health view and the anti-entropy loop all read, and
// the peer surface's. Callers hold fleetMu.
func (s *server) applyRing(r *fleet.Ring) {
	s.peers.UpdateRing(r)
	s.peerSrv.UpdateRing(r)
}

// fleetStatus is the admin view of the membership: every member plus the
// health state this node currently holds for it.
func (s *server) fleetStatus() map[string]any {
	r := s.peers.Ring()
	states := map[string]string{r.Self(): "self"}
	for _, p := range r.Peers() {
		states[p] = s.health.State(p).String()
	}
	return map[string]any{
		"self":    r.Self(),
		"members": r.Members(),
		"states":  states,
	}
}

func (s *server) handleFleetGet(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.fleetStatus())
}

// handleFleetJoin adds ?peer= to this node's membership view without a
// restart. The new member starts Alive and immediately owns its share of the
// keyspace; call the same endpoint on every other member (or let the joiner
// announce itself) — membership is a per-node view, deliberately without a
// consensus layer, exactly like the -peers flag it extends.
func (s *server) handleFleetJoin(w http.ResponseWriter, r *http.Request) {
	peer := strings.TrimSpace(r.URL.Query().Get("peer"))
	if peer == "" {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("join needs ?peer=<base URL>"))
		return
	}
	s.fleetMu.Lock()
	defer s.fleetMu.Unlock()
	cur := s.peers.Ring()
	next, err := fleet.NewRing(cur.Self(), append(cur.Members(), peer), 0)
	if err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("join %q: %w", peer, err))
		return
	}
	s.applyRing(next)
	writeJSON(w, http.StatusOK, s.fleetStatus())
}

// handleFleetLeave removes ?peer= from this node's membership view; its keys
// fail over to the surviving ring points permanently (a health-driven
// failover, by contrast, unwinds on revival). A node cannot remove itself —
// shut it down instead.
func (s *server) handleFleetLeave(w http.ResponseWriter, r *http.Request) {
	peer := strings.TrimSuffix(strings.TrimSpace(r.URL.Query().Get("peer")), "/")
	if peer == "" {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("leave needs ?peer=<base URL>"))
		return
	}
	s.fleetMu.Lock()
	defer s.fleetMu.Unlock()
	cur := s.peers.Ring()
	if peer == cur.Self() {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("a node cannot leave its own fleet view; stop the process instead"))
		return
	}
	var rest []string
	found := false
	for _, m := range cur.Members() {
		if m == peer {
			found = true
			continue
		}
		rest = append(rest, m)
	}
	if !found {
		s.fail(w, http.StatusNotFound, fmt.Errorf("%q is not a fleet member", peer))
		return
	}
	next, err := fleet.NewRing(cur.Self(), rest, 0)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, fmt.Errorf("leave %q: %w", peer, err))
		return
	}
	s.applyRing(next)
	writeJSON(w, http.StatusOK, s.fleetStatus())
}

func (s *server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	reqID := s.requests.Add(1)
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)

	prm, err := s.requestOptions(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	set, code, err := s.readBody(w, r)
	if err != nil {
		s.fail(w, code, fmt.Errorf("parsing graph: %w", err))
		return
	}
	defer s.releaseWorkSet(set)
	job, code, err := s.decodeGraph(set.body, prm, &set.ws)
	if err != nil {
		s.fail(w, code, err)
		return
	}
	g, key := job.g, job.key
	inm := r.Header.Get("If-None-Match")
	if inm != "" && s.refine.Pending(key) {
		// The client holds a degraded answer whose repair is still queued.
		// Recomputing now would duplicate the refinement's work, so report
		// "unchanged, try again shortly" instead.
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusNotModified)
		return
	}

	// Root span: ?debug=trace requests are always traced (the client was
	// promised the tree); otherwise the ambient sampler picks one in
	// -trace-sample requests.
	var root *trace.SpanHandle
	if prm.debugTrace || s.tracer.Sample() {
		root = s.tracer.StartTrace("schedule",
			trace.Str("graph", g.Name),
			trace.Int("nodes", int64(g.NumNodes())),
			trace.Int("request_id", reqID))
	}

	ctx := r.Context()
	if root != nil {
		ctx = trace.ContextWith(ctx, root)
	}
	resp, cached, code, err := s.runGraph(ctx, job, prm, classInteractive, &set.ws)
	if err != nil {
		if code == 0 {
			// The client is gone; nothing useful to write, and it is not a
			// served error — it gets its own counter.
			s.canceled.Add(1)
			s.tracer.Finish(root, trace.Outcome{Err: err, Force: prm.debugTrace})
			return
		}
		s.tracer.Finish(root, trace.Outcome{Status: code, Err: err, Force: prm.debugTrace})
		s.logSchedule(reqID, root, code, cached, err)
		s.fail(w, code, err)
		return
	}
	if prm.waitRefined > 0 && resp.Fallbacks > 0 {
		if refined := s.awaitRefined(r.Context(), key, prm.waitRefined); refined != nil {
			resp, cached = refined, true
		}
	}
	// A conditional request is compared with the answer schedule returned —
	// cached or fresh — so it costs one cache lookup like any other.
	status := http.StatusOK
	if inm != "" && etagMatch(inm, resp.etag) {
		status = http.StatusNotModified
	}
	if root != nil {
		root.Annotate(trace.Bool("cached", cached), trace.Int("fallbacks", int64(resp.Fallbacks)))
	}
	td := s.tracer.Finish(root, trace.Outcome{
		Status:   status,
		Degraded: resp.Fallbacks > 0,
		Force:    prm.debugTrace,
	})
	if root != nil && !cached {
		s.noteExemplars(root.TraceID().String(), resp.StageMS)
	}
	s.logSchedule(reqID, root, status, cached, nil)
	if status == http.StatusNotModified {
		// The client already holds this answer.
		w.Header().Set("ETag", resp.etag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	out, err := respForClient(resp, cached, g)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, err)
		return
	}
	if prm.debugTrace && td != nil {
		// The trace rides on this response's own copy, never on a shared
		// cached entry.
		out.Trace = &traceView{
			TraceID:    td.ID.String(),
			DurationUS: td.Duration.Microseconds(),
			Spans:      trace.Tree(td.Start, td.Spans),
		}
	}
	writeScheduleResponse(w, &out, set)
}

// graphJob is one submitted graph on the per-graph path the single and batch
// endpoints share: decoded, size-gated, fingerprinted and keyed.
type graphJob struct {
	g       *serenity.Graph
	fp, key string
}

// readBody acquires the request's working set and reads a body of at most
// maxBody bytes into it, grown up front to Content-Length when the client
// declared one. The caller releases the set once the response is written. A
// non-nil error comes with the status to answer it with — 413 past the limit,
// else 400 — and the set already released.
func (s *server) readBody(w http.ResponseWriter, r *http.Request) (*workSet, int, error) {
	set := s.acquireWorkSet()
	buf := bytes.NewBuffer(set.body[:0])
	if n := min(r.ContentLength, s.maxBody, maxBodyPresize); n > 0 {
		// MinRead spare bytes let ReadFrom see EOF without growing.
		buf.Grow(int(n) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, s.maxBody))
	set.body = buf.Bytes()
	if err != nil {
		s.releaseWorkSet(set)
		if errors.As(err, new(*http.MaxBytesError)) {
			return nil, http.StatusRequestEntityTooLarge, err
		}
		return nil, http.StatusBadRequest, err
	}
	return set, 0, nil
}

// decodeGraph is the first half of the shared per-graph path: parse, the
// -max-nodes gate, fingerprint, cache key, with the graph decoded in ws. A
// non-nil error comes with the status to answer it with.
func (s *server) decodeGraph(body []byte, prm reqParams, ws *serenity.Workspace) (graphJob, int, error) {
	g, err := ws.DecodeGraph(body)
	if err != nil {
		return graphJob{}, http.StatusBadRequest, fmt.Errorf("parsing graph: %w", err)
	}
	if g.NumNodes() > s.maxNodes {
		return graphJob{}, http.StatusRequestEntityTooLarge,
			fmt.Errorf("graph has %d nodes, server accepts at most %d", g.NumNodes(), s.maxNodes)
	}
	fp := g.Fingerprint()
	return graphJob{g, fp, scheduleKey(fp, prm.opts, prm.deadline, prm.forceDegrade)}, 0, nil
}

// runGraph is the second half: the server's compute budget and the client's
// deadline around schedule, then the status mapping both endpoints answer
// with. A compilation it leads runs in ws (see schedule). Status 0 means ctx
// itself ended — the client hung up, so there is nobody to answer and err is
// the bare context error.
func (s *server) runGraph(ctx context.Context, j graphJob, prm reqParams, class admitClass, ws *serenity.Workspace) (*scheduleResponse, bool, int, error) {
	run, cancel := context.WithTimeout(ctx, s.computeTimeout)
	defer cancel()
	if prm.deadline > 0 {
		// The client's own compile deadline: under strategy=best-effort it
		// degrades the search instead of failing it.
		run, cancel = context.WithTimeout(run, prm.deadline)
		defer cancel()
	}
	resp, cached, err := s.schedule(run, j.g, prm.opts, j.fp, j.key, class, prm.forceDegrade, ws)
	if err == nil {
		return resp, cached, http.StatusOK, nil
	}
	if isContextErr(err) && ctx.Err() != nil {
		return nil, false, 0, err
	}
	code, werr := s.scheduleErrorStatus(err, prm.opts.Strategy, prm.deadline)
	return nil, false, code, werr
}

// logSchedule emits the structured per-request log line. Successes log at
// Debug (request volume belongs in /metrics, not the log); errors at Warn.
// Every line carries request_id; traced requests add trace_id, which is the
// key into GET /debug/traces/{id}.
func (s *server) logSchedule(reqID int64, root *trace.SpanHandle, status int, cached bool, err error) {
	args := []any{"request_id", reqID, "status", status}
	if root != nil {
		args = append(args, "trace_id", root.TraceID().String())
	}
	if err != nil {
		args = append(args, "error", err.Error())
		s.logger.Warn("schedule request failed", args...)
		return
	}
	args = append(args, "cached", cached)
	s.logger.Debug("schedule request", args...)
}

// noteExemplars records the freshly compiled stages' times under this
// trace's ID for the /metrics exemplar series.
func (s *server) noteExemplars(traceID string, st stageMS) {
	secs := [4]float64{st.Rewrite / 1000, st.Partition / 1000, st.Search / 1000, st.Alloc / 1000}
	for i, sec := range secs {
		s.exemplars[i].Store(&stageExemplar{traceID: traceID, seconds: sec})
	}
}

// registerDebug mounts the trace inspection surface: the retained-trace
// ring, single-trace span trees, and the flight recorder's incident
// reports. These mount on both the public mux and the -debug-addr mux;
// pprof mounts on the -debug-addr mux ONLY (see main).
func (s *server) registerDebug(mux *http.ServeMux) {
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /debug/traces/{id}", s.handleTraceGet)
	mux.HandleFunc("GET /debug/incidents", s.handleIncidents)
}

func (s *server) handleTraces(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"traces": s.tracer.Traces()})
}

func (s *server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	td := s.tracer.Get(id)
	if td == nil {
		// Deliberately not s.fail: a miss on a debug endpoint is not a served
		// request error.
		writeJSON(w, http.StatusNotFound, errorResponse{Error: fmt.Sprintf("no retained trace %q", id)})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"trace_id":      td.ID.String(),
		"root":          td.Root,
		"start":         td.Start,
		"duration_us":   td.Duration.Microseconds(),
		"status":        td.Status,
		"degraded":      td.Degraded,
		"error":         td.Err,
		"dropped_spans": td.Dropped,
		"spans":         trace.Tree(td.Start, td.Spans),
	})
}

func (s *server) handleIncidents(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"incidents": s.tracer.Incidents()})
}

// awaitRefined polls the response cache for up to budget waiting for key's
// background refinement to land, returning the refined entry or nil if the
// budget (or the client) ran out first. It bails early when the refinement is
// no longer pending — completed (the cache has it), failed, or dropped —
// since no repair is coming.
func (s *server) awaitRefined(ctx context.Context, key string, budget time.Duration) *scheduleResponse {
	timeout := time.NewTimer(budget)
	defer timeout.Stop()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	for {
		if resp, ok := s.cache.Get(key); ok && resp.Fallbacks == 0 {
			return resp
		}
		if !s.refine.Pending(key) {
			// Re-check: the job may have retired between the two tests above,
			// with its cache write already visible.
			if resp, ok := s.cache.Get(key); ok && resp.Fallbacks == 0 {
				return resp
			}
			return nil
		}
		select {
		case <-ctx.Done():
			return nil
		case <-timeout.C:
			return nil
		case <-tick.C:
		}
	}
}

func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// scheduleErrorStatus maps a failed compilation to the HTTP status and
// client-facing error both the single and batch endpoints answer with.
// Callers handle client disconnects beforehand; by the time this runs, a
// context error means a server-side budget fired, and the message tells the
// client which one ran out.
func (s *server) scheduleErrorStatus(err error, strategy serenity.Strategy, deadline time.Duration) (int, error) {
	switch {
	case errors.As(err, new(*errAdmission)):
		// fail() adds the Retry-After header from the error itself.
		return http.StatusTooManyRequests, err
	case errors.Is(err, serenity.ErrMemoryPressure):
		// The memory governor (or the search's own byte valve) aborted the
		// compilation and no degradable fallback absorbed it. A server
		// condition, not a client one: 503 + Retry-After (added by fail()).
		return http.StatusServiceUnavailable,
			&errMemPressure{level: s.gov.Level(), retryAfter: memPressureRetryAfter, cause: err}
	case errors.Is(err, serenity.ErrSearchLimit):
		// The exact search ran into a search valve: the per-level -timeout or
		// the frontier-size cap. Like the compute budget below it is the
		// server's limit, and the same request fails the same way again, so
		// no Retry-After: the message names the valve and the way out.
		return http.StatusServiceUnavailable,
			fmt.Errorf("exact search stopped by the server's step-timeout (-timeout %s) or frontier-size valve (use strategy=best-effort to degrade instead): %w", s.opts.StepTimeout, err)
	case errors.As(err, new(*serenity.ErrBudgetExceeded)):
		return http.StatusUnprocessableEntity, err
	case isContextErr(err):
		if deadline > 0 && deadline <= s.computeTimeout {
			if strategy == serenity.StrategyBestEffort {
				// The deadline expired before the search stage could
				// intercept it and degrade (e.g. during parsing or graph
				// validation): no schedule exists to serve.
				return http.StatusServiceUnavailable,
					fmt.Errorf("the requested %s deadline expired before the search could degrade; raise deadline_ms", deadline)
			}
			return http.StatusServiceUnavailable,
				fmt.Errorf("compilation exceeded the requested %s deadline (use strategy=best-effort to degrade instead)", deadline)
		}
		return http.StatusServiceUnavailable,
			fmt.Errorf("compilation exceeded the server's %s compute budget", s.computeTimeout)
	}
	return http.StatusInternalServerError, err
}

// respForClient prepares a schedule response for the client that submitted
// g, as a copy the caller owns (a value, so it can stay on the caller's
// stack). A compilation's own answer goes out as it is. Every other answer — a
// cache hit, a coalesced follower, a leader whose answer found another
// standing, a ?wait_refined answer, a batch item served from any of these —
// was built from another submission of the same structure. Hits are
// structural, names are the requester's: the client gets a shallow copy
// carrying its own graph name and, when rewriting changed the graph, the
// rewrite of its own graph (rewrittenFor), never the first submitter's node
// names. A coalesced follower of a degraded compute is NOT labeled cached:
// fallback responses are never stored, and clients rely on cached=true
// implying a repeatable (exact-quality) entry.
func respForClient(resp *scheduleResponse, cached bool, g *serenity.Graph) (scheduleResponse, error) {
	c := *resp
	if !cached {
		return c, nil
	}
	c.Cached = resp.Fallbacks == 0
	c.Graph = g.Name
	if resp.rewritten != nil {
		rg, err := rewrittenFor(resp.rewritten, g)
		if err != nil {
			return scheduleResponse{}, err
		}
		c.RewrittenGraph = rg
	}
	return c, nil
}

// rewrittenFor returns the rewritten graph of g, a decoded (so valid) graph,
// for an answer whose slot is slot. The slot's graph serves when it was
// derived under g's names; else g is rewritten through the pipeline's own
// rewrite stage — the structure is the answer's, since the key carries g's
// fingerprint, so the answer's order indexes the result — and the first
// derivation fills the empty slot. A key asked for again under the same names
// so derives once, and a renamed request pays one rewrite without displacing
// the slot.
func rewrittenFor(slot *atomic.Pointer[namedGraph], g *serenity.Graph) (*serenity.Graph, error) {
	names := namesDigest(g)
	if ng := slot.Load(); ng != nil && ng.names == names {
		return ng.g, nil
	}
	rg, _, err := serenity.RewriteGraph(g)
	if err != nil {
		return nil, err
	}
	slot.CompareAndSwap(nil, &namedGraph{names: names, g: rg})
	return rg, nil
}

// namesDigest is the SHA-256 of everything a rewritten graph takes from its
// source that the fingerprint leaves out: the graph's name, then every node's
// name, each prefixed with its length so that no two name lists share a
// digest by moving a boundary. The bytes go through a stack buffer, so it
// allocates nothing.
func namesDigest(g *serenity.Graph) [sha256.Size]byte {
	h := sha256.New()
	var buf [512]byte
	n := 0
	add := func(name string) {
		if len(buf)-n < binary.MaxVarintLen64 {
			h.Write(buf[:n])
			n = 0
		}
		n += binary.PutUvarint(buf[n:], uint64(len(name)))
		for name != "" {
			if n == len(buf) {
				h.Write(buf[:n])
				n = 0
			}
			k := copy(buf[n:], name)
			n += k
			name = name[k:]
		}
	}
	add(g.Name)
	for _, nd := range g.Nodes {
		add(nd.Name)
	}
	h.Write(buf[:n])
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// scheduleKey builds the cache/flight key for one compilation: structural
// fingerprint plus every result-affecting option. Only best-effort results
// depend on the deadline (it decides which segments degrade); exact and
// greedy results are deadline-invariant, so keying them by deadline would
// only fragment the cache. A forced degradation (?degrade=force) gets its
// own key suffix so a drill never coalesces with — or is served from — a
// normal flight, while its background refinement still repairs the forced
// key's cache entry.
func scheduleKey(fp string, opts serenity.Options, deadline time.Duration, forced bool) string {
	key := fp + "|" + optionsKey(opts)
	if opts.Strategy == serenity.StrategyBestEffort {
		key += deadlineKey(deadline)
	}
	if forced {
		key += "|forced"
	}
	return key
}

// schedule returns the response for key, serving from the cache when
// possible, otherwise computing it at most once across concurrent requests
// via the singleflight group: later arrivals join the first request's
// flight, a follower whose leader failed with a context error (the leader's
// client hung up mid-compile) retries with its own context, and a panicking
// compute surfaces as an error to followers instead of a nil response (all
// cache.Group's contract). Successful non-degraded responses enter the
// cache inside the flight, before followers are released, and without the
// rewritten graph: an entry is an answer, not a graph (see putExact).
//
// This is every compilation's one path — an interactive request, a batch
// item, a background refinement. Flights are per class, and the flight's
// leader takes one compile slot in class before computing, so cache and
// coalesced hits are never throttled, only actual compilations; nobody holds
// a slot while waiting on a flight, and nobody waits at a lower class's
// priority. A degraded compute queues its background refinement before
// returning — and reports it in refinements_queued, set here, inside the
// flight, before the response is shared. An exact compute is the key's one
// answer whenever it ran — the repair's, a request that joined the repair's
// searches, or an unpressured one — so it is cached as it is.
//
// A leader compiles in ws, so its answer's
// RewrittenGraph lives in the caller's working set: it reaches the leader's
// own client and nobody else — putExact drops it, and followers get theirs
// from respForClient.
func (s *server) schedule(ctx context.Context, g *serenity.Graph, opts serenity.Options, fingerprint, key string, class admitClass, degrade bool, ws *serenity.Workspace) (*scheduleResponse, bool, error) {
	if resp, ok := s.cache.Get(key); ok {
		return resp, true, nil
	}
	stood := false // the leader found a cached answer standing where it meant to put its own
	resp, shared, err := s.flights.Do(ctx, class.String()+"|"+key, func() (*scheduleResponse, error) {
		// The admission wait is often the dominant latency under load;
		// traced requests get it as its own span so queueing time is never
		// misread as compute time.
		var admSp *trace.SpanHandle
		if sp := trace.FromContext(ctx); sp != nil {
			admSp = sp.Child("admission.wait", trace.Str("class", class.String()))
		}
		release, err := s.admit.acquire(ctx, class)
		admSp.EndErr(err)
		if err != nil {
			return nil, err
		}
		defer release()
		r, err := s.compute(ctx, g, opts, fingerprint, degrade, ws)
		if err != nil {
			return nil, err
		}
		if r.Fallbacks > 0 {
			// Degraded (fallback) schedules are served but not cached: the
			// degradation reflects this moment's load, and pinning it would
			// deny every later identical request the exact answer a quieter
			// server could produce.
			if s.enqueueRefine(ctx, key, g, opts, fingerprint) {
				r.RefinementsQueued = r.Fallbacks
			}
			return r, nil
		}
		if cur, wrote := s.putExact(key, r); !wrote {
			stood = true
			return cur, nil
		}
		// The leader answers with its own compilation, rewritten graph
		// included; followers get theirs from respForClient.
		return r, nil
	})
	if err != nil {
		return nil, false, err
	}
	if shared {
		s.coalesced.Add(1)
	}
	return resp, shared || stood, nil
}

// putExact caches the exact answer r under key unless one already stands, and
// returns the one that stands and whether it is r's: the response cache takes
// the memo hierarchy's write rule, first writer wins. Degraded answers are
// never cached and exact answers to one key are schedule-equal, so whichever
// of a request that compiled alongside the key's repair and the repair itself
// lands first, the other has nothing better to put. The entry is a copy of r
// without the submitter's names or rewritten graph — order, peaks, qualities
// and ETag, a few KB where the graph is tens — sharing r's rewritten-graph
// slot, which stays empty until the key's first hit.
func (s *server) putExact(key string, r *scheduleResponse) (*scheduleResponse, bool) {
	e := *r
	e.Graph, e.RewrittenGraph = "", nil
	return s.cache.PutIfAbsent(key, &e)
}

// enqueueRefine queues the serve-then-refine repair of a degraded answer —
// the one refinement mechanism — and reports whether key's repair is pending
// afterwards (accepted now, or already queued by an earlier identical
// request). The job is the request itself, run through schedule without
// degradation in the refinement class, under the pool's context (no client
// deadline: background work takes the time it needs). It holds one compile
// slot, so it searches one segment at a time whatever parallelism the client
// asked for; optionsKey ignores parallelism, so the key is the client's. The
// exact segments it finds reach memory, disk and their ring owners through
// walkMemo's fill like any request's, and schedule caches the exact answer,
// which is the one an unpressured request would have got, ETag included. The
// job outlives the request, whose graph lives in the request's working set,
// so it compiles a clone on fresh memory.
func (s *server) enqueueRefine(ctx context.Context, key string, g *serenity.Graph, opts serenity.Options, fingerprint string) bool {
	opts.Parallelism = 1
	g = g.Clone()
	return s.refine.Enqueue(ctx, key, func(ctx context.Context) error {
		r, _, err := s.schedule(ctx, g, opts, fingerprint, key, classRefine, false, new(serenity.Workspace))
		if err != nil {
			return err
		}
		if r.Fallbacks > 0 {
			return fmt.Errorf("refinement of %q still degraded (%d fallbacks); keeping it out of the cache", key, r.Fallbacks)
		}
		return nil
	}) || s.refine.Pending(key)
}

// compute runs one compilation in ws. degrade forces every best-effort
// segment down the heuristic path (?degrade=force) — the deterministic
// overload drill for the serve-then-refine machinery.
func (s *server) compute(ctx context.Context, g *serenity.Graph, opts serenity.Options, fingerprint string, degrade bool, ws *serenity.Workspace) (*scheduleResponse, error) {
	p, err := s.newPipeline(opts)
	if err != nil {
		return nil, err
	}
	if degrade {
		if be, ok := p.Searcher.(serenity.BestEffort); ok {
			be.SkipExact = true
			p.Searcher = be
		}
	}
	// One process-wide memo across every request: per-segment results are
	// interchangeable wherever the segment fingerprint and strategy match,
	// whatever graph they arrived in. The store beneath it extends the same
	// sharing across process restarts.
	p.SegmentMemo = s.segMemo
	p.Store = s.store
	if s.gov.Enabled() {
		// Every fresh segment search reserves its estimated footprint with
		// the governor; at Critical the floor grant aborts the search before
		// it expands, which best-effort absorbs as a heuristic fallback and
		// exact strategies surface as ErrMemoryPressure (503).
		p.Govern = governAdapter{s.gov}
	}
	if s.peers != nil {
		// Conditional so a fleetless server leaves the interface nil rather
		// than holding a typed nil *fleet.Client.
		p.Peers = s.peers
	}
	res, err := p.RunIn(ctx, g, ws)
	if res != nil {
		// Over-budget compilations (ErrBudgetExceeded) still ran the full
		// pipeline; their stage time, fallbacks and states count. A
		// compilation that failed mid-pipeline returns no Result and counts
		// nothing. Segment-memo hits add no states: they replay a stored
		// count into StatesExplored without exploring anything.
		st := res.Stages
		for i, d := range [4]time.Duration{st.Rewrite, st.Partition, st.Search, st.Alloc} {
			s.stageNS[i].Add(int64(d))
		}
		s.states.Add(res.FreshStatesExplored)
		if res.Fallbacks > 0 {
			s.fallbacks.Add(int64(res.Fallbacks))
			// Flight recorder: a degradation snapshots the recent span
			// history across all requests, plus this request's spans so far
			// when it was traced (its root span is still open).
			s.tracer.Incident("fallback", trace.FromContext(ctx))
		}
		for {
			cur := s.frontierHigh.Load()
			if int64(res.MaxFrontier) <= cur || s.frontierHigh.CompareAndSwap(cur, int64(res.MaxFrontier)) {
				break
			}
		}
	}
	if err != nil {
		return nil, err
	}
	if res.Quality == serenity.QualityHeuristic {
		s.heuristic.Add(1)
	}
	resp := &scheduleResponse{
		Graph:               g.Name,
		Nodes:               res.Graph.NumNodes(),
		Fingerprint:         fingerprint,
		Order:               res.Order,
		Peak:                res.Peak,
		ArenaSize:           res.ArenaSize,
		BaselinePeak:        res.BaselinePeak,
		Rewrites:            res.RewriteCount,
		PartitionSizes:      res.PartitionSizes,
		Strategy:            p.Searcher.Name(),
		Quality:             res.Quality,
		SegmentQuality:      res.SegmentQuality,
		Fallbacks:           res.Fallbacks,
		StatesExplored:      res.StatesExplored,
		SegmentMemoHits:     res.SegmentMemoHits,
		SegmentMemoDiskHits: res.SegmentMemoDiskHits,
		SegmentMemoPeerHits: res.SegmentMemoPeerHits,
		MaxFrontier:         res.MaxFrontier,
		SchedulingMS:        float64(res.SchedulingTime.Microseconds()) / 1000,
		StageMS: stageMS{
			Rewrite:   float64(res.Stages.Rewrite.Microseconds()) / 1000,
			Partition: float64(res.Stages.Partition.Microseconds()) / 1000,
			Search:    float64(res.Stages.Search.Microseconds()) / 1000,
			Alloc:     float64(res.Stages.Alloc.Microseconds()) / 1000,
		},
	}
	if res.Rewritten {
		resp.RewrittenGraph = res.Graph
		resp.rewritten = new(atomic.Pointer[namedGraph])
	}
	resp.etag = etagFor(resp)
	return resp, nil
}

// governAdapter bridges internal/govern's concrete *Reservation to the root
// package's SearchReservation interface (Go method results are invariant, so
// *govern.Governor cannot satisfy serenity.MemoryGovernor directly even
// though *govern.Reservation satisfies serenity.SearchReservation).
type governAdapter struct{ g *govern.Governor }

func (a governAdapter) Reserve(estimate int64) serenity.SearchReservation {
	return a.g.Reserve(estimate)
}

// reqParams is one request's decoded scheduling parameters.
type reqParams struct {
	opts     serenity.Options
	deadline time.Duration
	// forceDegrade (?degrade=force, best-effort only) skips the exact
	// search outright, as if the deadline expired at search start — the
	// deterministic way to drill the serve-then-refine path.
	forceDegrade bool
	// waitRefined (?wait_refined=ms) bounds how long the handler may hold a
	// degraded response back waiting for its background refinement.
	waitRefined time.Duration
	// debugTrace (?debug=trace) traces this request unconditionally and
	// returns the span tree inline in the response.
	debugTrace bool
}

// requestOptions derives the effective scheduling options for one request —
// the server's defaults overridden by query parameters — plus the client's
// optional compile deadline and the serve-then-refine parameters.
// Options.Validate runs here so a bad request fails with a clear 400
// instead of a deep-pipeline error.
func (s *server) requestOptions(r *http.Request) (reqParams, error) {
	opts := s.opts
	var deadline time.Duration
	q := r.URL.Query()
	if v := q.Get("parallelism"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil {
			return reqParams{}, fmt.Errorf("bad parallelism %q", v)
		}
		opts.Parallelism = p
	}
	if v := q.Get("budget"); v != "" {
		b, err := bytesize.Parse(v)
		if err != nil {
			return reqParams{}, err
		}
		opts.MemoryBudget = b
	}
	if v := q.Get("rewrite"); v != "" {
		on, err := strconv.ParseBool(v)
		if err != nil {
			return reqParams{}, fmt.Errorf("bad rewrite %q", v)
		}
		opts.Rewrite = on
	}
	if v := q.Get("partition"); v != "" {
		on, err := strconv.ParseBool(v)
		if err != nil {
			return reqParams{}, fmt.Errorf("bad partition %q", v)
		}
		opts.Partition = on
	}
	if v := q.Get("strategy"); v != "" {
		st, err := serenity.ParseStrategy(v)
		if err != nil {
			return reqParams{}, err
		}
		opts.Strategy = st
	}
	if v := q.Get("deadline_ms"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms <= 0 {
			return reqParams{}, fmt.Errorf("bad deadline_ms %q (want a positive integer)", v)
		}
		deadline = time.Duration(ms) * time.Millisecond
	}
	if err := opts.Validate(); err != nil {
		return reqParams{}, err
	}
	params := reqParams{opts: opts, deadline: deadline}
	if v := q.Get("degrade"); v != "" {
		if v != "force" {
			return reqParams{}, fmt.Errorf("bad degrade %q (the only value is \"force\")", v)
		}
		if opts.Strategy != serenity.StrategyBestEffort {
			return reqParams{}, fmt.Errorf("degrade=force requires strategy=best-effort (only a degradable strategy can skip its exact search)")
		}
		params.forceDegrade = true
	}
	if v := q.Get("wait_refined"); v != "" {
		ms, err := strconv.ParseInt(v, 10, 64)
		if err != nil || ms < 0 {
			return reqParams{}, fmt.Errorf("bad wait_refined %q (want milliseconds)", v)
		}
		params.waitRefined = time.Duration(ms) * time.Millisecond
	}
	if v := q.Get("debug"); v != "" {
		if v != "trace" {
			return reqParams{}, fmt.Errorf("bad debug %q (the only value is \"trace\")", v)
		}
		params.debugTrace = true
	}
	return params, nil
}

// optionsKey renders every result-affecting option into the cache key.
// Parallelism is deliberately excluded: it introduces no nondeterminism of
// its own and every returned schedule is peak-optimal for its options, so
// results are interchangeable across Parallelism settings.
func optionsKey(o serenity.Options) string {
	return fmt.Sprintf("r%t:p%t:a%t:t%d:b%d:s%d:y%s",
		o.Rewrite, o.Partition, o.AdaptiveBudget,
		o.StepTimeout, o.MemoryBudget, o.MaxStates, o.Strategy)
}

// deadlineKey extends a cache key with the client deadline: under
// strategy=best-effort the deadline changes which segments degrade, so
// responses are only interchangeable at the same deadline.
func deadlineKey(d time.Duration) string {
	if d <= 0 {
		return ""
	}
	return fmt.Sprintf("|d%d", d)
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{
		"status": "ok",
		"uptime": time.Since(s.started).Round(time.Millisecond).String(),
	})
}

// handleReadyz is the readiness probe, distinct from liveness: it answers 503
// until the boot sequence finished (persistent store warm-started, fleet ring
// wired when configured), so an orchestrator keeps traffic off a node still
// importing its corpus without restarting a process that is merely slow.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "starting"})
		return
	}
	resp := map[string]any{
		"status": "ready",
		"uptime": time.Since(s.started).Round(time.Millisecond).String(),
	}
	if s.peers != nil {
		ring := s.peers.Ring()
		resp["fleet_members"] = len(ring.Members())
		resp["fleet_self"] = ring.Self()
		states := map[string]string{}
		for peer, st := range s.health.Snapshot() {
			states[peer] = st.String()
		}
		resp["peer_states"] = states
	}
	if s.gov.Enabled() {
		gs := s.gov.Stats()
		resp["mem_pressure"] = gs.Level.String()
		resp["mem_reserved_bytes"] = gs.Reserved
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) fail(w http.ResponseWriter, code int, err error) {
	s.errored.Add(1)
	var adm *errAdmission
	if errors.As(err, &adm) {
		// Admission rejections always carry backoff advice and always answer
		// 429, whatever status the call site guessed.
		code = http.StatusTooManyRequests
		w.Header().Set("Retry-After", strconv.Itoa(int(adm.retryAfter/time.Second)))
	}
	var mem *errMemPressure
	if errors.As(err, &mem) {
		// Memory-pressure rejections answer 503 + Retry-After: the server's
		// condition, not the client's rate.
		code = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", strconv.Itoa(int(mem.retryAfter/time.Second)))
	}
	if code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable {
		// Flight recorder: every shed or pressure answer snapshots the span
		// history leading up to it, so the moments before an overload stay
		// inspectable after the fact (GET /debug/incidents).
		s.tracer.Incident(fmt.Sprintf("http_%d", code), nil)
	}
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

// etagFor derives the entity tag clients revalidate against: a content hash
// over everything that distinguishes one served schedule from another. A
// refined answer never shares a tag with the degraded one it replaced because
// their quality, fallbacks and order differ; it shares the unpressured exact
// answer's tag because it is that answer. The value is stored in
// scheduleResponse.etag; the format is pinned (TestETagPinned) so tags
// survive a deploy.
func etagFor(resp *scheduleResponse) string {
	// The hashed bytes are "fingerprint|1|quality|peak|arena|fallbacks|[o0
	// o1 …]", the layout every tag ever served was computed over
	// (TestETagMatchesFmtForm). The 1 fills the slot a per-answer version
	// number once held: keeping the layout keeps every tag a client already
	// holds valid.
	b := make([]byte, 0, 64+len(resp.Fingerprint)+len(resp.Quality)+8*len(resp.Order))
	b = append(b, resp.Fingerprint...)
	b = append(b, "|1|"...)
	b = append(b, resp.Quality...)
	b = append(b, '|')
	b = strconv.AppendInt(b, resp.Peak, 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, resp.ArenaSize, 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(resp.Fallbacks), 10)
	b = append(b, "|["...)
	for i, id := range resp.Order {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	b = append(b, ']')
	h := fnv.New64a()
	h.Write(b)
	return `"` + hex.EncodeToString(h.Sum(nil)) + `"`
}

// etagMatch implements If-None-Match matching: a comma-separated candidate
// list, weak validators compared by value, and "*" matching anything.
func etagMatch(header, etag string) bool {
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		cand = strings.TrimPrefix(cand, "W/")
		if cand == "*" || cand == etag {
			return true
		}
	}
	return false
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
