// Command serenityd is the SERENITY compile server: it schedules dataflow
// graphs for minimum peak activation memory over HTTP, caching results by
// structural fingerprint so repeated compilations of the same topology are
// O(1).
//
//	serenityd -addr :7433 [-cache 256] [-parallelism 8] [-timeout 1s]
//
// Endpoints:
//
//	POST /v1/schedule   body: graph in the JSON IR format (see internal/graph)
//	                    query: parallelism=N, budget=250KiB, rewrite=false,
//	                    partition=false, strategy=exact|greedy|best-effort,
//	                    deadline_ms=N override the server defaults; with
//	                    strategy=best-effort an expiring deadline degrades
//	                    the search to the greedy heuristic instead of
//	                    failing the request. degrade=force (best-effort
//	                    only) skips the exact search outright — the
//	                    deterministic overload drill. wait_refined=ms holds
//	                    a degraded response back up to that long waiting
//	                    for its background refinement to land.
//	                    response: order, peak, arena_size, quality,
//	                    segment_quality, fallbacks, stage_ms,
//	                    segment_memo_hits, schedule_version, ...; when
//	                    rewriting changed the graph, rewritten_graph
//	                    carries the IR the order indexes. Every response
//	                    carries an ETag; a client holding a degraded answer
//	                    revalidates with If-None-Match and gets 304 until
//	                    the refinement bumps schedule_version
//	POST /v1/schedule/batch
//	                    body: {"items": [<graph>, ...]} (same IR, up to 256
//	                    graphs); same query parameters, applied to every
//	                    item. Items fan out over a worker pool bounded by
//	                    parallelism and are answered per item: the response
//	                    is {"items": [{index, status, schedule|error},...],
//	                    "scheduled": N, "failed": M} with per-item statuses
//	                    matching the single endpoint (one bad graph fails
//	                    its item, not the batch)
//	GET  /healthz       liveness probe
//	GET  /metrics       Prometheus-style counters (cache hits, in-flight
//	                    requests, states explored, fallbacks, per-stage
//	                    compile seconds, segment memo hits/misses, ...)
//
// Beyond the whole-graph schedule cache, the server keeps a cross-request
// *segment* memo (-segment-memo-size, 0 disables): per-segment DP results
// keyed by the segment's structural fingerprint plus the strategy, shared
// across all requests. Different models that stack the same cell — the
// repeated-cell shape of NAS-style irregularly wired networks — pay for that
// cell's DP once, ever; concurrent requests for the same segment coalesce
// into one search. Degraded (deadline-fallback) segment results are never
// memoized, so one overloaded moment cannot pin heuristic schedules.
//
// Degraded answers are provisional, not final: a compilation that fell back
// queues its exact re-search with the background refinement pool
// (-refine-workers/-refine-queue), which repairs the segment memo, the
// persistent store, and the response cache once the load subsides — serve
// now, refine when quiet. Compile slots (-compile-slots) are granted by a
// strict-priority admission controller: interactive requests ahead of batch,
// batch ahead of refinement, each class's wait queue bounded (-admit-queue)
// and answering 429 + Retry-After when full instead of hanging connections.
//
// A memory governor (-mem-limit, or GOMEMLIMIT when unset) keeps the whole
// degradation machinery ahead of the OOM killer: every fresh search reserves
// its estimated byte footprint, sampled heap liveness plus the reservation
// ledger is compared against 70/85/95% watermarks, and rising pressure sheds
// work in reverse priority order — background refinement parks first
// (re-enqueued when pressure clears), then batch requests answer 429 +
// Retry-After, and at Critical new searches are granted a floor reservation
// that aborts them before they expand, so interactive best-effort traffic
// degrades to its heuristic fallback (repaired later by refinement) and
// exact-strategy requests answer 503 + Retry-After. The search core enforces
// the granted ceilings itself through byte-accurate frontier accounting, so
// a search never retains more than its reservation no matter what the
// watchdog sees. Pressure state is exported on /metrics (serenityd_mem_*)
// and /readyz.
//
// With -store-dir the memo gains a persistent tier: per-segment results are
// also written (asynchronously) to a content-addressed on-disk artifact
// store, and a restarted server warm-starts from it — lookups fall through
// memory → disk → fresh DP, so a deploy, crash, or autoscale event no longer
// re-pays the whole corpus under live traffic. The store is size-bounded
// (-store-max-bytes, LRU), checksummed per record, and survives corruption
// by recomputing (see serenity.ScheduleStore and the serenity store
// subcommand for ls/verify/gc/export/import). On SIGINT/SIGTERM the server
// drains in-flight requests for -drain-timeout and flushes the store before
// exiting.
//
// With -peer-addr and -peers the store becomes one shard of a distributed
// compile fleet: a static cluster of serenityd instances sharing one global
// artifact corpus over a consistent-hash ring, so each distinct segment
// fingerprint pays its DP once fleet-wide. A memo/disk miss asks the key's
// ring owner (GET /v1/peer/segment/{key}, budgeted by -peer-timeout) before
// falling back to the local DP; fresh local computes of non-owned keys are
// replicated to their owners in the background; and a pull-based anti-entropy
// loop (-peer-sync-interval) converges whatever replication missed, a capped
// batch per round. Peer traffic runs in its own admission lane (-peer-slots),
// apart from compile slots. Every fleet failure mode — dead peer, slow peer,
// corrupt artifact — degrades to local compute, never to a client-visible
// error. GET /readyz answers 503 until the store warm-start and ring wiring
// finish, so load balancers can hold traffic off a booting node (/healthz
// stays a pure liveness probe).
//
// Membership is dynamic: a background health prober (-peer-probe-interval,
// -peer-probe-timeout) heartbeats every peer's /readyz and drives it through
// alive -> suspect (-peer-suspect-after failures; the fetch path skips it
// immediately, so a freshly dead owner stops costing timeouts after its FIRST
// failure) -> dead (-peer-dead-after; every path routes around it and its
// keys fail over to the next live ring point, identically on every node) and
// back (-peer-revive-after successes). Fetch outcomes feed the same detector,
// so discovery does not wait for the next probe tick. POST
// /admin/fleet/join?peer=URL and /admin/fleet/leave?peer=URL edit this node's
// membership view without a restart (GET /admin/fleet shows it); a booting
// node pre-streams the fleet corpus to convergence before reporting ready
// (-peer-join-sync, bounded by -peer-join-timeout), so the moment it takes
// ownership it serves its keys with zero fresh DP searches. Per-peer health
// is exported as serenityd_peer_state{peer,state} gauges plus probe/failover
// counters on /metrics and in the /readyz payload.
//
// Example:
//
//	graphgen -net swiftnet-a -o model.json   # any JSON IR producer works
//	curl -s -X POST --data-binary @model.json localhost:7433/v1/schedule
//
// With -loadgen the binary instead starts an in-process server, fires
// -loadgen-n requests at it from -loadgen-c concurrent clients drawing from
// the bundled benchmark models under a rotating mix of strategies (exact,
// greedy, best-effort-with-deadline), and prints the achieved throughput —
// a self-contained demonstration of the cache, the concurrent scheduler,
// and the degradable search path.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	serenity "github.com/serenity-ml/serenity"
	"github.com/serenity-ml/serenity/internal/bytesize"
	"github.com/serenity-ml/serenity/internal/fleet"
	"github.com/serenity-ml/serenity/internal/govern"
	"github.com/serenity-ml/serenity/internal/trace"
)

func main() {
	addr := flag.String("addr", ":7433", "listen address")
	cacheSize := flag.Int("cache", 256, "schedule cache capacity (entries)")
	segMemoSize := flag.Int("segment-memo-size", 4096, "cross-request segment memo capacity (segment results; 0 disables)")
	parallelism := flag.Int("parallelism", runtime.GOMAXPROCS(0), "per-request segment scheduling parallelism")
	strategy := flag.String("strategy", "exact", "default search strategy (exact|greedy|best-effort); requests override with ?strategy=")
	stepTimeout := flag.Duration("timeout", time.Second, "adaptive soft budgeting step timeout T")
	noRewrite := flag.Bool("no-rewrite", false, "disable identity graph rewriting")
	noPartition := flag.Bool("no-partition", false, "disable divide-and-conquer")
	maxNodes := flag.Int("max-nodes", 20000, "reject graphs with more nodes (0 = unlimited)")
	computeTimeout := flag.Duration("compute-timeout", 2*time.Minute, "server-side limit per compilation (0 = unlimited)")
	storeDir := flag.String("store-dir", "", "persist segment schedules to this directory and warm-start from it on boot (empty = in-memory only)")
	storeMax := flag.String("store-max-bytes", "256MiB", "persistent store size bound, e.g. 64MiB or 0 for unbounded (requires -store-dir)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "graceful shutdown: how long to wait for in-flight compilations on SIGINT/SIGTERM")
	compileSlots := flag.Int("compile-slots", runtime.GOMAXPROCS(0), "concurrently executing compilations; interactive > batch > refinement priority (0 = unlimited, no admission control)")
	admitQueue := flag.Int("admit-queue", 64, "per-class admission wait-queue depth; a full class answers 429 + Retry-After")
	refineWorkers := flag.Int("refine-workers", 1, "background refinement workers repairing degraded schedules (0 disables serve-then-refine)")
	refineQueue := flag.Int("refine-queue", 256, "background refinement queue depth; overflow refinements are shed")
	memLimit := flag.String("mem-limit", "", "byte budget the memory governor defends, e.g. 256MiB; empty derives it from GOMEMLIMIT, 0 disables the governor")
	memHeadroom := flag.String("mem-headroom", "", "slack subtracted from -mem-limit before pressure watermarks are computed (runtime, buffers); empty = limit/16")
	peersFlag := flag.String("peers", "", "comma-separated fleet member base URLs (e.g. http://10.0.0.5:7433,http://10.0.0.6:7433); requires -peer-addr")
	peerAddr := flag.String("peer-addr", "", "this node's own base URL as fleet peers dial it; joins the fleet and requires -store-dir (the store is the fleet-visible corpus)")
	peerVnodes := flag.Int("peer-vnodes", fleet.DefaultVirtualNodes, "consistent-hash virtual nodes per fleet member")
	peerTimeout := flag.Duration("peer-timeout", 250*time.Millisecond, "per-attempt budget for one peer artifact fetch; a slow peer costs at most two of these, then its breaker trips")
	peerConcurrency := flag.Int("peer-concurrency", 8, "in-flight peer fetches; arrivals beyond the bound skip the fleet tier instead of queueing")
	peerSlots := flag.Int("peer-slots", 4, "concurrently served peer requests, a dedicated admission lane apart from -compile-slots (0 = unlimited)")
	peerSyncInterval := flag.Duration("peer-sync-interval", 15*time.Second, "anti-entropy round interval, jittered per node (0 disables the background sync loop)")
	peerSyncBatch := flag.Int("peer-sync-batch", 512, "max store records pulled per anti-entropy round; a rebooted node converges over several rounds instead of thundering onto one peer")
	peerProbeInterval := flag.Duration("peer-probe-interval", 2*time.Second, "health probe round interval, jittered per node (0 disables health-driven failover; the fleet falls back to breaker-only protection)")
	peerProbeTimeout := flag.Duration("peer-probe-timeout", 500*time.Millisecond, "budget for one health probe against a peer's /readyz")
	peerSuspectAfter := flag.Int("peer-suspect-after", 1, "consecutive probe/fetch failures before a peer is suspect (skipped by the fetch path)")
	peerDeadAfter := flag.Int("peer-dead-after", 3, "consecutive failures before a peer is dead (skipped by every path; its keys fail over)")
	peerReviveAfter := flag.Int("peer-revive-after", 1, "consecutive probe successes before a suspect or dead peer is alive again")
	peerJoinSync := flag.Bool("peer-join-sync", true, "pre-stream the fleet corpus (anti-entropy until convergence) before reporting ready, so a joining node serves its owned keys without re-running DPs")
	peerJoinTimeout := flag.Duration("peer-join-timeout", 30*time.Second, "bound on the join pre-stream; on expiry the node goes ready with whatever converged (anti-entropy finishes the rest in the background)")
	logFormat := flag.String("log-format", "text", "structured log encoding: text or json (log/slog; request lines carry request_id and trace_id)")
	logLevel := flag.String("log-level", "info", "minimum log level: debug|info|warn|error (per-request success lines log at debug)")
	debugAddr := flag.String("debug-addr", "", "separate listener for net/http/pprof plus the /debug/traces surface; never mounted on the public port (empty disables pprof entirely)")
	traceSample := flag.Int("trace-sample", 0, "ambiently trace one in N schedule requests into the /debug/traces ring (0 = only ?debug=trace requests)")
	traceRing := flag.Int("trace-ring", 256, "retained traces in the /debug/traces ring (tail-sampled: degraded, erred, and slowest requests are always kept)")
	loadgen := flag.Bool("loadgen", false, "run the load generator against an in-process server instead of serving")
	loadN := flag.Int("loadgen-n", 200, "loadgen: total requests")
	loadC := flag.Int("loadgen-c", 16, "loadgen: concurrent clients")
	loadgenMem := flag.Bool("loadgen-mem", false, "run the self-asserting memory-pressure drill (walks the governor's shed ladder, then proves recovery) instead of serving; needs -mem-limit or GOMEMLIMIT")
	flag.Parse()

	opts := serenity.DefaultOptions()
	opts.Rewrite = !*noRewrite
	opts.Partition = !*noPartition
	opts.StepTimeout = *stepTimeout
	opts.Parallelism = *parallelism
	st, err := serenity.ParseStrategy(*strategy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serenityd:", err)
		os.Exit(2)
	}
	opts.Strategy = st
	if err := opts.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "serenityd:", err)
		os.Exit(2)
	}

	// Structured logging first: every later boot line goes through it.
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintln(os.Stderr, "serenityd: -log-level:", err)
		os.Exit(2)
	}
	var lh slog.Handler
	switch *logFormat {
	case "text":
		lh = slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})
	case "json":
		lh = slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})
	default:
		fmt.Fprintln(os.Stderr, `serenityd: -log-format must be "text" or "json"`)
		os.Exit(2)
	}
	logger := slog.New(lh)
	slog.SetDefault(logger)

	s := newServer(opts, *cacheSize)
	s.logger = logger
	// The tracer exists regardless of sampling: ?debug=trace requests are
	// always traced, and the fleet/refinement layers feed fragments into it.
	s.tracer = trace.New(trace.Options{RingSize: *traceRing, SampleEvery: *traceSample})
	if *segMemoSize > 0 {
		s.segMemo = serenity.NewSegmentMemo(*segMemoSize)
	}
	s.maxNodes = *maxNodes
	s.computeTimeout = *computeTimeout
	if *compileSlots > 0 {
		s.admit = newAdmission(*compileSlots, [numClasses]int{*admitQueue, *admitQueue, *admitQueue})
	}

	// Flag-level validation before any resource is opened: a store bound
	// without a store is a configuration mistake, not a silent no-op.
	storeMaxSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "store-max-bytes" {
			storeMaxSet = true
		}
	})
	if storeMaxSet && *storeDir == "" {
		fmt.Fprintln(os.Stderr, "serenityd: -store-max-bytes requires -store-dir")
		os.Exit(2)
	}
	if *peersFlag != "" && *peerAddr == "" {
		fmt.Fprintln(os.Stderr, "serenityd: -peers requires -peer-addr (this node's own base URL)")
		os.Exit(2)
	}
	if *peerAddr != "" && *storeDir == "" {
		fmt.Fprintln(os.Stderr, "serenityd: -peer-addr requires -store-dir (the persistent store is the fleet-visible artifact corpus)")
		os.Exit(2)
	}
	if *storeDir != "" {
		maxBytes, err := bytesize.Parse(*storeMax)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serenityd: -store-max-bytes:", err)
			os.Exit(2)
		}
		store, err := serenity.OpenScheduleStore(*storeDir, maxBytes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serenityd: opening schedule store:", err)
			os.Exit(1)
		}
		s.store = store
		st := store.Stats()
		logger.Info("warm-start from schedule store",
			"artifacts", st.Entries, "bytes", st.LiveBytes, "dir", *storeDir, "corrupt_skipped", st.CorruptRecords)
	}

	if *peerAddr != "" {
		ring, err := fleet.NewRing(*peerAddr, splitPeers(*peersFlag), *peerVnodes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serenityd:", err)
			os.Exit(2)
		}
		s.ring.Store(ring)
		s.peerVnodes = *peerVnodes
		if *peerProbeInterval > 0 {
			// Probes target /readyz, not the fleet ping: a node pre-streaming
			// its corpus answers 503 and therefore takes no ownership until
			// its join handoff completes.
			s.health = fleet.NewHealth(ring.Peers(), fleet.HealthOptions{
				Interval:     *peerProbeInterval,
				Timeout:      *peerProbeTimeout,
				SuspectAfter: *peerSuspectAfter,
				DeadAfter:    *peerDeadAfter,
				ReviveAfter:  *peerReviveAfter,
				ProbePath:    "/readyz",
				OnTransition: func(peer string, from, to fleet.State) {
					logger.Info("fleet peer transition", "peer", peer, "from", from.String(), "to", to.String())
				},
			})
		}
		s.peers = fleet.NewClient(ring, fleet.ClientOptions{
			Timeout:     *peerTimeout,
			Concurrency: *peerConcurrency,
			Health:      s.health,
		})
		var gate fleet.Gate
		if *peerSlots > 0 {
			gate = peerGate(*peerSlots)
		}
		s.peerSrv = fleet.NewServer(s.store, ring, gate)
		// Peer requests carrying a traceparent header record their serve
		// spans under the caller's trace ID, so one trace stitches across
		// the fleet.
		s.peerSrv.SetTracer(s.tracer)
		if *peerSyncInterval > 0 {
			// The loop starts even on a currently peerless node: admin join can
			// add members later, and the loop idles until one exists.
			s.syncer = fleet.NewSyncer(s.store, ring, fleet.SyncerOptions{
				Interval: *peerSyncInterval,
				Batch:    *peerSyncBatch,
				Health:   s.health,
				Tracer:   s.tracer,
			})
			s.syncer.Start()
		}
		if s.health != nil {
			s.health.Start()
		}
		logger.Info("fleet assembled",
			"members", len(ring.Members()), "self", ring.Self(), "owned_share", ring.OwnedShare(4096))
	}

	// The memory governor converts heap pressure into tiered degradation
	// instead of an OOM kill: refinement parks first, then batch sheds with
	// 429, then interactive searches are forced down to their heuristic
	// fallback (serve-then-refine repairs them once pressure clears). Built
	// before the refinement pool so the pool's pressure signal can hook it.
	govOpts := govern.Options{}
	if *memLimit != "" {
		v, err := bytesize.Parse(*memLimit)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serenityd: -mem-limit:", err)
			os.Exit(2)
		}
		if v <= 0 {
			v = -1 // explicit 0 disables; only an empty flag derives from GOMEMLIMIT
		}
		govOpts.Limit = v
	}
	if *memHeadroom != "" {
		v, err := bytesize.Parse(*memHeadroom)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serenityd: -mem-headroom:", err)
			os.Exit(2)
		}
		govOpts.Headroom = v
	}
	s.gov = govern.New(govOpts)
	if s.gov.Enabled() {
		s.gov.Start()
		logger.Info("memory governor started", "limit_bytes", s.gov.Stats().Limit, "watermarks", "70/85/95%")
	}

	if *refineWorkers > 0 {
		ropts := serenity.RefinePoolOptions{
			Workers:     *refineWorkers,
			QueueDepth:  *refineQueue,
			Parallelism: 1, // background repairs crawl one segment at a time
			// Refinement lifecycle spans (queued/parked/run) link back to the
			// originating request's trace.
			Tracer: s.tracer,
		}
		if s.gov.Enabled() {
			// Refinement is the first work the pressure ladder sheds: parked
			// at Elevated and above, re-enqueued when the level drops back.
			ropts.Pressure = func() bool { return s.gov.Level() >= govern.LevelElevated }
		}
		if s.admit != nil {
			// Refinements compete for the same compile slots as requests, in
			// the lowest priority class: they only run when nothing a client
			// is waiting on needs the CPU.
			ropts.Gate = func(ctx context.Context) (func(), error) {
				return s.admit.acquire(ctx, classRefine, 1)
			}
		}
		s.refine = serenity.NewRefinePool(s.segMemo, s.store, ropts)
	}

	// The serve path flips readiness only after the join pre-stream (below);
	// the loadgen modes have no probers pointed at them and go ready here.
	if *loadgen || *loadgenMem {
		s.ready.Store(true)
	}

	if *loadgenMem {
		err := runMemDrill(s, os.Stdout)
		closeFleet(s)
		closeRefine(s)
		closeGovern(s)
		closeStore(s)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serenityd:", err)
			os.Exit(1)
		}
		return
	}
	if *loadgen {
		err := runLoadgen(s, *loadN, *loadC, os.Stdout)
		closeFleet(s)
		closeRefine(s)
		closeGovern(s)
		closeStore(s)
		if err != nil {
			fmt.Fprintln(os.Stderr, "serenityd:", err)
			os.Exit(1)
		}
		return
	}
	// The pprof surface binds to its own listener ONLY: profiling endpoints
	// never share the public port, so an internet-facing deployment cannot
	// leak heap contents by mux accident. The trace inspection endpoints are
	// mounted here too, for operators who firewall the public /debug/traces.
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("GET /debug/pprof/", pprof.Index)
		dmux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		s.registerDebug(dmux)
		dsrv := &http.Server{
			Addr:              *debugAddr,
			Handler:           dmux,
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			if err := dsrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "addr", *debugAddr, "error", err.Error())
			}
		}()
		logger.Info("debug listener up", "addr", *debugAddr)
	}

	logger.Info("listening", "addr", *addr, "cache", *cacheSize, "parallelism", *parallelism)
	srv := &http.Server{
		Addr:    *addr,
		Handler: s.handler(),
		// No WriteTimeout: compilations may legitimately run long. Header
		// and idle timeouts keep slow or abandoned connections from
		// pinning goroutines and descriptors.
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// Graceful shutdown: the first SIGINT/SIGTERM stops accepting work and
	// drains in-flight compilations for up to -drain-timeout; the store is
	// flushed after the handlers are done writing to it. A second signal
	// kills the process the hard way (signal.NotifyContext restores default
	// handling once the context fires).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.ListenAndServe() }()
	// Join handoff: with the listener up (so /readyz answers 503 and peers'
	// probes see a node that exists but must not take ownership yet), pull the
	// fleet corpus to convergence BEFORE going ready. The moment peers start
	// routing this node's keys at it, it serves them from its store instead of
	// re-running their DPs. A fresh single-node fleet converges instantly; on
	// pre-stream timeout the node goes ready anyway and background anti-entropy
	// finishes the job.
	if s.syncer != nil && *peerJoinSync {
		joinCtx, cancelJoin := context.WithTimeout(ctx, *peerJoinTimeout)
		pulled, err := s.syncer.Converge(joinCtx)
		cancelJoin()
		if err != nil {
			logger.Warn("join pre-stream incomplete; anti-entropy continues in the background",
				"records", pulled, "error", err.Error())
		} else if pulled > 0 {
			logger.Info("join pre-stream complete; serving warm", "records", pulled)
		}
	}
	s.ready.Store(true)
	select {
	case err := <-serveErr:
		closeFleet(s)
		closeRefine(s)
		closeGovern(s)
		closeStore(s)
		fmt.Fprintln(os.Stderr, "serenityd:", err)
		os.Exit(1)
	case <-ctx.Done():
		stop()
		logger.Info("shutting down", "drain_timeout", drainTimeout.String())
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		err := srv.Shutdown(shutdownCtx)
		cancel()
		if err != nil {
			logger.Warn("drain incomplete", "error", err.Error())
		}
		if serr := <-serveErr; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
			logger.Warn("serve error", "error", serr.Error())
		}
		// Shutdown order matters: the syncer and replication client write to
		// the store, the refinement pool writes to the memo, store, and cache,
		// the governor's pressure signal is read by the pool — stop each
		// producer before the tier it feeds, store last.
		closeFleet(s)
		closeRefine(s)
		closeGovern(s)
		closeStore(s)
		logger.Info("stopped")
	}
}

// splitPeers parses the -peers flag: comma-separated base URLs, blanks
// dropped (the ring normalizes and deduplicates further).
func splitPeers(list string) []string {
	var out []string
	for _, p := range strings.Split(list, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// closeFleet stops the anti-entropy loop and the peer fetch/replication
// client. It must precede closeRefine/closeStore so no fleet-driven write
// lands on a store that has already shut down.
func closeFleet(s *server) {
	if s.health != nil {
		s.health.Stop()
		hs := s.health.Stats()
		s.logger.Info("health prober stopped",
			"probes", hs.Probes, "failures", hs.Failures, "transitions", hs.Transitions)
	}
	if s.syncer != nil {
		s.syncer.Stop()
		ys := s.syncer.Stats()
		s.logger.Info("anti-entropy stopped",
			"rounds", ys.Rounds, "pulled", ys.Pulled, "errors", ys.Errors)
	}
	if s.peers != nil {
		s.peers.Close()
		cs := s.peers.Stats()
		s.logger.Info("fleet client stopped",
			"hits", cs.Hits, "misses", cs.Misses, "timeouts", cs.Timeouts,
			"replicated", cs.Replicated, "replication_drops", cs.ReplicationDropped)
	}
}

// closeRefine stops the background refinement pool, canceling the running
// repair and shedding the backlog; it must precede closeStore so the store
// sees no writes after its own shutdown.
func closeRefine(s *server) {
	if s.refine == nil {
		return
	}
	s.refine.Close()
	st := s.refine.Stats()
	s.logger.Info("refinement pool stopped",
		"queued", st.Queued, "done", st.Done, "failed", st.Failed, "dropped", st.Dropped)
}

// closeGovern stops the memory governor's sampling watchdog and logs the
// pressure ledger it retires with. It runs after closeRefine (the pool's
// pressure signal reads the governor; stopping the watchdog first would be
// harmless but backwards) and before closeStore.
func closeGovern(s *server) {
	if !s.gov.Enabled() {
		return
	}
	s.gov.Stop()
	gs := s.gov.Stats()
	s.logger.Info("memory governor stopped",
		"level", gs.Level.String(), "sheds", gs.Sheds, "degraded", gs.Degraded,
		"grows", gs.Grows, "grow_denied", gs.GrowDenied)
}

// closeStore flushes and closes the persistent schedule store, logging the
// corpus it leaves behind for the next boot.
func closeStore(s *server) {
	if s.store == nil {
		return
	}
	if err := s.store.Close(); err != nil {
		s.logger.Warn("closing schedule store failed", "error", err.Error())
		return
	}
	st := s.store.Stats()
	s.logger.Info("schedule store flushed",
		"artifacts", st.Entries, "live_bytes", st.LiveBytes, "writes", st.Writes)
}
