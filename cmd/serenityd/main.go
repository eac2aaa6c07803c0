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
//	                    deadline_ms=N override the server defaults (exact,
//	                    rewriting and partitioning on, -parallelism); with
//	                    strategy=best-effort an expiring deadline degrades
//	                    the search to the greedy heuristic instead of
//	                    failing the request. degrade=force (best-effort
//	                    only) skips the exact search outright — the
//	                    deterministic overload drill. wait_refined=ms holds
//	                    a degraded response back up to that long waiting
//	                    for its background refinement to land.
//	                    response: order, peak, arena_size, quality,
//	                    segment_quality, fallbacks, stage_ms,
//	                    segment_memo_hits, refinements_queued, ...; when
//	                    rewriting changed the graph, rewritten_graph
//	                    carries the IR the order indexes. Every response
//	                    carries an ETag; a client holding a degraded answer
//	                    revalidates with If-None-Match and gets 304 while
//	                    its refinement is pending, then the exact answer,
//	                    whose tag is the unpressured exact answer's
//	POST /v1/schedule/batch
//	                    body: {"items": [<graph>, ...]} (same IR, up to 256
//	                    graphs); same query parameters, applied to every
//	                    item. Items fan out over a worker pool bounded by
//	                    parallelism and are answered per item: the response
//	                    is {"items": [{index, status, schedule|error},...],
//	                    "scheduled": N, "failed": M} with per-item statuses
//	                    matching the single endpoint (one bad graph fails
//	                    its item, not the batch; an item that finds the
//	                    batch admission queue full answers 429)
//	GET  /healthz       liveness probe
//	GET  /metrics       Prometheus-style counters (cache hits, in-flight
//	                    requests, states explored, fallbacks, per-stage
//	                    compile seconds, segment memo hits/misses, ...)
//
// Beyond the whole-graph schedule cache, the server keeps a cross-request
// *segment* memo (-segment-memo-size entries): per-segment DP results
// keyed by the segment's structural fingerprint plus the strategy, shared
// across all requests. Different models that stack the same cell — the
// repeated-cell shape of NAS-style irregularly wired networks — pay for that
// cell's DP once, ever; concurrent requests for the same segment coalesce
// into one search. Degraded (deadline-fallback) segment results are never
// memoized, so one overloaded moment cannot pin heuristic schedules.
//
// Degraded answers are provisional, not final: a response that fell back
// queues exactly one job with the background refinement pool (-refine-workers;
// 256 queued jobs at most) — the same request, recomputed without the pressure
// once the load subsides. That recompute is an ordinary walk of the memo
// hierarchy, so the exact segments it finds land in the segment memo, the
// persistent store and (in a fleet) on their ring owner the way any request's
// do, and the exact answer then takes the degraded one's place in the response
// cache — the same answer, ETag included, an unpressured request would have
// got: serve now, refine when quiet.
// Every compilation — a single request, a batch item, a refinement — takes
// one compile slot (-compile-slots) in its own class from a strict-priority
// admission controller: interactive ahead of batch, batch ahead of
// refinement, each class's wait queue bounded (64 requests) and answering
// 429 + Retry-After when full instead of hanging connections. Cache hits
// take no slot. The server has one shape: the segment memo, admission,
// serve-then-refine and (in a fleet) the peer lane are always built, and
// every request's graph is held to the node cap (-max-nodes) and its
// compilation to the compute budget (-compute-timeout). Their flags size
// them and reject values below 1.
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
// also written, inside the lookup that found them, to a content-addressed
// on-disk artifact store, and a restarted server warm-starts from it — lookups fall through
// memory → disk → fresh DP, so a deploy, crash, or autoscale event no longer
// re-pays the whole corpus under live traffic. The store is size-bounded
// (-store-max-bytes, LRU), checksummed per record, and survives corruption
// by recomputing (see serenity.ScheduleStore and the serenity store
// subcommand for ls/verify/gc/export/import). On SIGINT/SIGTERM the server
// drains in-flight requests for -drain-timeout (closing at once any
// connection that has not sent a request) and syncs and closes the store
// before exiting.
//
// With -peer-addr and -peers the store becomes one shard of a distributed
// compile fleet: a static cluster of serenityd instances sharing one global
// artifact corpus over a consistent-hash ring, so each distinct segment
// fingerprint pays its DP once fleet-wide. A memo/disk miss asks the key's
// ring owner (GET /v1/peer/segment/{key}, budgeted by -peer-timeout) before
// falling back to the local DP; fresh local computes of non-owned keys are
// replicated to their owners in the background; and a pull-based anti-entropy
// loop (-peer-sync-interval) converges whatever replication missed. Each round
// is one exchange: the node POSTs the digest of every key it holds to a live
// peer's /v1/peer/sync, and the peer streams back at most 512 of the records
// the digest lacks. Peer traffic runs in its own admission lane (-peer-slots),
// apart from compile slots. Every fleet failure mode — dead peer, slow peer,
// corrupt artifact — degrades to local compute, never to a client-visible
// error. GET /readyz answers 503 until the store warm-start and ring wiring
// finish, so load balancers can hold traffic off a booting node (/healthz
// stays a pure liveness probe).
//
// Membership is dynamic, and one health view is the fleet's only failure
// detector: a background prober (every 2s, 500ms per probe) heartbeats every
// peer's /readyz and drives it through alive -> suspect (after one failure;
// the fetch path skips it immediately, so a freshly dead owner stops costing
// timeouts after its FIRST failure) -> dead (after three; every path routes
// around it and its keys fail over to the next live ring point, identically on
// every node) and back (after one probe success). These values, the ring's 64
// virtual nodes per member and the 30s join bound are fixed: every member must
// agree on them. Failed fetches and replication pushes feed the same detector,
// so discovery does not wait for the next probe tick. POST
// /admin/fleet/join?peer=URL and /admin/fleet/leave?peer=URL edit this node's
// membership view without a restart (GET /admin/fleet shows it); a booting
// node that runs anti-entropy always pre-streams the fleet corpus to
// convergence before reporting ready (for at most 30s), so the moment it takes
// ownership it serves its keys with zero fresh DP searches. Per-peer health is
// exported as serenityd_peer_state{peer,state} gauges plus probe/failover
// counters on /metrics and in the /readyz payload.
//
// Example:
//
//	graphgen -net swiftnet-a -o model.json   # any JSON IR producer works
//	curl -s -X POST --data-binary @model.json localhost:7433/v1/schedule
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"
)

// main is parse → build → listen → serve → close; run holds the last four so
// tests drive the same path.
func main() {
	cfg, finish := bindFlags(flag.CommandLine)
	flag.Parse()
	err := finish()
	if err == nil {
		// Structured logging first: every later boot line goes through it.
		err = setLogger(cfg.logFormat, cfg.logLevel)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "serenityd:", err)
		os.Exit(2)
	}
	// Graceful shutdown: the first SIGINT/SIGTERM stops accepting work and
	// drains in-flight compilations for up to -drain-timeout; the store is
	// synced and closed after the handlers are done writing to it. A second signal
	// kills the process the hard way (stop restores default handling once the
	// context fires).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	context.AfterFunc(ctx, stop)
	err = run(ctx, *cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "serenityd:", err)
		os.Exit(1)
	}
}

func setLogger(format, level string) error {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return fmt.Errorf("-log-level: %w", err)
	}
	var lh slog.Handler
	switch format {
	case "text":
		lh = slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})
	case "json":
		lh = slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})
	default:
		return errors.New(`-log-format must be "text" or "json"`)
	}
	slog.SetDefault(slog.New(lh))
	return nil
}

// joinTimeout bounds the join pre-stream; on expiry the node goes ready with
// whatever converged, and anti-entropy finishes the rest in the background.
const joinTimeout = 30 * time.Second

// run binds the public port, builds the server, and serves until ctx ends or
// the listener fails. The bind comes first: a busy port fails the process
// before any store is opened, prober started, or corpus pulled.
func run(ctx context.Context, cfg config) error {
	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	s, err := build(cfg)
	if err != nil {
		ln.Close()
		return err
	}
	// The pprof surface binds to its own listener ONLY: profiling endpoints
	// never share the public port, so an internet-facing deployment cannot
	// leak heap contents by mux accident. The trace inspection endpoints are
	// mounted here too, for operators who firewall the public /debug/traces.
	if cfg.debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("GET /debug/pprof/", pprof.Index)
		dmux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		s.registerDebug(dmux)
		dsrv := &http.Server{Addr: cfg.debugAddr, Handler: dmux, ReadHeaderTimeout: 5 * time.Second}
		go func() {
			if err := dsrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				s.logger.Error("debug listener failed", "addr", cfg.debugAddr, "error", err.Error())
			}
		}()
		s.logger.Info("debug listener up", "addr", cfg.debugAddr)
	}

	s.logger.Info("listening", "addr", cfg.addr, "cache", cfg.cacheSize, "parallelism", cfg.opts.Parallelism)
	// Shutdown counts a connection that has sent no request yet (StateNew)
	// as busy for its first 5 s, so one a client opened and never used would
	// hold the drain that long. The drain closes those at once: the ones in
	// unused when ctx ends, and any accepted after (the hook stores before it
	// reads ctx, so none slips between the two).
	var unused sync.Map // net.Conn → nil
	srv := &http.Server{
		Handler: s.handler(),
		// No WriteTimeout: compilations may legitimately run long. Header
		// and idle timeouts keep slow or abandoned connections from
		// pinning goroutines and descriptors.
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       2 * time.Minute,
		ConnState: func(c net.Conn, st http.ConnState) {
			if st != http.StateNew {
				unused.Delete(c)
				return
			}
			unused.Store(c, nil)
			if ctx.Err() != nil { // the drain has begun
				c.Close()
			}
		},
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	// Join handoff: with the listener up (so /readyz answers 503 and peers'
	// probes see a node that exists but must not take ownership yet), pull the
	// fleet corpus to convergence BEFORE going ready. The moment peers start
	// routing this node's keys at it, it serves them from its store instead of
	// re-running their DPs. A fresh single-node fleet converges instantly; on
	// pre-stream timeout the node goes ready anyway and background anti-entropy
	// finishes the job.
	if s.syncer != nil {
		joinCtx, cancelJoin := context.WithTimeout(ctx, joinTimeout)
		pulled, err := s.syncer.Converge(joinCtx)
		cancelJoin()
		if err != nil {
			s.logger.Warn("join pre-stream incomplete; anti-entropy continues in the background",
				"records", pulled, "error", err.Error())
		} else if pulled > 0 {
			s.logger.Info("join pre-stream complete; serving warm", "records", pulled)
		}
	}
	s.ready.Store(true)
	select {
	case err = <-serveErr:
	case <-ctx.Done():
		s.logger.Info("shutting down", "drain_timeout", cfg.drainTimeout.String())
		unused.Range(func(c, _ any) bool { c.(net.Conn).Close(); return true })
		shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
		if err := srv.Shutdown(shutdownCtx); err != nil {
			s.logger.Warn("drain incomplete", "error", err.Error())
		}
		cancel()
		if serr := <-serveErr; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
			s.logger.Warn("serve error", "error", serr.Error())
		}
	}
	s.close()
	if err == nil {
		s.logger.Info("stopped")
	}
	return err
}
