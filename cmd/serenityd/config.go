package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"runtime"
	"strings"
	"time"

	serenity "github.com/serenity-ml/serenity"
	"github.com/serenity-ml/serenity/internal/bytesize"
	"github.com/serenity-ml/serenity/internal/cache"
	"github.com/serenity-ml/serenity/internal/fleet"
	"github.com/serenity-ml/serenity/internal/govern"
	"github.com/serenity-ml/serenity/internal/trace"
)

// config is everything a serenityd is assembled from: the option structs of
// the components build wires together, plus the server's own scalars. Flags
// bind straight into its fields (bindFlags) and tests fill the same struct, so
// main and the test suite share one constructor. A value no flag sets has one
// default, owned by the option that reads it, so a daemon started without
// flags and a test's zero config run the same values. The knobs only tests
// turn (admitQueue, the refinement queue depth, the probe, sync, trace and
// headroom options, HTTPClient, ReadLoad, SampleInterval, RequeueInterval,
// OnRound) are fields of the config or of its option structs; the hooks
// between components (Pressure, Tracer, Health, ProbePath, OnTransition) are
// build's to set. Anti-entropy has one mode: a node that runs the syncer
// (sync.Interval > 0) always converges with its peers before it reports ready,
// for at most joinTimeout (main.go), and the syncer rides the fleet client's
// ring, health view and transport (client.HTTPClient).
type config struct {
	addr, debugAddr     string
	logFormat, logLevel string
	drainTimeout        time.Duration

	opts           serenity.Options // server-wide defaults; query parameters override per request
	cacheSize      int
	segMemoSize    int // 0 = no segment memo
	maxNodes       int
	computeTimeout time.Duration
	compileSlots   int // 0 = no admission control
	admitQueue     int // 0 = newAdmission's default

	storeDir string // "" = in-memory only
	storeMax int64

	govern     govern.Options             // Limit 0 derives from GOMEMLIMIT, negative disables
	refineOpts serenity.RefinePoolOptions // Workers 0 = no serve-then-refine
	trace      trace.Options

	peerAddr, peerList string // peerAddr "" = fleetless
	peerSlots          int
	client             fleet.ClientOptions
	probe              fleet.HealthOptions // the fleet's one failure detector; always probing
	sync               fleet.SyncerOptions // Interval 0 = no syncer and no join pre-stream
}

// bindFlags registers the daemon's flags on fs, bound to the fields of the
// returned config. finish runs after fs.Parse: it resolves the flags that
// are not a field's own value — the byte sizes, which stay string flags so
// -h keeps rendering them as before — and applies validate.
func bindFlags(fs *flag.FlagSet) (c *config, finish func() error) {
	c = &config{opts: serenity.DefaultOptions()}
	fs.StringVar(&c.addr, "addr", ":7433", "listen address")
	fs.IntVar(&c.cacheSize, "cache", 256, "schedule cache capacity (entries)")
	fs.IntVar(&c.segMemoSize, "segment-memo-size", 4096, "cross-request segment memo capacity (segment results; 0 disables)")
	fs.IntVar(&c.opts.Parallelism, "parallelism", runtime.GOMAXPROCS(0), "per-request segment scheduling parallelism")
	fs.DurationVar(&c.opts.StepTimeout, "timeout", time.Second, "adaptive soft budgeting step timeout T: a per-level safety valve; exceeding it fails the search")
	fs.IntVar(&c.maxNodes, "max-nodes", 20000, "reject graphs with more nodes (0 = unlimited)")
	fs.DurationVar(&c.computeTimeout, "compute-timeout", 2*time.Minute, "server-side limit per compilation (0 = unlimited)")
	fs.StringVar(&c.storeDir, "store-dir", "", "persist segment schedules to this directory and warm-start from it on boot (empty = in-memory only)")
	storeMax := fs.String("store-max-bytes", "256MiB", "persistent store size bound, e.g. 64MiB or 0 for unbounded (requires -store-dir)")
	fs.DurationVar(&c.drainTimeout, "drain-timeout", 10*time.Second, "graceful shutdown: how long to wait for in-flight compilations on SIGINT/SIGTERM")
	fs.IntVar(&c.compileSlots, "compile-slots", runtime.GOMAXPROCS(0), "concurrently executing compilations; interactive > batch > refinement priority (0 = unlimited, no admission control)")
	fs.IntVar(&c.refineOpts.Workers, "refine-workers", 1, "background refinement workers repairing degraded schedules (0 disables serve-then-refine)")
	memLimit := fs.String("mem-limit", "", "byte budget the memory governor defends, e.g. 256MiB; empty derives it from GOMEMLIMIT, 0 disables the governor")
	fs.StringVar(&c.peerList, "peers", "", "comma-separated fleet member base URLs (e.g. http://10.0.0.5:7433,http://10.0.0.6:7433); requires -peer-addr")
	fs.StringVar(&c.peerAddr, "peer-addr", "", "this node's own base URL as fleet peers dial it; joins the fleet and requires -store-dir (the store is the fleet-visible corpus)")
	fs.DurationVar(&c.client.Timeout, "peer-timeout", 250*time.Millisecond, "per-attempt budget for one peer artifact fetch; a slow peer costs at most two of these, and the first one it fails marks the peer suspect")
	fs.IntVar(&c.client.Concurrency, "peer-concurrency", 8, "in-flight peer fetches; arrivals beyond the bound skip the fleet tier instead of queueing")
	fs.IntVar(&c.peerSlots, "peer-slots", 4, "concurrently served peer requests, a dedicated admission lane apart from -compile-slots (0 = unlimited)")
	fs.DurationVar(&c.sync.Interval, "peer-sync-interval", 15*time.Second, "anti-entropy round interval, jittered per node (0 disables the background sync loop)")
	fs.StringVar(&c.logFormat, "log-format", "text", "structured log encoding: text or json (log/slog; request lines carry request_id and trace_id)")
	fs.StringVar(&c.logLevel, "log-level", "info", "minimum log level: debug|info|warn|error (per-request success lines log at debug)")
	fs.StringVar(&c.debugAddr, "debug-addr", "", "separate listener for net/http/pprof plus the /debug/traces surface; never mounted on the public port (empty disables pprof entirely)")
	fs.IntVar(&c.trace.SampleEvery, "trace-sample", 0, "ambiently trace one in N schedule requests into the /debug/traces ring (0 = only ?debug=trace requests)")

	return c, func() error {
		size := func(name, v string, dst *int64) error {
			n, err := bytesize.Parse(v)
			if err != nil {
				return fmt.Errorf("-%s: %w", name, err)
			}
			*dst = n
			return nil
		}
		// A store bound without a store is a configuration mistake, not a
		// silent no-op.
		storeMaxSet := false
		fs.Visit(func(f *flag.Flag) { storeMaxSet = storeMaxSet || f.Name == "store-max-bytes" })
		if storeMaxSet && c.storeDir == "" {
			return errors.New("-store-max-bytes requires -store-dir")
		}
		if c.storeDir != "" {
			if err := size("store-max-bytes", *storeMax, &c.storeMax); err != nil {
				return err
			}
		}
		if *memLimit != "" {
			if err := size("mem-limit", *memLimit, &c.govern.Limit); err != nil {
				return err
			}
			if c.govern.Limit <= 0 {
				c.govern.Limit = -1 // explicit 0 disables; only an empty flag derives from GOMEMLIMIT
			}
		}
		return c.validate()
	}
}

// validate holds the cross-flag rules. It runs at flag time, before any
// resource is opened; build trusts its result.
func (c *config) validate() error {
	st, err := serenity.ParseStrategy(string(c.opts.Strategy))
	if err != nil {
		return err
	}
	c.opts.Strategy = st
	if err := c.opts.Validate(); err != nil {
		return err
	}
	if c.peerList != "" && c.peerAddr == "" {
		return errors.New("-peers requires -peer-addr (this node's own base URL)")
	}
	if c.peerAddr != "" && c.storeDir == "" {
		return errors.New("-peer-addr requires -store-dir (the persistent store is the fleet-visible artifact corpus)")
	}
	return nil
}

// build is the one place a server is assembled: store, fleet, governor,
// admission, refinement pool — each layer before the ones that hook into it.
// Background loops (prober, anti-entropy, watchdog) are running when it
// returns; the server is not yet ready (run flips that after the join
// pre-stream). On error everything already opened is closed again.
func build(cfg config) (*server, error) {
	s := &server{
		opts:           cfg.opts,
		cache:          cache.New[*scheduleResponse](cfg.cacheSize),
		maxNodes:       cfg.maxNodes,
		computeTimeout: cfg.computeTimeout,
		maxBody:        maxRequestBytes,
		newPipeline:    serenity.NewPipeline,
		// The tracer exists regardless of sampling: ?debug=trace requests are
		// always traced, and the fleet/refinement layers feed fragments into it.
		tracer:   trace.New(cfg.trace),
		logger:   slog.Default(),
		workSets: make(chan *workSet, retainedWorkSets),
		started:  time.Now(),
	}
	if cfg.segMemoSize > 0 {
		s.segMemo = serenity.NewSegmentMemo(cfg.segMemoSize)
	}
	if cfg.storeDir != "" {
		store, err := serenity.OpenScheduleStore(cfg.storeDir, cfg.storeMax)
		if err != nil {
			return nil, fmt.Errorf("opening schedule store: %w", err)
		}
		s.store = store
		st := store.Stats()
		s.logger.Info("warm-start from schedule store",
			"artifacts", st.Entries, "bytes", st.LiveBytes, "dir", cfg.storeDir, "corrupt_skipped", st.CorruptRecords)
	}
	if cfg.peerAddr != "" {
		if err := s.joinFleet(cfg); err != nil {
			s.close()
			return nil, err
		}
	}

	// The memory governor converts heap pressure into tiered degradation
	// instead of an OOM kill: refinement parks first, then batch sheds with
	// 429, then interactive searches are forced down to their heuristic
	// fallback (serve-then-refine repairs them once pressure clears). Built
	// before the refinement pool so the pool's pressure signal can hook it.
	s.gov = govern.New(cfg.govern)
	if s.gov.Enabled() {
		s.gov.Start()
		s.logger.Info("memory governor started", "limit_bytes", s.gov.Stats().Limit, "watermarks", "70/85/95%")
	}
	if cfg.compileSlots > 0 {
		s.admit = newAdmission(cfg.compileSlots, cfg.admitQueue)
	}
	if cfg.refineOpts.Workers > 0 {
		ropts := cfg.refineOpts
		// Refinement lifecycle spans (queued/parked/run) link back to the
		// originating request's trace.
		ropts.Tracer = s.tracer
		if s.gov.Enabled() {
			// Refinement is the first work the pressure ladder sheds: a
			// worker holds its job at Elevated and above, re-checking every
			// RequeueInterval, and runs it when the level drops back.
			ropts.Pressure = func() bool { return s.gov.Level() >= govern.LevelElevated }
		}
		s.refine = serenity.NewRefinePool(ropts)
	}
	return s, nil
}

// joinFleet wires the fleet tier over the already-open store: ring, health
// view, fetch/replication client, peer-facing surface, anti-entropy loop.
func (s *server) joinFleet(cfg config) error {
	// The ring trims, drops blanks from, and deduplicates the member list.
	ring, err := fleet.NewRing(cfg.peerAddr, strings.Split(cfg.peerList, ","), 0)
	if err != nil {
		return err
	}
	hopts := cfg.probe
	// Probes target /readyz, not the fleet ping: a node pre-streaming its
	// corpus answers 503 and therefore takes no ownership until its join
	// handoff completes.
	hopts.ProbePath = "/readyz"
	hopts.OnTransition = func(peer string, from, to fleet.State) {
		s.logger.Info("fleet peer transition", "peer", peer, "from", from.String(), "to", to.String())
	}
	s.health = fleet.NewHealth(ring.Peers(), hopts)
	copts := cfg.client
	copts.Health = s.health
	s.peers = fleet.NewClient(ring, copts)
	var gate fleet.Gate
	if cfg.peerSlots > 0 {
		gate = peerGate(cfg.peerSlots)
	}
	s.peerSrv = fleet.NewServer(s.store, ring, gate)
	// Peer requests carrying a traceparent header record their serve
	// spans under the caller's trace ID, so one trace stitches across
	// the fleet.
	s.peerSrv.SetTracer(s.tracer)
	if cfg.sync.Interval > 0 {
		// The loop starts even on a currently peerless node: admin join can
		// add members later, and the loop idles until one exists.
		yopts := cfg.sync
		yopts.Tracer = s.tracer
		s.syncer = fleet.NewSyncer(s.store, s.peers, yopts)
		s.syncer.Start()
	}
	s.health.Start()
	s.logger.Info("fleet assembled",
		"members", len(ring.Members()), "self", ring.Self(), "owned_share", ring.OwnedShare(4096))
	return nil
}

// close is the one place a server is torn down, and the order matters: the
// syncer and replication client write to the store, the refinement pool's
// recomputes write to the memo, the store, the replication client and the
// cache, the governor's pressure signal is read by the pool — stop each
// producer before the tier it feeds, store last. Safe on a partially built
// server.
func (s *server) close() {
	if s.health != nil { // a fleet node
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
	if s.refine != nil {
		// Cancels the running repair and sheds the backlog.
		s.refine.Close()
		st := s.refine.Stats()
		s.logger.Info("refinement pool stopped",
			"queued", st.Queued, "done", st.Done, "failed", st.Failed, "dropped", st.Dropped)
	}
	if s.peers != nil {
		s.peers.Close()
		cs := s.peers.Stats()
		s.logger.Info("fleet client stopped",
			"hits", cs.Hits, "misses", cs.Misses, "timeouts", cs.Timeouts,
			"replicated", cs.Replicated, "replication_drops", cs.ReplicationDropped)
	}
	if s.gov.Enabled() {
		s.gov.Stop()
		gs := s.gov.Stats()
		s.logger.Info("memory governor stopped",
			"level", gs.Level.String(), "sheds", gs.Sheds, "degraded", gs.Degraded,
			"grows", gs.Grows, "grow_denied", gs.GrowDenied)
	}
	if s.store != nil {
		if err := s.store.Close(); err != nil {
			s.logger.Warn("closing schedule store failed", "error", err.Error())
			return
		}
		st := s.store.Stats()
		s.logger.Info("schedule store flushed",
			"artifacts", st.Entries, "live_bytes", st.LiveBytes, "writes", st.Writes)
	}
}
