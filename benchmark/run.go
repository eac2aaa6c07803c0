package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// config is one run's flags.
type config struct {
	w       *workload
	seed    uint64
	seconds int
	tiny    bool
	trace   bool
	// dir is the benchmark's own directory (expected/); out where the traced
	// run writes its spans; bin the built serenityd; work the directory runs
	// may create their files under.
	dir, out, bin, work string
	log                 io.Writer
}

// env is what a set-up function works with.
type env struct {
	ctx context.Context
	h   *harness
	w   *workload
}

// node is one serenityd role (the single server; A, B or C of the fleet)
// across its restarts.
type node struct {
	addr, dir string
	extra     []string // flags beyond serverFlags
	p         *proc
	hwm       float64 // largest VmHWM any incarnation reached, MiB
}

// newNode prepares a role on addr with a store directory of its own.
func (e *env) newNode(name, addr string, extra ...string) (*node, error) {
	dir, err := e.h.storeDir(name)
	if err != nil {
		return nil, err
	}
	return &node{addr: addr, dir: dir, extra: extra}, nil
}

func (e *env) boot(n *node) error {
	p, err := e.h.start(e.ctx, n.addr, append(serverFlags(n.addr, n.dir), n.extra...)...)
	if err != nil {
		return err
	}
	n.p = p
	return nil
}

// halt stops n gracefully, keeping its memory high-water mark.
func (n *node) halt() error {
	if hwm, err := peakRSSMiB(n.p.pid()); err == nil {
		n.hwm = max(n.hwm, hwm)
	}
	return n.p.stop()
}

// stage is a workload after set-up: where the measured requests go, which
// processes count towards CPU and memory, and how to reach the next round.
type stage struct {
	target *node
	nodes  []*node
	refs   [][]byte // raw set-up answers; request.ref indexes them
	// nextRound returns the servers to the state the first round started in
	// (a restart); nil for single-pass workloads. Its duration is reported as
	// store.restart_ready_ms, never as measured time.
	nextRound func() error
	// restarts collects every SIGTERM→ready time, set-up's included.
	restarts []time.Duration
	drain    time.Duration // peer-fleet: replication drain in set-up
}

func (st *stage) teardown() {
	for _, n := range st.nodes {
		if n.p != nil && n.p.alive() {
			n.halt()
		}
	}
}

// preload sends reqs in order from `clients` callers and returns the raw
// answers. Any failed request fails the set-up: there is nothing to measure
// on a server that could not be prepared.
func (e *env) preload(n *node, reqs []*request, clients int) ([][]byte, error) {
	samples, _ := drive(e.ctx, n.p.url, reqs, nil, clients)
	out := make([][]byte, len(samples))
	for i := range samples {
		s := &samples[i]
		if s.err != nil || s.status != 200 {
			return nil, fmt.Errorf("set-up request %d on %s: status %d, %v: %.200s", i, n.addr, s.status, s.err, s.body)
		}
		out[i] = s.body
	}
	return out, nil
}

// setupSingle is the set-up of the single-server, single-pass workloads:
// boot, then send the preload (none for cold-search; the hot graphs, which
// also pay for the pool cells' searches, for warm-memo and mixed-open).
func setupSingle(e *env, in *inputs) (*stage, error) {
	addrs, err := freeAddrs(1)
	if err != nil {
		return nil, err
	}
	n, err := e.newNode("store", addrs[0])
	if err != nil {
		return nil, err
	}
	st := &stage{target: n, nodes: []*node{n}}
	if err := e.boot(n); err != nil {
		return st, err
	}
	st.refs, err = e.preload(n, in.preload, 2)
	return st, err
}

// restart stops n, lets reset rewrite its store directory, and boots it
// again, timing SIGTERM → ready.
func (e *env) restart(st *stage, n *node, reset func() error) error {
	start := time.Now()
	if err := n.halt(); err != nil {
		return err
	}
	if reset != nil {
		if err := reset(); err != nil {
			return err
		}
	}
	if err := e.boot(n); err != nil {
		return err
	}
	st.restarts = append(st.restarts, time.Since(start))
	return nil
}

// setupRestart compiles the corpus, then restarts the same binary on the
// same store directory: the measured rounds find every segment on disk and
// nothing in memory.
func setupRestart(e *env, in *inputs) (*stage, error) {
	st, err := setupSingle(e, in)
	if err != nil {
		return st, err
	}
	st.nextRound = func() error { return e.restart(st, st.target, nil) }
	return st, st.nextRound()
}

// setupFleet boots a static three-node ring, compiles the corpus on A, waits
// for A's write-behind replication to drain, and snapshots B's store as it
// stands then: the third of the corpus B owns. Every measured round starts B
// from that snapshot with empty memory, so B must fetch the other two thirds
// from A and C.
func setupFleet(e *env, in *inputs) (*stage, error) {
	st := &stage{}
	addrs, err := freeAddrs(3)
	if err != nil {
		return st, err
	}
	peers := "http://" + strings.Join(addrs, ",http://")
	for i, name := range []string{"a", "b", "c"} {
		n, err := e.newNode(name, addrs[i], "-peer-addr", "http://"+addrs[i], "-peers", peers, "-peer-sync-interval", "0")
		if err != nil {
			return st, err
		}
		st.nodes = append(st.nodes, n)
	}
	for _, n := range st.nodes {
		if err := e.boot(n); err != nil {
			return st, err
		}
	}
	a, b := st.nodes[0], st.nodes[1]
	st.target = b
	// One caller: A's replication queue holds 256 pushes and drops the rest,
	// and a dropped push would make B search what it should have been sent.
	if st.refs, err = e.preload(a, in.preload, 1); err != nil {
		return st, err
	}
	if st.drain, err = awaitDrain(e.ctx, a.p); err != nil {
		return st, err
	}
	snapshot := filepath.Join(e.h.dir, "b-snapshot")
	st.nextRound = func() error {
		return e.restart(st, b, func() error {
			if _, err := os.Stat(snapshot); err != nil {
				return os.CopyFS(snapshot, os.DirFS(b.dir)) // first restart: take the snapshot
			}
			if err := os.RemoveAll(b.dir); err != nil {
				return err
			}
			return os.CopyFS(b.dir, os.DirFS(snapshot))
		})
	}
	return st, st.nextRound()
}

// awaitDrain polls p's replication counters until they have stopped moving
// and reports how long the drain took. A dropped push fails the set-up.
func awaitDrain(ctx context.Context, p *proc) (time.Duration, error) {
	const family = "serenityd_peer_replicated_total"
	start := time.Now()
	last, lastChange, quiet := -1.0, start, 0
	for quiet < 4 {
		s, err := p.scrape()
		if err != nil {
			return 0, err
		}
		if dropped := s["serenityd_peer_replication_dropped_total"]; dropped > 0 {
			return 0, fmt.Errorf("%v replication pushes were dropped in set-up", dropped)
		}
		if v := s[family]; v != last {
			last, lastChange, quiet = v, time.Now(), 0
		} else {
			quiet++
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(25 * time.Millisecond):
		}
	}
	if last <= 0 {
		return 0, errors.New("node A replicated nothing: the ring is not wired")
	}
	return lastChange.Sub(start), nil
}

// measured is everything one run observed, before it is turned into metrics.
type measured struct {
	in       *inputs
	samples  []sample      // every measured request, rounds concatenated
	wall     time.Duration // Σ measured phases; restarts between rounds excluded
	srvCPU   float64       // Σ serenityd CPU seconds inside the phases
	cliCPU   float64       // this process's CPU seconds inside the phases
	prom     promSample    // Σ the target server's /metrics deltas
	rssMiB   float64       // Σ over roles of the largest VmHWM
	setups   []float64     // seconds, one per set-up
	restarts []time.Duration
	drain    time.Duration
	refs     [][]byte
	traced   *measured // the ?debug=trace pass (warm-memo, traced runs)
}

// phase drives one measured interval against st and folds what it observed
// into m. A server that died during the phase fails the run.
func (e *env) phase(st *stage, m *measured, reqs []*request, dues []time.Duration) error {
	before, err := st.target.p.scrape()
	if err != nil {
		return err
	}
	cpu0, err := st.cpu()
	if err != nil {
		return err
	}
	self0, err := selfCPUSeconds()
	if err != nil {
		return err
	}
	samples, wall := drive(e.ctx, st.target.p.url, reqs, dues, e.w.clients)
	for _, n := range st.nodes {
		if !n.p.alive() {
			return n.p.exitError("during the measured phase")
		}
	}
	self1, err := selfCPUSeconds()
	if err != nil {
		return err
	}
	cpu1, err := st.cpu()
	if err != nil {
		return err
	}
	after, err := st.target.p.scrape()
	if err != nil {
		return err
	}
	m.samples = append(m.samples, samples...)
	m.wall += wall
	m.srvCPU += cpu1 - cpu0
	m.cliCPU += self1 - self0
	m.prom.add(after.delta(before))
	return nil
}

// cpu sums the CPU seconds of every live serenityd of the stage.
func (st *stage) cpu() (float64, error) {
	var total float64
	for _, n := range st.nodes {
		if !n.p.alive() {
			return 0, n.p.exitError("outside any request of the benchmark")
		}
		c, err := cpuSeconds(n.p.pid())
		if err != nil {
			return 0, err
		}
		total += c
	}
	return total, nil
}

// hardTimeout bounds one whole run: set-ups, measured phases and restarts.
// When it fires, the open requests fail at once and the run ends in an error
// instead of numbers.
func hardTimeout(seconds int) time.Duration {
	return time.Duration(4*seconds+45) * time.Second
}

// execute performs one run of cfg.w: generate, set up (several times, keeping
// the last), measure every round, and return the raw observations.
func execute(ctx context.Context, cfg config) (*measured, error) {
	w := cfg.w
	perPass, rounds := w.passes(cfg.seconds, cfg.tiny)
	genStart := time.Now()
	tracePass := 0
	if cfg.trace {
		tracePass = w.tracePass
		if cfg.tiny {
			tracePass = min(tracePass, tinyScaleRequests)
		}
	}
	in, err := w.generate(cfg.seed, perPass, tracePass)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "%s: generated %d requests × %d round(s), %d set-up requests in %.2fs\n",
		w.name, len(in.reqs), rounds, len(in.preload), time.Since(genStart).Seconds())

	ctx, cancel := context.WithTimeout(ctx, hardTimeout(cfg.seconds))
	defer cancel()
	h, err := newHarness(cfg.bin, cfg.work)
	if err != nil {
		return nil, err
	}
	defer h.close()
	e := &env{ctx: ctx, h: h, w: w}

	m := &measured{in: in, prom: promSample{}}
	var st *stage
	for i, stolen := 0, 0; i < w.setups; i++ {
		if st != nil {
			st.teardown()
		}
		start := time.Now()
		st, err = w.setup(e, in)
		if err != nil && stolen < 3 && strings.Contains(err.Error(), "address already in use") {
			// Another process took a port between freeAddrs and the child's
			// bind; set up again on fresh ports.
			stolen++
			i--
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		m.setups = append(m.setups, time.Since(start).Seconds())
	}
	m.refs = st.refs

	for r := 0; r < rounds; r++ {
		if r > 0 {
			if err := st.nextRound(); err != nil {
				return nil, fmt.Errorf("restart before round %d: %w", r+1, err)
			}
		}
		if err := e.phase(st, m, in.reqs, in.dues); err != nil {
			return nil, err
		}
	}
	if len(in.traced) > 0 {
		m.traced = &measured{in: in, prom: promSample{}}
		if err := e.phase(st, m.traced, in.traced, nil); err != nil {
			return nil, err
		}
	}
	for _, n := range st.nodes {
		if err := n.halt(); err != nil {
			return nil, err
		}
		m.rssMiB += n.hwm
	}
	m.restarts, m.drain = st.restarts, st.drain
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("run exceeded its hard timeout of %s", hardTimeout(cfg.seconds))
	}
	return m, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// quantile returns the q-quantile of sorted xs by the nearest-rank rule.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}
