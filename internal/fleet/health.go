package fleet

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// State is one member's position in the health state machine. Members start
// Alive (innocent until proven otherwise — a wrong Alive costs one cheap
// failed round trip; a wrong Dead costs availability), degrade to Suspect on
// the first consecutive probe/fetch failure, to Dead after a run of them,
// and return to Alive after ReviveAfter consecutive successes.
type State int32

const (
	// StateAlive members take fetch, replication, and sync traffic normally.
	StateAlive State = iota
	// StateSuspect members are skipped by the latency-sensitive fetch path
	// (ownership fails over to the next live ring point immediately, so a
	// freshly dead owner stops costing a timeout after its FIRST failure),
	// but background replication still tries them: a suspect is usually a
	// blip, and a failed push only costs an anti-entropy round.
	StateSuspect
	// StateDead members take no traffic at all — fetch, replication, and
	// sync all route around them — until probes succeed again.
	StateDead
)

// String renders the state the way the serenityd_peer_state metric labels it.
func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// States lists every health state in severity order, for metrics emission.
var States = []State{StateAlive, StateSuspect, StateDead}

// HealthOptions tune the prober and the state machine. The zero value is
// usable: every field falls back to the default documented on it.
type HealthOptions struct {
	// Interval between probe rounds, jittered ±20% per node so a fleet
	// restarted together does not synchronize its heartbeats. Default 2s.
	Interval time.Duration
	// Timeout bounds one probe attempt. Default 500ms.
	Timeout time.Duration
	// SuspectAfter is how many consecutive failures demote Alive to Suspect.
	// Default 1: the first failure already stops the fetch path from dialing,
	// which is what kills the dead-owner cold-key timeout penalty.
	SuspectAfter int
	// DeadAfter is how many consecutive failures demote to Dead. Default 3.
	DeadAfter int
	// ReviveAfter is how many consecutive successes promote a Suspect or
	// Dead member back to Alive. Default 1.
	ReviveAfter int
	// ProbePath is the endpoint probed on each member. Default PingPath (the
	// fleet server's ungated liveness ping); serenityd points it at /readyz
	// instead so a booting node pre-streaming its keys reads as not-yet-alive
	// and takes no ownership until its handoff completes.
	ProbePath string
	// HTTPClient overrides the probe transport (tests, fault injection).
	HTTPClient *http.Client
	// OnTransition, when non-nil, observes every state change. Called
	// outside the health lock; must not block for long.
	OnTransition func(peer string, from, to State)
}

func (o HealthOptions) withDefaults() HealthOptions {
	if o.Interval <= 0 {
		o.Interval = 2 * time.Second
	}
	if o.Timeout <= 0 {
		o.Timeout = 500 * time.Millisecond
	}
	if o.SuspectAfter <= 0 {
		o.SuspectAfter = 1
	}
	if o.DeadAfter <= 0 {
		o.DeadAfter = 3
	}
	if o.DeadAfter < o.SuspectAfter {
		o.DeadAfter = o.SuspectAfter
	}
	if o.ReviveAfter <= 0 {
		o.ReviveAfter = 1
	}
	if o.ProbePath == "" {
		o.ProbePath = PingPath
	}
	if o.HTTPClient == nil {
		o.HTTPClient = &http.Client{}
	}
	return o
}

// HealthStats is a snapshot of the prober's counters.
type HealthStats struct {
	// Probes counts probe attempts; Failures the subset that failed (error,
	// timeout, or non-2xx). Transitions counts state changes, both
	// demotions and revivals, from probes and reported fetch outcomes alike.
	Probes      int64
	Failures    int64
	Transitions int64
}

// memberHealth is one peer's state plus the consecutive-outcome streaks that
// drive transitions.
type memberHealth struct {
	state State
	fails int
	oks   int
}

// Health tracks per-peer liveness for a fleet node: a background prober
// (periodic GET of ProbePath with jitter) plus failure/success reports fed
// in by the fetch path, driving each peer through alive → suspect → dead and
// back. The ring consults it (via Live/Reachable) so ownership of a dead
// member's keys fails over to the next live point without a restart, and a
// recovered member re-enters the moment its probes succeed.
//
// Health deliberately tracks only *other* members: a node is always alive
// from its own point of view, which is what Ring.LiveOwner relies on to
// guarantee every key always has some live owner. Safe for concurrent use.
type Health struct {
	opts HealthOptions

	mu      sync.Mutex
	members map[string]*memberHealth

	cancel context.CancelFunc
	wg     sync.WaitGroup
	once   sync.Once

	probes, failures, transitions atomic.Int64
}

// NewHealth builds the health view over peers (this node's OWN address must
// not be included). Call Start to run the background prober; ReportSuccess
// and ReportFailure work without it, which is how deterministic tests drive
// the state machine.
func NewHealth(peers []string, opts HealthOptions) *Health {
	h := &Health{opts: opts.withDefaults(), members: make(map[string]*memberHealth, len(peers))}
	h.SetMembers(peers)
	return h
}

// Options returns the options the view runs with, defaults applied.
func (h *Health) Options() HealthOptions { return h.opts }

// SetMembers replaces the tracked peer set: new peers start Alive, departed
// peers are forgotten, surviving peers keep their state and streaks. Called
// on ring membership changes (join/leave).
func (h *Health) SetMembers(peers []string) {
	keep := make(map[string]bool, len(peers))
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, p := range peers {
		keep[p] = true
		if h.members[p] == nil {
			h.members[p] = &memberHealth{state: StateAlive}
		}
	}
	for p := range h.members {
		if !keep[p] {
			delete(h.members, p)
		}
	}
}

// State returns peer's current health. Untracked peers — including this
// node's own address — read as Alive.
func (h *Health) State(peer string) State {
	h.mu.Lock()
	defer h.mu.Unlock()
	if m := h.members[peer]; m != nil {
		return m.state
	}
	return StateAlive
}

// Live reports whether peer is Alive — the latency-sensitive view the fetch
// path routes by: a merely Suspect owner is already skipped.
func (h *Health) Live(peer string) bool { return h.State(peer) == StateAlive }

// Reachable reports whether peer is not Dead — the lenient view background
// replication routes by: a Suspect peer is still worth one cheap push,
// because failing it only costs an anti-entropy round, while rerouting it
// would strand the artifact away from its owner over a blip.
func (h *Health) Reachable(peer string) bool { return h.State(peer) != StateDead }

// Snapshot returns every tracked peer's state, for /readyz and /metrics.
func (h *Health) Snapshot() map[string]State {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]State, len(h.members))
	for p, m := range h.members {
		out[p] = m.state
	}
	return out
}

// Members returns the tracked peers, sorted — deterministic metrics order.
func (h *Health) Members() []string {
	h.mu.Lock()
	out := make([]string, 0, len(h.members))
	for p := range h.members {
		out = append(out, p)
	}
	h.mu.Unlock()
	sort.Strings(out)
	return out
}

// Stats returns a snapshot of the prober counters.
func (h *Health) Stats() HealthStats {
	return HealthStats{
		Probes:      h.probes.Load(),
		Failures:    h.failures.Load(),
		Transitions: h.transitions.Load(),
	}
}

// ReportSuccess feeds a successful round trip to peer into the state
// machine. The fetch path calls this on every peer hit, so live traffic
// keeps the view fresh between probe ticks.
func (h *Health) ReportSuccess(peer string) { h.report(peer, true) }

// ReportFailure feeds a transport-level failure (timeout, refused
// connection) into the state machine. The fetch path calls this the moment
// an owner times out, so the SECOND cold key routed at a dead owner already
// skips it, and replication calls it for every push that got no answer — the
// probe loop is the backstop, not the only detector.
func (h *Health) ReportFailure(peer string) { h.report(peer, false) }

func (h *Health) report(peer string, ok bool) {
	var from, to State
	changed := false
	h.mu.Lock()
	m := h.members[peer]
	if m == nil {
		h.mu.Unlock()
		return
	}
	if ok {
		m.fails = 0
		m.oks++
		if m.state != StateAlive && m.oks >= h.opts.ReviveAfter {
			from, to, changed = m.state, StateAlive, true
			m.state = StateAlive
		}
	} else {
		m.oks = 0
		m.fails++
		switch {
		case m.fails >= h.opts.DeadAfter && m.state != StateDead:
			from, to, changed = m.state, StateDead, true
			m.state = StateDead
		case m.fails >= h.opts.SuspectAfter && m.state == StateAlive:
			from, to, changed = StateAlive, StateSuspect, true
			m.state = StateSuspect
		}
	}
	h.mu.Unlock()
	if changed {
		h.transitions.Add(1)
		if h.opts.OnTransition != nil {
			h.opts.OnTransition(peer, from, to)
		}
	}
}

// Start launches the background probe loop. Stop it with Stop. Idempotent
// only in the sense that tests may never call it — ReportSuccess/Failure
// drive the machine without a prober.
func (h *Health) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	h.cancel = cancel
	h.wg.Add(1)
	go h.loop(ctx)
}

// Stop halts the prober and waits for in-flight probes. Idempotent; safe
// even if Start never ran.
func (h *Health) Stop() {
	h.once.Do(func() {
		if h.cancel != nil {
			h.cancel()
		}
		h.wg.Wait()
	})
}

func (h *Health) loop(ctx context.Context) {
	defer h.wg.Done()
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for {
		// ±20% jitter so a fleet restarted together staggers its heartbeats.
		d := h.opts.Interval + time.Duration((rng.Float64()-0.5)*0.4*float64(h.opts.Interval))
		select {
		case <-ctx.Done():
			return
		case <-time.After(d):
		}
		h.probeAll(ctx)
	}
}

// probeAll probes every tracked peer concurrently and reports the outcomes.
// Exported indirectly through Start; deterministic tests call probeOne via
// the report API instead.
func (h *Health) probeAll(ctx context.Context) {
	var wg sync.WaitGroup
	for _, peer := range h.Members() {
		wg.Add(1)
		go func(p string) {
			defer wg.Done()
			h.report(p, h.probeOne(ctx, p))
		}(peer)
	}
	wg.Wait()
}

// probeOne performs one GET probe under the per-probe timeout; any transport
// error or non-2xx answer counts as a failure (a 503 /readyz is a node that
// exists but must not take ownership yet — exactly what Suspect means).
func (h *Health) probeOne(ctx context.Context, peer string) bool {
	h.probes.Add(1)
	status, err := roundTrip(ctx, h.opts.HTTPClient, h.opts.Timeout, http.MethodGet, peer+h.opts.ProbePath, "", nil, nil)
	if err != nil || status < 200 || status > 299 {
		h.failures.Add(1)
		return false
	}
	return true
}
