package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"time"

	serenity "github.com/serenity-ml/serenity"
	"github.com/serenity-ml/serenity/internal/fleet"
)

// drillNode is one member of the in-process drill fleet. Its listener is up
// before its server exists — the ring needs every member's URL, and URLs
// only exist once the listeners do — so requests arriving early wait for
// boot to bind the handler instead of reading a false 503 (which would boot
// the fleet into false suspects).
type drillNode struct {
	s   *server
	ts  *httptest.Server
	dir string
	// fault fronts every outbound fleet path (fetch, replication, sync,
	// probes), so the drill partitions and heals nodes without touching
	// their processes.
	fault   *cutTransport
	bound   chan struct{} // closed once handler is set
	handler http.Handler
}

// cutTransport fails every request toward a cut peer with a transport error,
// which is what a partitioned peer looks like from this side of the wire;
// other requests go to http.DefaultTransport.
type cutTransport struct {
	mu  sync.Mutex
	cut map[string]bool // peer hosts
}

func (t *cutTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t.mu.Lock()
	down := t.cut[req.URL.Host]
	t.mu.Unlock()
	if !down {
		return http.DefaultTransport.RoundTrip(req)
	}
	if req.Body != nil {
		req.Body.Close()
	}
	return nil, fmt.Errorf("injected partition: %s unreachable", req.URL.Host)
}

// Partition cuts traffic toward peer (one direction: cut the reverse on
// peer's own transport), and Heal restores it.
func (t *cutTransport) Partition(peer string) { t.set(peer, true) }
func (t *cutTransport) Heal(peer string)      { t.set(peer, false) }

func (t *cutTransport) set(peer string, cut bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cut[strings.TrimPrefix(peer, "http://")] = cut
}

func newDrillNode() *drillNode {
	n := &drillNode{bound: make(chan struct{})}
	n.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-n.bound:
			n.handler.ServeHTTP(w, r)
		case <-r.Context().Done():
		}
	}))
	return n
}

// boot assembles the node's server with the daemon's own constructor — its
// own store directory, the ring over urls, /readyz probes — and binds it to
// the listener. tweak, when non-nil, edits the config first. The server is
// left not ready, like a production node before its join pre-stream.
func (n *drillNode) boot(opts serenity.Options, urls []string, tweak func(*config)) error {
	dir, err := os.MkdirTemp("", "serenityd-fleet-drill-")
	if err != nil {
		return err
	}
	n.dir = dir
	n.fault = &cutTransport{cut: map[string]bool{}}
	hc := &http.Client{Transport: n.fault}
	cfg := testConfig()
	cfg.opts = opts
	cfg.segMemoSize = 4096
	cfg.storeDir = dir
	cfg.peerAddr, cfg.peerList = n.ts.URL, strings.Join(urls, ",")
	cfg.peerSlots = 8
	// Fast probes so failure detection converges in drill time.
	cfg.probe = fleet.HealthOptions{Interval: 50 * time.Millisecond, Timeout: 500 * time.Millisecond, DeadAfter: 2, HTTPClient: hc}
	// Generous fetch budget: the drill proves correctness, not latency,
	// and a loaded CI machine must not flake it on a slow scheduler tick.
	// Anti-entropy rides the same transport.
	cfg.client = fleet.ClientOptions{Timeout: 2 * time.Second, HTTPClient: hc}
	// An hour between rounds parks the background loop: the drill drives
	// anti-entropy deterministically through SyncOnce and Converge.
	cfg.sync = fleet.SyncerOptions{Interval: time.Hour, Batch: 64}
	if tweak != nil {
		tweak(&cfg)
	}
	if n.s, err = build(cfg); err != nil {
		return err
	}
	n.handler = n.s.handler()
	close(n.bound)
	return nil
}

// newDrillFleet stands up n ready serenityd instances, each with its own
// segment memo and persistent store, joined into one consistent-hash ring
// over their httptest URLs.
func newDrillFleet(opts serenity.Options, n int) ([]*drillNode, error) {
	nodes := make([]*drillNode, n)
	urls := make([]string, n)
	for i := range nodes {
		nodes[i] = newDrillNode()
		urls[i] = nodes[i].ts.URL
	}
	for _, node := range nodes {
		if err := node.boot(opts, urls, nil); err != nil {
			return nodes, err
		}
		node.s.ready.Store(true)
	}
	return nodes, nil
}

func (n *drillNode) close() {
	n.ts.Close()
	if n.s != nil {
		n.s.close()
	}
	if n.dir != "" {
		os.RemoveAll(n.dir)
	}
}

// drillWorkload serializes the bundled benchmark models: the zoo node A pays
// for and every other node must answer from the fleet.
func drillWorkload() ([][]byte, error) {
	graphs := []*serenity.Graph{
		serenity.SwiftNetCellA(),
		serenity.SwiftNetCellB(),
		serenity.SwiftNetCellC(),
		serenity.DARTSNormalCell(),
		serenity.RandWireCell("rw-loadgen", 24, 4, 0.75, 11, 16, 8),
	}
	bodies := make([][]byte, len(graphs))
	for i, g := range graphs {
		var buf bytes.Buffer
		if err := serenity.WriteGraphJSON(&buf, g); err != nil {
			return nil, err
		}
		bodies[i] = buf.Bytes()
	}
	return bodies, nil
}

// drillPost compiles one graph on a node and decodes the response.
func drillPost(ts *httptest.Server, body []byte) (*scheduleResponse, error) {
	resp, err := ts.Client().Post(ts.URL+"/v1/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("schedule on %s answered %d: %s", ts.URL, resp.StatusCode, data)
	}
	var sr scheduleResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		return nil, err
	}
	return &sr, nil
}

// runFleetDrill (driven by TestFleetDrillSmoke) proves the fleet's contract end to end on a
// 3-node in-process cluster:
//
//  1. Global pay-once — node A compiles the bundled model zoo and its
//     write-behind replication distributes the artifacts to their ring
//     owners; node B then compiles the same zoo with ZERO fresh DP states
//     (every segment answered by a peer fetch or a replicated store record)
//     and bit-identical schedules.
//  2. Anti-entropy — node C, which never saw the traffic, pulls the corpus
//     in capped batches, one sync exchange per round, until it converges,
//     then also compiles the zoo without fresh search work.
//  3. Dead-owner degradation — node A is killed outright; a graph nobody has
//     compiled still gets an exact schedule from node B (peer fetches time
//     out, the DP runs locally, no client-visible error).
//  4. Health-driven failover — B's prober marks the killed node dead; the
//     NEXT unseen graph compiles with zero new peer timeouts, because dead
//     owners are skipped outright and their keys fail over to live members.
//  5. Partition and rejoin — B and C are cut apart by the fault transports;
//     B still compiles exactly during the partition, and after the cut heals
//     the two views revive each other, C converges the partition-era corpus
//     via anti-entropy, and C replays it with zero fresh DP states.
func runFleetDrill(opts serenity.Options, out io.Writer) error {
	bodies, err := drillWorkload()
	if err != nil {
		return err
	}
	nodes, err := newDrillFleet(opts, 3)
	defer func() {
		for _, n := range nodes {
			if n != nil {
				n.close()
			}
		}
	}()
	if err != nil {
		return err
	}
	a, b, c := nodes[0], nodes[1], nodes[2]
	fmt.Fprintf(out, "fleet drill: 3 nodes, %d graphs; shares A=%.2f B=%.2f C=%.2f\n",
		len(bodies), a.s.peers.Ring().OwnedShare(4096), b.s.peers.Ring().OwnedShare(4096), c.s.peers.Ring().OwnedShare(4096))

	// Pass 1: node A pays for the corpus.
	start := time.Now()
	orders := make([][]int, len(bodies))
	for i, body := range bodies {
		sr, err := drillPost(a.ts, body)
		if err != nil {
			return err
		}
		orders[i] = sr.Order
	}
	coldElapsed := time.Since(start)
	// The drill is a barrier-style drill: wait for every write-behind
	// replication so B's "zero fresh states" assertion is deterministic.
	a.s.peers.Drain()
	fmt.Fprintf(out, "fleet drill: node A cold pass %s, %d fresh DP states, %d artifacts replicated to owners\n",
		coldElapsed.Round(time.Millisecond), a.s.states.Load(), a.s.peers.Stats().Replicated)

	// Pass 2: node B compiles the same zoo from the fleet alone.
	start = time.Now()
	for i, body := range bodies {
		sr, err := drillPost(b.ts, body)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(sr.Order, orders[i]) {
			return fmt.Errorf("fleet drill: node B's schedule for graph %d diverged from node A's", i)
		}
	}
	warmElapsed := time.Since(start)
	bs := b.s.peers.Stats()
	if fresh := b.s.states.Load(); fresh != 0 {
		return fmt.Errorf("fleet drill: node B explored %d fresh DP states; the fleet should have answered every segment", fresh)
	}
	if bs.Hits == 0 {
		return fmt.Errorf("fleet drill: node B reported no peer hits compiling a fleet-warm corpus")
	}
	fmt.Fprintf(out, "fleet drill: node B warm pass %s (%.1fx cold), 0 fresh DP states, %d peer hits, bit-identical schedules\n",
		warmElapsed.Round(time.Millisecond), coldElapsed.Seconds()/warmElapsed.Seconds(), bs.Hits)

	// Anti-entropy: node C pulls the corpus from A in capped batches.
	pulled, rounds := 0, 0
	for ; rounds < 64; rounds++ {
		n, err := c.s.syncer.SyncOnce(context.Background(), a.ts.URL)
		if err != nil {
			return fmt.Errorf("fleet drill: anti-entropy round %d: %w", rounds, err)
		}
		pulled += n
		if n == 0 {
			break
		}
	}
	if pulled == 0 {
		return fmt.Errorf("fleet drill: anti-entropy pulled nothing; node A's corpus should have been missing from C")
	}
	for i, body := range bodies {
		sr, err := drillPost(c.ts, body)
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(sr.Order, orders[i]) {
			return fmt.Errorf("fleet drill: node C's schedule for graph %d diverged after anti-entropy", i)
		}
	}
	if fresh := c.s.states.Load(); fresh != 0 {
		return fmt.Errorf("fleet drill: node C explored %d fresh DP states after anti-entropy convergence", fresh)
	}
	fmt.Fprintf(out, "fleet drill: node C converged via anti-entropy: %d records over %d rounds, then compiled the zoo with 0 fresh DP states\n",
		pulled, rounds+1)

	// Dead-owner degradation: kill A, then compile a graph nobody has seen on
	// B. Peer fetches to the dead owner fail fast and the DP runs locally.
	a.ts.Close()
	fresh := serenity.RandWireCell("rw-fleet-drill-dead-owner", 24, 4, 0.75, 99, 16, 8)
	var buf bytes.Buffer
	if err := serenity.WriteGraphJSON(&buf, fresh); err != nil {
		return err
	}
	sr, err := drillPost(b.ts, buf.Bytes())
	if err != nil {
		return fmt.Errorf("fleet drill: compile with a dead peer surfaced an error: %w", err)
	}
	if sr.Quality != serenity.QualityOptimal {
		return fmt.Errorf("fleet drill: dead-peer compile degraded quality to %q", sr.Quality)
	}
	fmt.Fprintf(out, "fleet drill: killed node A; node B compiled an unseen graph locally (%d fresh states, quality %s, no error)\n",
		b.s.states.Load(), sr.Quality)

	// Health-driven failover: once B's prober marks A dead, unseen graphs
	// stop paying even the discovery timeout — dead owners are skipped, not
	// dialed, and their keys fail over to live ring points.
	waitState := func(viewer *drillNode, peer string, want fleet.State) error {
		deadline := time.Now().Add(15 * time.Second)
		for viewer.s.health.State(peer) != want {
			if time.Now().After(deadline) {
				return fmt.Errorf("fleet drill: %s never saw %s reach %s (stuck at %s)",
					viewer.ts.URL, peer, want, viewer.s.health.State(peer))
			}
			time.Sleep(10 * time.Millisecond)
		}
		return nil
	}
	if err := waitState(b, a.ts.URL, fleet.StateDead); err != nil {
		return err
	}
	timeoutsBefore := b.s.peers.Stats().Timeouts
	failover := serenity.RandWireCell("rw-fleet-drill-failover", 24, 4, 0.75, 101, 16, 8)
	buf.Reset()
	if err := serenity.WriteGraphJSON(&buf, failover); err != nil {
		return err
	}
	fsr, err := drillPost(b.ts, buf.Bytes())
	if err != nil {
		return fmt.Errorf("fleet drill: post-failover compile surfaced an error: %w", err)
	}
	if fsr.Quality != serenity.QualityOptimal {
		return fmt.Errorf("fleet drill: post-failover compile degraded quality to %q", fsr.Quality)
	}
	if d := b.s.peers.Stats().Timeouts - timeoutsBefore; d != 0 {
		return fmt.Errorf("fleet drill: post-failover compile burned %d peer timeouts; a dead owner must be skipped, not dialed", d)
	}
	fmt.Fprintf(out, "fleet drill: B marked A dead and compiled another unseen graph with 0 new peer timeouts (%d failovers routed)\n",
		b.s.peers.Stats().Failovers)

	// Partition and rejoin: cut B and C apart (both directions), compile on B
	// mid-partition, heal, wait for the views to revive, and converge C.
	b.fault.Partition(c.ts.URL)
	c.fault.Partition(b.ts.URL)
	if err := waitState(b, c.ts.URL, fleet.StateDead); err != nil {
		return err
	}
	parted := serenity.RandWireCell("rw-fleet-drill-partition", 24, 4, 0.75, 103, 16, 8)
	buf.Reset()
	if err := serenity.WriteGraphJSON(&buf, parted); err != nil {
		return err
	}
	psr, err := drillPost(b.ts, buf.Bytes())
	if err != nil {
		return fmt.Errorf("fleet drill: mid-partition compile surfaced an error: %w", err)
	}
	b.fault.Heal(c.ts.URL)
	c.fault.Heal(b.ts.URL)
	if err := waitState(b, c.ts.URL, fleet.StateAlive); err != nil {
		return err
	}
	cPulled := 0
	for rounds := 0; rounds < 64; rounds++ {
		n, err := c.s.syncer.SyncOnce(context.Background(), b.ts.URL)
		if err != nil {
			return fmt.Errorf("fleet drill: post-heal anti-entropy: %w", err)
		}
		cPulled += n
		if n == 0 {
			break
		}
	}
	statesBefore := c.s.states.Load()
	crs, err := drillPost(c.ts, buf.Bytes())
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(crs.Order, psr.Order) {
		return fmt.Errorf("fleet drill: C's post-heal schedule diverged from B's mid-partition one")
	}
	if d := c.s.states.Load() - statesBefore; d != 0 {
		return fmt.Errorf("fleet drill: C re-explored %d DP states for a corpus anti-entropy already delivered", d)
	}
	fmt.Fprintf(out, "fleet drill: partition healed; C pulled %d records and replayed the partition-era graph with 0 fresh DP states\n",
		cPulled)
	fmt.Fprintln(out, "fleet drill: PASS")
	return nil
}
