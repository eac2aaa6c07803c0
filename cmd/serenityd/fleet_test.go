package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	serenity "github.com/serenity-ml/serenity"
	"github.com/serenity-ml/serenity/internal/fleet"
	"github.com/serenity-ml/serenity/internal/trace"
)

// testFleet builds an n-node in-process fleet with the drill's constructor
// and wires cleanup into the test.
func testFleet(t *testing.T, n int) []*drillNode {
	t.Helper()
	opts := serenity.DefaultOptions()
	opts.StepTimeout = 500 * time.Millisecond
	opts.Parallelism = 4
	nodes, err := newDrillFleet(opts, n)
	t.Cleanup(func() {
		for _, node := range nodes {
			if node != nil {
				node.close()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return nodes
}

func fleetPost(t *testing.T, node *drillNode, body []byte) *scheduleResponse {
	t.Helper()
	sr, err := drillPost(node.ts, body)
	if err != nil {
		t.Fatal(err)
	}
	return sr
}

// TestFleetPayOnceAcrossServers is the tentpole contract at serenityd scope:
// node A compiles a corpus, write-behind replication distributes it, and node
// B answers the same graphs with zero fresh DP searches and bit-identical
// schedules, entirely from the fleet tier.
func TestFleetPayOnceAcrossServers(t *testing.T) {
	nodes := testFleet(t, 2)
	a, b := nodes[0], nodes[1]
	// Enough distinct segment keys that the ring (hashed over this run's
	// random ports) all but surely hands node A some of them to serve.
	graphs := [][]byte{graphBody(t, serenity.SwiftNetCellA())}
	for seed := int64(21); seed < 33; seed++ {
		graphs = append(graphs, graphBody(t, smallCell(seed)))
	}

	orders := make([][]int, len(graphs))
	for i, g := range graphs {
		orders[i] = fleetPost(t, a, g).Order
	}
	if a.s.states.Load() == 0 {
		t.Fatal("node A's cold pass explored no states; the test workload is broken")
	}
	a.s.peers.Drain()

	peerHitsInResponses := 0
	for i, g := range graphs {
		sr := fleetPost(t, b, g)
		if !reflect.DeepEqual(sr.Order, orders[i]) {
			t.Errorf("graph %d: node B order %v diverged from node A %v", i, sr.Order, orders[i])
		}
		peerHitsInResponses += sr.SegmentMemoPeerHits
	}
	if fresh := b.s.states.Load(); fresh != 0 {
		t.Errorf("node B explored %d fresh DP states; the fleet should have answered every segment", fresh)
	}
	if bs := b.s.peers.Stats(); bs.Hits == 0 {
		t.Error("node B's fleet client reported no peer hits")
	}
	if peerHitsInResponses == 0 {
		t.Error("no response carried segment_memo_peer_hits > 0")
	}
	if got := metricValue(t, b.ts, "serenityd_peer_hits_total"); got == 0 {
		t.Error("node B's /metrics exports zero serenityd_peer_hits_total")
	}
	if got := metricValue(t, b.ts, "serenityd_states_explored_total"); got != 0 {
		t.Errorf("node B's /metrics exports %v fresh states", got)
	}
	// A served those fetches: its peer-facing hit counter moved too.
	if got := metricValue(t, a.ts, "serenityd_peer_served_hits_total"); got == 0 {
		t.Error("node A's /metrics exports zero serenityd_peer_served_hits_total")
	}
	if got := metricValue(t, a.ts, "serenityd_peer_ring_members"); got != 2 {
		t.Errorf("ring members gauge = %v, want 2", got)
	}
}

// TestFleetDeadPeerDegradesToLocalCompute: killing a peer mid-run must cost
// latency, never correctness — an unseen graph still compiles exactly, with
// no client-visible error.
func TestFleetDeadPeerDegradesToLocalCompute(t *testing.T) {
	nodes := testFleet(t, 2)
	a, b := nodes[0], nodes[1]

	// Warm the fleet so the surviving node has both kinds of keys.
	warm := graphBody(t, smallCell(31))
	want := fleetPost(t, a, warm)
	a.s.peers.Drain()

	a.ts.Close()

	// The warm graph still answers (store/replicated records + local compute
	// for whatever only A held), and an entirely fresh graph compiles exactly.
	got := fleetPost(t, b, warm)
	if !reflect.DeepEqual(got.Order, want.Order) {
		t.Errorf("surviving node's schedule diverged:\nA: %v\nB: %v", want.Order, got.Order)
	}
	fresh := fleetPost(t, b, graphBody(t, smallCell(32)))
	if fresh.Quality != serenity.QualityOptimal {
		t.Errorf("dead-peer compile degraded quality to %q", fresh.Quality)
	}
	if b.s.states.Load() == 0 {
		t.Error("surviving node never ran a local DP; the dead-peer path was not exercised")
	}
}

// TestReadyzDistinctFromHealthz: /healthz is liveness and always answers 200;
// /readyz answers 503 until boot completes (store warm, ring wired).
func TestReadyzDistinctFromHealthz(t *testing.T) {
	s, ts := testServer(t)

	get := func(path string) int {
		t.Helper()
		resp, _ := getJSON(t, ts, path)
		return resp.StatusCode
	}
	if code := get("/healthz"); code != http.StatusOK {
		t.Errorf("healthz during boot = %d, want 200 (liveness must not gate on readiness)", code)
	}
	if code := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("readyz before boot completion = %d, want 503", code)
	}
	s.ready.Store(true)
	if code := get("/readyz"); code != http.StatusOK {
		t.Errorf("readyz after boot = %d, want 200", code)
	}
}

// TestReadyzReportsFleetMembership: a fleet node's readiness payload names
// its ring so an operator can spot a node that joined the wrong cluster.
func TestReadyzReportsFleetMembership(t *testing.T) {
	nodes := testFleet(t, 3)
	resp, data := getJSON(t, nodes[0].ts, "/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d: %s", resp.StatusCode, data)
	}
	var body struct {
		Status       string `json:"status"`
		FleetMembers int    `json:"fleet_members"`
		FleetSelf    string `json:"fleet_self"`
	}
	if err := json.Unmarshal(data, &body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ready" || body.FleetMembers != 3 || body.FleetSelf == "" {
		t.Errorf("readyz payload %s, want status=ready members=3 self set", data)
	}
}

// adminCall hits a fleet admin endpoint on a node and returns status + body.
func adminCall(t *testing.T, node *drillNode, method, path string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, node.ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := node.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, data
}

// TestFleetAdminJoinLeave: membership is editable per node at runtime. A
// joined-but-dead member grows the ring, gets discovered by the prober, and
// is routed around; leaving it shrinks the ring and forgets its health.
func TestFleetAdminJoinLeave(t *testing.T) {
	nodes := testFleet(t, 2)
	a, b := nodes[0], nodes[1]

	code, data := adminCall(t, a, http.MethodGet, "/admin/fleet")
	if code != http.StatusOK {
		t.Fatalf("GET /admin/fleet = %d: %s", code, data)
	}
	var view struct {
		Self    string            `json:"self"`
		Members []string          `json:"members"`
		States  map[string]string `json:"states"`
	}
	if err := json.Unmarshal(data, &view); err != nil {
		t.Fatal(err)
	}
	if view.Self != a.ts.URL || len(view.Members) != 2 {
		t.Fatalf("fleet view %s, want self=%s and 2 members", data, a.ts.URL)
	}
	if view.States[b.ts.URL] != "alive" {
		t.Errorf("peer B state %q, want alive", view.States[b.ts.URL])
	}

	// Join a peer that is already a corpse: the ring grows immediately, the
	// prober discovers the dead socket, and compiles route around it.
	ghost := httptest.NewServer(http.NotFoundHandler())
	ghostURL := ghost.URL
	ghost.Close()
	code, data = adminCall(t, a, http.MethodPost, "/admin/fleet/join?peer="+url.QueryEscape(ghostURL))
	if code != http.StatusOK {
		t.Fatalf("join = %d: %s", code, data)
	}
	if got := metricValue(t, a.ts, "serenityd_peer_ring_members"); got != 3 {
		t.Errorf("ring members after join = %v, want 3", got)
	}
	deadline := time.Now().Add(15 * time.Second)
	for a.s.health.State(ghostURL) != fleet.StateDead {
		if time.Now().After(deadline) {
			t.Fatalf("prober never marked the joined corpse dead (state %s)", a.s.health.State(ghostURL))
		}
		time.Sleep(10 * time.Millisecond)
	}
	if sr := fleetPost(t, a, graphBody(t, smallCell(61))); sr.Quality != serenity.QualityOptimal {
		t.Errorf("compile with a dead member degraded quality to %q", sr.Quality)
	}

	// Error contract: join without ?peer=, leaving yourself, leaving a stranger.
	if code, _ = adminCall(t, a, http.MethodPost, "/admin/fleet/join"); code != http.StatusBadRequest {
		t.Errorf("join without peer = %d, want 400", code)
	}
	if code, _ = adminCall(t, a, http.MethodPost, "/admin/fleet/leave?peer="+url.QueryEscape(a.ts.URL)); code != http.StatusBadRequest {
		t.Errorf("self-leave = %d, want 400", code)
	}
	if code, _ = adminCall(t, a, http.MethodPost, "/admin/fleet/leave?peer="+url.QueryEscape("http://127.0.0.1:1/nobody")); code != http.StatusNotFound {
		t.Errorf("leave of a non-member = %d, want 404", code)
	}

	// Leave the corpse: the ring shrinks back and health stops tracking it
	// (untracked members read alive by design).
	code, data = adminCall(t, a, http.MethodPost, "/admin/fleet/leave?peer="+url.QueryEscape(ghostURL))
	if code != http.StatusOK {
		t.Fatalf("leave = %d: %s", code, data)
	}
	if got := metricValue(t, a.ts, "serenityd_peer_ring_members"); got != 2 {
		t.Errorf("ring members after leave = %v, want 2", got)
	}
	if st := a.s.health.State(ghostURL); st != fleet.StateAlive {
		t.Errorf("departed member still tracked as %s; forgotten members read alive", st)
	}
}

// newJoiner stands up a drill-style node that is NOT ready yet, with a ring
// spanning the existing fleet plus itself — the state a production joiner is
// in between its listener coming up and its join pre-stream finishing.
// onRound observes every pre-stream exchange from the syncing goroutine.
func newJoiner(t *testing.T, existing []*drillNode, onRound func(peer string, added int, err error)) *drillNode {
	t.Helper()
	opts := serenity.DefaultOptions()
	opts.StepTimeout = 500 * time.Millisecond
	opts.Parallelism = 4
	node := newDrillNode()
	t.Cleanup(node.close)
	urls := []string{node.ts.URL}
	for _, n := range existing {
		urls = append(urls, n.ts.URL)
	}
	err := node.boot(opts, urls, func(cfg *config) {
		// Tiny batches force the pre-stream through several exchanges, so the
		// mid-stream readiness probe in the test has a window to observe.
		cfg.sync.Batch = 4
		cfg.sync.OnRound = onRound
	})
	if err != nil {
		t.Fatal(err)
	}
	return node
}

// TestFleetJoinHandoff certifies the join choreography: the joiner's /readyz
// answers 503 throughout the pre-stream (holding it out of every prober's
// routing), and once ready it serves the warm corpus with zero fresh DP work.
func TestFleetJoinHandoff(t *testing.T) {
	nodes := testFleet(t, 2)
	a := nodes[0]

	graphs := [][]byte{
		graphBody(t, smallCell(51)),
		graphBody(t, smallCell(52)),
		graphBody(t, serenity.SwiftNetCellA()),
	}
	orders := make([][]int, len(graphs))
	for i, g := range graphs {
		orders[i] = fleetPost(t, a, g).Order
	}
	a.s.peers.Drain()

	var joinerURL atomic.Value
	var midStreamNotReady atomic.Bool
	var rounds atomic.Int64
	onRound := func(peer string, added int, err error) {
		rounds.Add(1)
		tsURL, _ := joinerURL.Load().(string)
		if tsURL == "" {
			return
		}
		resp, err2 := http.Get(tsURL + "/readyz")
		if err2 != nil {
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			midStreamNotReady.Store(true)
		}
	}
	j := newJoiner(t, nodes, onRound)
	joinerURL.Store(j.ts.URL)

	// Announce the joiner to both members. Its listener is up but /readyz
	// answers 503, so their probers keep it out of routing while it streams.
	for _, n := range nodes {
		code, data := adminCall(t, n, http.MethodPost, "/admin/fleet/join?peer="+url.QueryEscape(j.ts.URL))
		if code != http.StatusOK {
			t.Fatalf("join on %s = %d: %s", n.ts.URL, code, data)
		}
	}
	deadline := time.Now().Add(15 * time.Second)
	for a.s.health.State(j.ts.URL) == fleet.StateAlive {
		if time.Now().After(deadline) {
			t.Fatal("A never noticed the joiner is not ready; probes must target /readyz")
		}
		time.Sleep(5 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	pulled, err := j.s.syncer.Converge(ctx)
	if err != nil {
		t.Fatalf("join pre-stream: %v", err)
	}
	if pulled == 0 {
		t.Fatal("join pre-stream imported nothing; the warm corpus should flow before readiness")
	}
	if rounds.Load() == 0 {
		t.Fatal("OnRound never fired during the pre-stream")
	}
	if !midStreamNotReady.Load() {
		t.Error("joiner answered /readyz 200 mid-pre-stream; readiness must wait for convergence")
	}

	j.s.ready.Store(true)
	for a.s.health.State(j.ts.URL) != fleet.StateAlive {
		if time.Now().After(deadline) {
			t.Fatal("A never revived the joiner after it turned ready")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The joiner now owns its keyspace share and answers the warm corpus
	// bit-identically with ZERO fresh DP states — the handoff delivered
	// everything before the first request arrived.
	for i, g := range graphs {
		sr := fleetPost(t, j, g)
		if !reflect.DeepEqual(sr.Order, orders[i]) {
			t.Errorf("graph %d: joiner order %v diverged from %v", i, sr.Order, orders[i])
		}
	}
	if fresh := j.s.states.Load(); fresh != 0 {
		t.Errorf("joiner explored %d fresh DP states; the pre-stream should have delivered the corpus", fresh)
	}
}

// TestFleetDrillSmoke runs the 3-node in-process fleet drill end to end; it
// is the same machinery CI's multi-process smoke exercises, kept green from
// go test.
func TestFleetDrillSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("3-node drill compiles the full model zoo")
	}
	opts := serenity.DefaultOptions()
	opts.StepTimeout = 500 * time.Millisecond
	opts.Parallelism = 4
	var out bytes.Buffer
	if err := runFleetDrill(opts, &out); err != nil {
		t.Fatalf("fleet drill failed: %v\n%s", err, out.String())
	}
	if !bytes.Contains(out.Bytes(), []byte("fleet drill: PASS")) {
		t.Errorf("drill output missing PASS line:\n%s", out.String())
	}
}

// TestFleetRefinementReachesOwner: fleet ≡ single node for repaired answers
// too. A forced-degraded request on a node that does not own (some of) the
// graph's segment keys is refined in the background; because that refinement
// is an ordinary recompute through the walk, its fresh exact results are
// replicated toward their ring owner like any request's, so the owner's
// store holds the very artifact the repairing node wrote — with no
// anti-entropy round in between (the drill fleet's sync interval is an hour).
func TestFleetRefinementReachesOwner(t *testing.T) {
	opts := serenity.DefaultOptions()
	opts.StepTimeout = 500 * time.Millisecond
	opts.Parallelism = 4
	nodes := []*drillNode{newDrillNode(), newDrillNode()}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.close()
		}
	})
	urls := []string{nodes[0].ts.URL, nodes[1].ts.URL}
	for _, n := range nodes {
		if err := n.boot(opts, urls, func(c *config) {
			c.refineOpts = serenity.RefinePoolOptions{Workers: 1, QueueDepth: 64}
		}); err != nil {
			t.Fatal(err)
		}
		n.s.ready.Store(true)
	}
	owner, b := nodes[0], nodes[1]

	// Plug B's one refinement worker so "before the repair" is observable.
	unblock := plugRefine(t, b.s.refine, 1)

	// Ownership is hashed over this run's random ports, so scan graphs until
	// one has a segment key the other node owns; the degraded request's own
	// trace names its keys.
	for seed := int64(61); seed < 81; seed++ {
		body := graphBody(t, smallCell(seed))
		degraded, _ := postScheduleOK(t, b.ts, "?strategy=best-effort&degrade=force&debug=trace", body)
		if degraded.Quality != serenity.QualityHeuristic || degraded.Trace == nil {
			t.Fatalf("forced degrade: quality %q, trace %v", degraded.Quality, degraded.Trace)
		}
		spans := map[string][]*trace.Node{}
		flattenTree(degraded.Trace.Spans, spans)
		var owned []string
		for _, seg := range spans["segment"] {
			if key := seg.Attrs["memo_key"]; key != "" && b.s.peers.Ring().Owner(key) == owner.ts.URL {
				owned = append(owned, key)
			}
		}
		if len(owned) == 0 {
			continue
		}
		b.s.peers.Drain()
		for _, key := range owned {
			if _, ok := owner.s.store.GetArtifact(key); ok {
				t.Fatalf("owner holds %q before the refinement ran: a degraded result was replicated", key)
			}
		}

		close(unblock)
		drainRefine(t, b.s.refine)
		if st := b.s.refine.Stats(); st.Failed != 0 {
			t.Fatalf("refinement failed: %+v", st)
		}
		b.s.peers.Drain()
		for _, key := range owned {
			got, ok := owner.s.store.GetArtifact(key)
			if !ok {
				t.Errorf("owner's store lacks refined key %q", key)
				continue
			}
			if sr, err := serenity.UnmarshalSegmentArtifact(got); err != nil || sr.Quality != serenity.QualityOptimal {
				t.Errorf("owner's artifact for %q: quality %q, err %v", key, sr.Quality, err)
			}
			if local, _ := b.s.store.GetArtifact(key); !bytes.Equal(local, got) {
				t.Errorf("owner's artifact for %q differs from the repairing node's", key)
			}
		}
		if rounds := owner.s.syncer.Stats().Rounds + b.s.syncer.Stats().Rounds; rounds != 0 {
			t.Errorf("%d anti-entropy rounds ran; the artifacts must have arrived by replication", rounds)
		}
		return
	}
	t.Fatal("no scanned graph had a segment key owned by the other node")
}
