package fleet

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/serenity-ml/serenity/internal/store"
)

// testStore adapts internal/store to the fleet Store interface the way the
// serenityd side does: first-writer-wins puts, skip-existing imports. No
// payload validation — these tests move opaque bytes.
type testStore struct{ s *store.Store }

func (t testStore) GetArtifact(key string) ([]byte, bool) { return t.s.Get(key) }

func (t testStore) PutArtifact(key string, payload []byte) bool {
	wrote, err := t.s.PutIfAbsent(key, payload)
	return wrote && err == nil
}

// put seeds a key the test knows to be absent.
func (t testStore) put(key string, payload []byte) error {
	wrote, err := t.s.PutIfAbsent(key, payload)
	if err == nil && !wrote {
		err = fmt.Errorf("key %q is already stored", key)
	}
	return err
}

func (t testStore) KeyHashes() []uint64 { return t.s.KeyHashes() }

func (t testStore) ExportMissing(w io.Writer, have map[uint64]bool, max int) (int, error) {
	n := 0
	err := t.s.Export(w, func(key string) bool {
		if n < max && !have[store.KeyHash(key)] {
			n++
			return true
		}
		return false
	})
	return n, err
}

func (t testStore) ImportMissing(r io.Reader) (int, error) {
	added, _, err := t.s.Import(r, nil)
	return added, err
}

// node is one in-process fleet member: a store, a mux, and a live listener.
type node struct {
	st  testStore
	mux *http.ServeMux
	srv *httptest.Server
	// requests counts every peer request that reached this node.
	requests atomic.Int64
}

func newNode(t *testing.T) *node {
	t.Helper()
	s, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	n := &node{st: testStore{s: s}, mux: http.NewServeMux()}
	n.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.requests.Add(1)
		n.mux.ServeHTTP(w, r)
	}))
	t.Cleanup(n.srv.Close)
	return n
}

// buildFleet starts n nodes and wires each one's ring + peer server; the
// rings are built after every listener is up so the member URLs are real.
func buildFleet(t *testing.T, count int, gate Gate) ([]*node, []*Ring) {
	t.Helper()
	nodes := make([]*node, count)
	members := make([]string, count)
	for i := range nodes {
		nodes[i] = newNode(t)
		members[i] = nodes[i].srv.URL
	}
	rings := make([]*Ring, count)
	for i, n := range nodes {
		r, err := NewRing(members[i], members, 0)
		if err != nil {
			t.Fatal(err)
		}
		rings[i] = r
		NewServer(n.st, r, gate).Register(n.mux)
	}
	return nodes, rings
}

// keyOwnedBy finds a memo-shaped key (pipes, equals signs — the characters
// that must survive URL escaping) owned by the member at ownerIdx.
func keyOwnedBy(t *testing.T, r *Ring, owner string, salt int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("%064x|exact|a=true|t=%d|s=0", i*2654435761+salt, i)
		if r.Owner(key) == owner {
			return key
		}
	}
	t.Fatal("could not synthesize a key for the target owner")
	return ""
}

func TestClientFetchFromOwner(t *testing.T) {
	nodes, rings := buildFleet(t, 2, nil)
	a, b := nodes[0], nodes[1]
	key := keyOwnedBy(t, rings[0], b.srv.URL, 0)
	payload := []byte("artifact-bytes-\x00\x01")
	if err := b.st.put(key, payload); err != nil {
		t.Fatal(err)
	}
	c := NewClient(rings[0], ClientOptions{})
	defer c.Close()
	got, ok := c.Fetch(context.Background(), key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Fetch from owner: ok=%v payload=%q", ok, got)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Errorf("stats after hit: %+v", st)
	}
	// Fetching a key this node owns itself must short-circuit: no peer is
	// authoritative for it, so there is nobody worth asking.
	selfKey := keyOwnedBy(t, rings[0], a.srv.URL, 7)
	if _, ok := c.Fetch(context.Background(), selfKey); ok {
		t.Fatal("Fetch answered a self-owned key")
	}
}

func TestClientNegativeCacheAbsorbsRepeatMisses(t *testing.T) {
	nodes, rings := buildFleet(t, 2, nil)
	b := nodes[1]
	key := keyOwnedBy(t, rings[0], b.srv.URL, 0)
	c := NewClient(rings[0], ClientOptions{NegativeTTL: time.Minute})
	defer c.Close()
	if _, ok := c.Fetch(context.Background(), key); ok {
		t.Fatal("Fetch found a record nobody stored")
	}
	before := b.requests.Load()
	for i := 0; i < 10; i++ {
		if _, ok := c.Fetch(context.Background(), key); ok {
			t.Fatal("negative-cached key turned into a hit")
		}
	}
	if b.requests.Load() != before {
		t.Errorf("repeat misses dialed the owner %d more times; the negative cache should absorb them",
			b.requests.Load()-before)
	}
	if st := c.Stats(); st.Misses != 11 {
		t.Errorf("misses = %d, want 11", st.Misses)
	}
}

// TestClientSkipsDeadOwnerAfterFirstFailure: a client built with no health
// view of its own gets the defaulted, unprobed one, and its fetch failures
// alone demote a dead owner, so the next key it owns is not dialed at all.
func TestClientSkipsDeadOwnerAfterFirstFailure(t *testing.T) {
	nodes, rings := buildFleet(t, 2, nil)
	b := nodes[1]
	key := keyOwnedBy(t, rings[0], b.srv.URL, 0)
	b.srv.Close() // the owner is dead before the first fetch
	c := NewClient(rings[0], ClientOptions{})
	defer c.Close()
	if _, ok := c.Fetch(context.Background(), key); ok {
		t.Fatal("Fetch succeeded against a dead peer")
	}
	afterFirst := c.Stats()
	if afterFirst.Timeouts == 0 {
		t.Fatalf("dead peer produced no transport failures: %+v", afterFirst)
	}
	// A different key with the same dead owner must now miss instantly: the
	// health view routes it away from the owner, with no further dial.
	key2 := keyOwnedBy(t, rings[0], b.srv.URL, 99)
	start := time.Now()
	if _, ok := c.Fetch(context.Background(), key2); ok {
		t.Fatal("Fetch succeeded against a dead peer")
	}
	if elapsed := time.Since(start); elapsed > 50*time.Millisecond {
		t.Errorf("fetch after the owner's failure took %v; it should not dial at all", elapsed)
	}
	if st := c.Stats(); st.Timeouts != afterFirst.Timeouts {
		t.Errorf("the demoted owner was dialed again: %+v", st)
	}
}

func TestClientReplicatesToOwner(t *testing.T) {
	nodes, rings := buildFleet(t, 2, nil)
	b := nodes[1]
	key := keyOwnedBy(t, rings[0], b.srv.URL, 0)
	payload := []byte("fresh-local-compute")
	c := NewClient(rings[0], ClientOptions{})
	defer c.Close()
	c.Replicate(context.Background(), key, payload)
	c.Drain()
	got, ok := b.st.GetArtifact(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("owner never received the replica: ok=%v payload=%q", ok, got)
	}
	// First-writer-wins: a second replica with different bytes must not
	// clobber the established record.
	c.Replicate(context.Background(), key, []byte("a-different-twin"))
	c.Drain()
	got, _ = b.st.GetArtifact(key)
	if !bytes.Equal(got, payload) {
		t.Fatalf("replication clobbered an established record: %q", got)
	}
	if st := c.Stats(); st.Replicated != 2 {
		t.Errorf("Replicated = %d, want 2 (second push accepted as an idempotent no-op)", st.Replicated)
	}
}

// TestReplicateRacesClose: a Replicate racing Close drops its push instead of
// sending on the closed queue, which would panic the process, and every push
// the queue did accept is still attempted before Close returns.
func TestReplicateRacesClose(t *testing.T) {
	self, peer := "http://self.invalid", "http://peer.invalid"
	r, err := NewRing(self, []string{peer}, 0)
	if err != nil {
		t.Fatal(err)
	}
	key := keyOwnedBy(t, r, peer, 0)
	ft := NewFaultTransport(nil, 1)
	ft.Isolate() // every push fails at once, without dialing
	hc := &http.Client{Transport: ft}
	rounds := 3000
	if testing.Short() {
		rounds = 300
	}
	for round := 0; round < rounds; round++ {
		c := NewClient(r, ClientOptions{HTTPClient: hc})
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 32; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 4; i++ {
					c.Replicate(context.Background(), key, []byte("x"))
				}
			}()
		}
		close(start)
		c.Close()
		wg.Wait()
		if n := c.pending.Load(); n != 0 {
			t.Fatalf("round %d: %d accepted pushes were never attempted", round, n)
		}
	}
}

func TestGateShedsPeerTraffic(t *testing.T) {
	denied := Gate(func() (func(), bool) { return nil, false })
	nodes, rings := buildFleet(t, 2, denied)
	b := nodes[1]
	key := keyOwnedBy(t, rings[0], b.srv.URL, 0)
	if err := b.st.put(key, []byte("x")); err != nil {
		t.Fatal(err)
	}
	c := NewClient(rings[0], ClientOptions{})
	defer c.Close()
	// The record exists, but the gate sheds the request: the client must
	// treat 429 as a miss, not an error and not a failure of the peer.
	if _, ok := c.Fetch(context.Background(), key); ok {
		t.Fatal("Fetch got through a closed gate")
	}
	if st := c.Stats(); st.Misses != 1 || st.Timeouts != 0 {
		t.Errorf("shed fetch should be a clean miss: %+v", st)
	}
}

// newTestSyncer builds a Syncer over st and a Client for r built from copts;
// the client closes with the test.
func newTestSyncer(t *testing.T, st Store, r *Ring, copts ClientOptions, opts SyncerOptions) *Syncer {
	t.Helper()
	c := NewClient(r, copts)
	t.Cleanup(c.Close)
	return NewSyncer(st, c, opts)
}

func TestSyncerConvergesInCappedBatches(t *testing.T) {
	nodes, rings := buildFleet(t, 2, nil)
	a, b := nodes[0], nodes[1]
	const records = 10
	keys := make([]string, records)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x|greedy", i)
		if err := a.st.put(keys[i], bytes.Repeat([]byte{byte(i)}, 16)); err != nil {
			t.Fatal(err)
		}
	}
	// B already holds one of the keys with different bytes; sync must leave
	// it alone (first-writer-wins) and pull only what is missing.
	if err := b.st.put(keys[3], []byte("established")); err != nil {
		t.Fatal(err)
	}
	sy := newTestSyncer(t, b.st, rings[1], ClientOptions{}, SyncerOptions{Batch: 4})
	total := 0
	for round := 0; round < 10 && total < records-1; round++ {
		n, err := sy.SyncOnce(context.Background(), a.srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		if n > 4 {
			t.Fatalf("round pulled %d records; batch cap is 4", n)
		}
		total += n
	}
	if total != records-1 {
		t.Fatalf("sync pulled %d records, want %d", total, records-1)
	}
	for i, key := range keys {
		got, ok := b.st.GetArtifact(key)
		if !ok {
			t.Fatalf("key %q never converged", key)
		}
		if i == 3 {
			if !bytes.Equal(got, []byte("established")) {
				t.Fatalf("sync clobbered an established record: %q", got)
			}
		} else if !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 16)) {
			t.Fatalf("key %q converged with wrong bytes", key)
		}
	}
	// A fully converged pair must settle to no-op rounds.
	if n, err := sy.SyncOnce(context.Background(), a.srv.URL); err != nil || n != 0 {
		t.Fatalf("converged sync round moved %d records (err=%v)", n, err)
	}
	if st := sy.Stats(); st.Pulled != int64(records-1) {
		t.Errorf("syncer stats pulled=%d, want %d", st.Pulled, records-1)
	}
}

func TestSyncerBackgroundLoopConverges(t *testing.T) {
	nodes, rings := buildFleet(t, 2, nil)
	a, b := nodes[0], nodes[1]
	for i := 0; i < 5; i++ {
		if err := a.st.put(fmt.Sprintf("bg-%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	sy := newTestSyncer(t, b.st, rings[1], ClientOptions{}, SyncerOptions{Interval: 10 * time.Millisecond})
	sy.Start()
	defer sy.Stop()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if len(b.st.KeyHashes()) == 5 {
			sy.Stop()
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("background sync never converged; B holds %d records", len(b.st.KeyHashes()))
}

func TestSyncerSurvivesDeadPeer(t *testing.T) {
	nodes, rings := buildFleet(t, 2, nil)
	a := nodes[0]
	a.srv.Close()
	sy := newTestSyncer(t, nodes[1].st, rings[1], ClientOptions{}, SyncerOptions{Timeout: 100 * time.Millisecond})
	if _, err := sy.SyncOnce(context.Background(), a.srv.URL); err == nil {
		t.Fatal("sync against a dead peer must report the error (the loop counts and moves on)")
	}
}

// keyWithFailover finds a memo-shaped key whose static owner is primary AND
// whose first failover candidate is second — so a test can pin exactly where
// a key lands when its owner dies.
func keyWithFailover(t *testing.T, r *Ring, primary, second string, salt int) string {
	t.Helper()
	n := len(r.Members())
	for i := 0; i < 100000; i++ {
		key := fmt.Sprintf("%064x|exact|a=true|t=%d|s=1", i*2654435761+salt, i)
		if order := r.Owners(key, n); order[0] == primary && order[1] == second {
			return key
		}
	}
	t.Fatal("could not synthesize a key with the target failover order")
	return ""
}

// TestClientFailoverSkipsSuspectOwner is the dead-owner cold-key regression
// test: once the health view marks a key's owner Suspect, a fetch for a key
// it owns goes STRAIGHT to the failover owner — zero dials at the primary,
// zero added latency, no timeout burned.
func TestClientFailoverSkipsSuspectOwner(t *testing.T) {
	nodes, rings := buildFleet(t, 3, nil)
	b, cNode := nodes[1], nodes[2]
	key := keyWithFailover(t, rings[0], b.srv.URL, cNode.srv.URL, 0)
	payload := []byte("failover-served-bytes")
	if err := cNode.st.put(key, payload); err != nil {
		t.Fatal(err)
	}
	h := NewHealth(rings[0].Peers(), HealthOptions{})
	h.ReportFailure(b.srv.URL) // one failed probe: b is Suspect
	c := NewClient(rings[0], ClientOptions{Health: h, Timeout: 150 * time.Millisecond})
	defer c.Close()

	before := b.requests.Load()
	start := time.Now()
	got, ok := c.Fetch(context.Background(), key)
	elapsed := time.Since(start)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("failover fetch: ok=%v payload=%q", ok, got)
	}
	if b.requests.Load() != before {
		t.Fatalf("fetch dialed the suspect owner %d times; it must skip straight to the failover",
			b.requests.Load()-before)
	}
	if elapsed > 100*time.Millisecond {
		t.Errorf("failover fetch took %v; skipping a suspect must cost no timeout", elapsed)
	}
	if st := c.Stats(); st.Failovers != 1 || st.Hits != 1 {
		t.Errorf("stats after failover hit: %+v", st)
	}
}

// TestClientFetchOutcomeFeedsHealth: the first timeout against a dead owner
// demotes it via the fetch path itself (no prober running), so the SECOND
// cold key routed at it already fails over instantly.
func TestClientFetchOutcomeFeedsHealth(t *testing.T) {
	nodes, rings := buildFleet(t, 3, nil)
	b, cNode := nodes[1], nodes[2]
	key1 := keyWithFailover(t, rings[0], b.srv.URL, cNode.srv.URL, 0)
	key2 := keyWithFailover(t, rings[0], b.srv.URL, cNode.srv.URL, 99)
	payload := []byte("on-the-failover")
	if err := cNode.st.put(key2, payload); err != nil {
		t.Fatal(err)
	}
	b.srv.Close() // kill -9, from the wire's point of view

	h := NewHealth(rings[0].Peers(), HealthOptions{})
	c := NewClient(rings[0], ClientOptions{Health: h, Timeout: 100 * time.Millisecond})
	defer c.Close()

	// First fetch pays the discovery cost: the dial fails, the detector hears
	// about it, b goes Suspect.
	if _, ok := c.Fetch(context.Background(), key1); ok {
		t.Fatal("fetch succeeded against a closed listener")
	}
	if got := h.State(b.srv.URL); got != StateSuspect && got != StateDead {
		t.Fatalf("fetch failure never reached the detector: b is %v", got)
	}
	// Second fetch must route around b without dialing it at all.
	start := time.Now()
	got, ok := c.Fetch(context.Background(), key2)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("second fetch did not fail over: ok=%v payload=%q", ok, got)
	}
	if elapsed := time.Since(start); elapsed > 80*time.Millisecond {
		t.Errorf("second fetch took %v; the dead owner should cost exactly one discovery", elapsed)
	}
}

// TestClientReplicationReroutesAroundDeadOwner: write-behind pushes for a
// Dead owner's keys land on the failover owner (who is actually serving
// them); a merely Suspect owner still gets its push.
func TestClientReplicationReroutesAroundDeadOwner(t *testing.T) {
	nodes, rings := buildFleet(t, 3, nil)
	b, cNode := nodes[1], nodes[2]
	h := NewHealth(rings[0].Peers(), HealthOptions{})
	c := NewClient(rings[0], ClientOptions{Health: h})
	defer c.Close()

	// Suspect: the push still goes to the static owner.
	keySuspect := keyWithFailover(t, rings[0], b.srv.URL, cNode.srv.URL, 0)
	h.ReportFailure(b.srv.URL)
	c.Replicate(context.Background(), keySuspect, []byte("pushed-despite-blip"))
	c.Drain()
	if _, ok := b.st.GetArtifact(keySuspect); !ok {
		t.Fatal("suspect owner lost its replica; only Dead reroutes replication")
	}
	// An accepted push is no evidence of readiness (a pre-streaming joiner
	// accepts PUTs too), so it must not revive the owner.
	if got := h.State(b.srv.URL); got != StateSuspect {
		t.Fatalf("a successful push moved the suspect owner to %v", got)
	}
	// Dead: the push reroutes to the failover owner.
	keyDead := keyWithFailover(t, rings[0], b.srv.URL, cNode.srv.URL, 777)
	h.ReportFailure(b.srv.URL)
	h.ReportFailure(b.srv.URL) // three consecutive: Dead
	c.Replicate(context.Background(), keyDead, []byte("rerouted"))
	c.Drain()
	if _, ok := cNode.st.GetArtifact(keyDead); !ok {
		t.Fatal("dead owner's replica never rerouted to the failover owner")
	}
	if _, ok := b.st.GetArtifact(keyDead); ok {
		t.Fatal("replica was pushed to the dead owner anyway")
	}
}

// TestReplicationFailuresDemoteOwner: pushes that never reach their owner are
// evidence against it. After DeadAfter unanswered pushes the owner is Dead,
// and the next push lands on the failover owner instead of being dropped.
func TestReplicationFailuresDemoteOwner(t *testing.T) {
	nodes, rings := buildFleet(t, 3, nil)
	b, cNode := nodes[1], nodes[2]
	b.srv.Close() // a closed listener: every push is refused
	const deadAfter = 3
	h := NewHealth(rings[0].Peers(), HealthOptions{DeadAfter: deadAfter})
	c := NewClient(rings[0], ClientOptions{Health: h})
	defer c.Close()

	for i := 1; i <= deadAfter; i++ {
		if got := h.State(b.srv.URL); got == StateDead {
			t.Fatalf("owner Dead after %d failed pushes, want %d", i-1, deadAfter)
		}
		c.Replicate(context.Background(), keyWithFailover(t, rings[0], b.srv.URL, cNode.srv.URL, i), []byte("lost"))
		c.Drain()
	}
	if got := h.State(b.srv.URL); got != StateDead {
		t.Fatalf("owner is %v after %d failed pushes, want dead", got, deadAfter)
	}
	key := keyWithFailover(t, rings[0], b.srv.URL, cNode.srv.URL, 1000)
	c.Replicate(context.Background(), key, []byte("rerouted"))
	c.Drain()
	if got, ok := cNode.st.GetArtifact(key); !ok || string(got) != "rerouted" {
		t.Fatalf("push after the owner died never reached the failover owner: ok=%v payload=%q", ok, got)
	}
	if st := c.Stats(); st.ReplicationDropped != deadAfter || st.Replicated != 1 || st.Failovers != 1 {
		t.Errorf("stats %+v, want %d dropped, 1 replicated, 1 failover", st, deadAfter)
	}
}

// TestClientUpdateRing: a joining member starts receiving its keys' fetches
// without the client restarting.
func TestClientUpdateRing(t *testing.T) {
	nodes, rings := buildFleet(t, 2, nil)
	a := nodes[0]
	// A third node joins after the client exists.
	d := newNode(t)
	grown := append([]string{d.srv.URL}, rings[0].Members()...)
	ringA, err := NewRing(a.srv.URL, grown, 0)
	if err != nil {
		t.Fatal(err)
	}
	ringD, err := NewRing(d.srv.URL, grown, 0)
	if err != nil {
		t.Fatal(err)
	}
	NewServer(d.st, ringD, nil).Register(d.mux)

	h := NewHealth(rings[0].Peers(), HealthOptions{})
	c := NewClient(rings[0], ClientOptions{Health: h})
	defer c.Close()
	c.UpdateRing(ringA)
	if got, want := fmt.Sprint(h.Members()), fmt.Sprint(ringA.Peers()); got != want {
		t.Fatalf("health tracks %s after the join, want the new ring's peers %s", got, want)
	}
	key := keyOwnedBy(t, ringA, d.srv.URL, 3)
	payload := []byte("served-by-the-joiner")
	if err := d.st.put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Fetch(context.Background(), key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("post-join fetch: ok=%v payload=%q", ok, got)
	}
	if c.Ring() != ringA {
		t.Fatal("Ring() does not reflect the swap")
	}
}

// TestSyncerConvergePreStreamsEverything: the join handoff primitive pulls
// the full corpus from every live peer in passes until a pass adds nothing.
func TestSyncerConvergePreStreams(t *testing.T) {
	nodes, rings := buildFleet(t, 3, nil)
	a, b, cNode := nodes[0], nodes[1], nodes[2]
	for i := 0; i < 7; i++ {
		if err := a.st.put(fmt.Sprintf("from-a-%d", i), []byte{1, byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := b.st.put(fmt.Sprintf("from-b-%d", i), []byte{2, byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var rounds atomic.Int64
	sy := newTestSyncer(t, cNode.st, rings[2], ClientOptions{}, SyncerOptions{
		Batch:   3, // force multiple passes
		OnRound: func(string, int, error) { rounds.Add(1) },
	})
	total, err := sy.Converge(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if total != 12 {
		t.Fatalf("Converge imported %d records, want 12", total)
	}
	if len(cNode.st.KeyHashes()) != 12 {
		t.Fatalf("joiner holds %d records after handoff, want 12", len(cNode.st.KeyHashes()))
	}
	if rounds.Load() == 0 {
		t.Error("OnRound hook never fired")
	}
	// Converged: another Converge is a no-op single pass.
	if n, err := sy.Converge(context.Background()); err != nil || n != 0 {
		t.Fatalf("second Converge moved %d records (err=%v)", n, err)
	}
}

// TestSyncerConvergeSkipsDeadPeers: under the client's health view, Converge
// pulls from live peers only and still terminates despite a dead one.
func TestSyncerConvergeSkipsDeadPeers(t *testing.T) {
	nodes, rings := buildFleet(t, 3, nil)
	a, b, cNode := nodes[0], nodes[1], nodes[2]
	if err := a.st.put("survivor-key", []byte("x")); err != nil {
		t.Fatal(err)
	}
	b.srv.Close()
	h := NewHealth(rings[2].Peers(), HealthOptions{})
	h.ReportFailure(b.srv.URL)
	h.ReportFailure(b.srv.URL)
	h.ReportFailure(b.srv.URL) // dead
	sy := newTestSyncer(t, cNode.st, rings[2], ClientOptions{Health: h}, SyncerOptions{Timeout: 200 * time.Millisecond})
	start := time.Now()
	total, err := sy.Converge(context.Background())
	if err != nil {
		t.Fatalf("Converge over a part-dead fleet errored: %v", err)
	}
	if total != 1 {
		t.Fatalf("Converge imported %d records, want 1", total)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("Converge burned %v dialing a dead peer it knew about", elapsed)
	}
}

// TestSyncExchange: one POST of a digest moves exactly the exporter's records
// that are absent from it, stops at the digest's cap, and cannot displace an
// established record; an old-format body answers 400 and moves nothing.
func TestSyncExchange(t *testing.T) {
	exporter, requester := newNode(t), newNode(t)
	ring, err := NewRing(exporter.srv.URL, []string{exporter.srv.URL, requester.srv.URL}, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(exporter.st, ring, nil)
	srv.Register(exporter.mux)
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 16) }
	keys := make([]string, 10)
	for i := range keys {
		keys[i] = fmt.Sprintf("%064x|exact", i)
		if err := exporter.st.put(keys[i], payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The requester holds two of the keys: one with the exporter's bytes and
	// one established with bytes of its own.
	if err := requester.st.put(keys[3], []byte("established")); err != nil {
		t.Fatal(err)
	}
	if err := requester.st.put(keys[5], payload(5)); err != nil {
		t.Fatal(err)
	}

	// exchange POSTs body and returns the status and the streamed records.
	exchange := func(body []byte) (int, map[string][]byte) {
		t.Helper()
		resp, err := http.Post(exporter.srv.URL+syncPath, "application/octet-stream", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return resp.StatusCode, nil
		}
		got, err := store.Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		defer got.Close()
		if _, _, err := got.Import(resp.Body, nil); err != nil {
			t.Fatal(err)
		}
		records := map[string][]byte{}
		for _, e := range got.Entries() {
			records[e.Key], _ = got.Get(e.Key)
		}
		return resp.StatusCode, records
	}

	status, records := exchange(encodeDigest(100, requester.st.KeyHashes()))
	if status != http.StatusOK || len(records) != len(keys)-2 {
		t.Fatalf("status %d, %d records; want 200 and the %d the digest lacks", status, len(records), len(keys)-2)
	}
	for i, key := range keys {
		got, ok := records[key]
		if (i == 3 || i == 5) == ok {
			t.Errorf("key %d streamed=%t; the digest holds keys 3 and 5 only", i, ok)
		}
		if ok && !bytes.Equal(got, payload(i)) {
			t.Errorf("key %d streamed with the wrong bytes", i)
		}
	}
	if _, records = exchange(encodeDigest(3, requester.st.KeyHashes())); len(records) != 3 {
		t.Fatalf("a cap of 3 streamed %d records", len(records))
	}
	for key := range records {
		if key == keys[3] || key == keys[5] {
			t.Errorf("capped exchange streamed %q, which the digest holds", key)
		}
	}

	// An empty digest streams the key the requester established too, and
	// importing it leaves the established bytes alone.
	resp, err := http.Post(exporter.srv.URL+syncPath, "application/octet-stream", bytes.NewReader(encodeDigest(100, nil)))
	if err != nil {
		t.Fatal(err)
	}
	added, err := requester.st.ImportMissing(resp.Body)
	resp.Body.Close()
	if err != nil || added != len(keys)-2 {
		t.Fatalf("imported %d records (err %v), want %d", added, err, len(keys)-2)
	}
	if got, _ := requester.st.GetArtifact(keys[3]); !bytes.Equal(got, []byte("established")) {
		t.Fatalf("the exchange displaced an established record: %q", got)
	}

	// An older node's body lists the hashes it wants under "SDG1"; reading it
	// as a digest would stream everything else, so it must fail the round.
	before := srv.Stats().SyncRecords
	old := binary.LittleEndian.AppendUint32([]byte("SDG1"), 1)
	old = binary.LittleEndian.AppendUint64(old, store.KeyHash(keys[0]))
	if status, _ := exchange(old); status != http.StatusBadRequest {
		t.Fatalf("an SDG1 body answered %d, want 400", status)
	}
	if moved := srv.Stats().SyncRecords - before; moved != 0 {
		t.Fatalf("an SDG1 body streamed %d records", moved)
	}
}

func TestDigestRejectsAlienBodies(t *testing.T) {
	for _, alien := range [][]byte{
		nil, []byte("x"), []byte("NOPE\x00\x00\x00\x00"), append([]byte("SDG1"), 0xFF, 0xFF, 0xFF, 0xFF),
		append([]byte("SDG2\x01\x00\x00\x00"), 0xFF, 0xFF, 0xFF, 0xFF), // count beyond maxDigestEntries
		[]byte("SDG2\x01\x00\x00\x00\x02\x00\x00\x00\x00"),             // truncated hashes
	} {
		if _, _, err := readDigest(bytes.NewReader(alien)); err == nil {
			t.Errorf("alien digest %q was accepted", alien)
		}
	}
}
