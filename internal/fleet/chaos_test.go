package fleet

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sort"
	"testing"
	"time"
)

// chaosNode is one fully wired fleet member for the chaos harness: every
// outbound HTTP path (fetch, replication, probes, sync) rides the node's
// FaultTransport, so killing, partitioning, and healing it is a rule edit.
type chaosNode struct {
	n    *node
	ring *Ring
	ft   *FaultTransport
	h    *Health
	c    *Client
	sy   *Syncer
}

// buildChaosFleet wires count members with fault transports and health
// probers. Probers start only after EVERY node's handlers are mounted — a
// probe that lands before Register would 404, and a fleet that boots into
// false suspects tests nothing but the boot race.
func buildChaosFleet(t *testing.T, count int, seed int64) []*chaosNode {
	t.Helper()
	nodes := make([]*node, count)
	members := make([]string, count)
	for i := range nodes {
		nodes[i] = newNode(t)
		members[i] = nodes[i].srv.URL
	}
	fleet := make([]*chaosNode, count)
	for i, n := range nodes {
		r, err := NewRing(members[i], members, 0)
		if err != nil {
			t.Fatal(err)
		}
		NewServer(n.st, r, nil).Register(n.mux)
		ft := NewFaultTransport(nil, seed*1000+int64(i))
		hc := &http.Client{Transport: ft}
		h := NewHealth(r.Peers(), HealthOptions{
			Interval:   10 * time.Millisecond,
			Timeout:    200 * time.Millisecond,
			DeadAfter:  2,
			HTTPClient: hc,
		})
		c := NewClient(r, ClientOptions{
			Timeout:    150 * time.Millisecond,
			HTTPClient: hc,
			Health:     h,
		})
		fleet[i] = &chaosNode{
			n: n, ring: r, ft: ft, h: h, c: c,
			sy: NewSyncer(n.st, c, SyncerOptions{Timeout: 500 * time.Millisecond}),
		}
	}
	for _, cn := range fleet {
		cn.h.Start()
		t.Cleanup(cn.h.Stop)
		t.Cleanup(cn.c.Close)
	}
	return fleet
}

// digestOf is a node's corpus fingerprint: its sorted key hashes.
func digestOf(cn *chaosNode) string {
	hs := cn.n.st.KeyHashes()
	sort.Slice(hs, func(i, j int) bool { return hs[i] < hs[j] })
	return fmt.Sprint(hs)
}

// runChaosSchedule replays one seeded kill/heal/put/fetch sequence and then
// asserts the chaos invariants: a fetch hit is always bit-identical to the
// canonical artifact, health views reconverge to all-alive after the final
// heal, the corpus converges to identical stores everywhere, and ownership
// returns to the static ring assignment.
func runChaosSchedule(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	fleet := buildChaosFleet(t, 3, seed)
	ctx := context.Background()

	canonical := map[string][]byte{}
	var keys []string
	isolated := -1

	isolate := func(i int) {
		fleet[i].ft.Isolate()
		for j, cn := range fleet {
			if j != i {
				cn.ft.Partition(fleet[i].n.srv.URL)
			}
		}
	}
	healAll := func() {
		for _, cn := range fleet {
			cn.ft.Rejoin()
		}
	}

	const steps = 24
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 4:
			// A compile finished somewhere: the node stores its artifact
			// locally and write-behind replicates it toward the owner.
			ni := rng.Intn(len(fleet))
			key := fmt.Sprintf("%064x|exact|seed=%d|step=%d", rng.Int63(), seed, step)
			payload := []byte(fmt.Sprintf("artifact-%d-%d", seed, step))
			if err := fleet[ni].n.st.put(key, payload); err != nil {
				t.Fatal(err)
			}
			fleet[ni].c.Replicate(context.Background(), key, payload)
			canonical[key] = payload
			keys = append(keys, key)
		case op < 8:
			// A compile miss somewhere asks the peer tier. The API contract
			// under ANY fault is miss-not-error; a hit must be bit-identical.
			if len(keys) == 0 {
				continue
			}
			ni := rng.Intn(len(fleet))
			key := keys[rng.Intn(len(keys))]
			if got, ok := fleet[ni].c.Fetch(ctx, key); ok && !bytes.Equal(got, canonical[key]) {
				t.Fatalf("seed %d step %d: fetch returned %q, canonical is %q",
					seed, step, got, canonical[key])
			}
		case op < 9:
			if isolated >= 0 {
				continue
			}
			isolated = rng.Intn(len(fleet))
			isolate(isolated)
		default:
			if isolated < 0 {
				continue
			}
			healAll()
			isolated = -1
		}
	}

	// Final heal, then the reconvergence invariants.
	healAll()
	deadline := time.Now().Add(15 * time.Second)
	allAlive := func() bool {
		for _, cn := range fleet {
			for _, s := range cn.h.Snapshot() {
				if s != StateAlive {
					return false
				}
			}
		}
		return true
	}
	for !allAlive() {
		if time.Now().After(deadline) {
			t.Fatalf("seed %d: health views never reconverged to all-alive", seed)
		}
		time.Sleep(2 * time.Millisecond)
	}
	for _, cn := range fleet {
		cn.c.Drain()
	}
	converged := false
	for pass := 0; pass < 8 && !converged; pass++ {
		for _, cn := range fleet {
			if _, err := cn.sy.Converge(ctx); err != nil {
				t.Fatalf("seed %d: post-heal Converge errored: %v", seed, err)
			}
		}
		converged = true
		ref := digestOf(fleet[0])
		for _, cn := range fleet[1:] {
			if digestOf(cn) != ref {
				converged = false
			}
		}
	}
	if !converged {
		t.Fatalf("seed %d: stores never converged to one corpus", seed)
	}
	for i, cn := range fleet {
		for key, want := range canonical {
			got, ok := cn.n.st.GetArtifact(key)
			if !ok || !bytes.Equal(got, want) {
				t.Fatalf("seed %d: node %d diverged on %q after convergence (ok=%v)", seed, i, key, ok)
			}
		}
	}
	// Ownership reconverged: with everyone alive again, every node routes
	// every key at its static ring owner — failover fully unwound.
	for _, key := range keys {
		want := fleet[0].ring.Owner(key)
		for i, cn := range fleet {
			if got := cn.ring.LiveOwner(key, cn.h.Live); got != want {
				t.Fatalf("seed %d: node %d still routes %q at %s, static owner is %s",
					seed, i, key, got, want)
			}
		}
	}
}

// TestChaosSchedules replays randomized kill/rejoin/partition schedules
// across many seeds. Every seed is an independent 3-node fleet; the suite is
// the certification the dynamic-membership work ships under: no fault
// sequence may produce a wrong payload, a stuck health view, a diverged
// corpus, or lingering failover.
func TestChaosSchedules(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 8
	}
	for seed := 1; seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%02d", seed), func(t *testing.T) {
			t.Parallel()
			runChaosSchedule(t, int64(seed))
		})
	}
}
