package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	serenity "github.com/serenity-ml/serenity"
	"github.com/serenity-ml/serenity/internal/fleet"
)

// runServerChaosSchedule replays one seeded fault schedule against a 3-node
// serenityd fleet doing REAL compiles. The invariants are the service-level
// contract under faults:
//
//   - every compile answers 200 with optimal quality — a partition costs
//     latency and duplicate work, never an error or a degraded schedule;
//   - schedules are bit-identical no matter which node compiled them, warm
//     or cold, partitioned or not;
//   - pay-once holds up to partitions: each fresh DP run beyond the first
//     per graph must be explained by an isolation event;
//   - after the final heal, health views reconverge, anti-entropy merges the
//     stores, and every node replays the whole corpus with zero new DP work.
func runServerChaosSchedule(t *testing.T, seed int64) {
	nodes := testFleet(t, 3)
	rng := rand.New(rand.NewSource(seed))

	graphs := make([][]byte, 5)
	for i := range graphs {
		graphs[i] = graphBody(t, smallCell(seed*100+int64(i)))
	}
	orders := make([][]int, len(graphs))
	isolated := -1
	isolations := 0
	freshCompiles := 0

	isolate := func(i int) {
		for j, n := range nodes {
			if j != i {
				nodes[i].fault.Partition(n.ts.URL)
				n.fault.Partition(nodes[i].ts.URL)
			}
		}
	}
	healAll := func() {
		for _, n := range nodes {
			for _, m := range nodes {
				n.fault.Heal(m.ts.URL)
			}
		}
	}

	const steps = 16
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 6:
			ni := rng.Intn(len(nodes))
			gi := rng.Intn(len(graphs))
			before := nodes[ni].s.states.Load()
			// fleetPost fails the test on any non-200: no fault sequence may
			// surface a client-visible error.
			sr := fleetPost(t, nodes[ni], graphs[gi])
			if sr.Quality != serenity.QualityOptimal {
				t.Fatalf("seed %d step %d: node %d answered quality %q", seed, step, ni, sr.Quality)
			}
			if orders[gi] == nil {
				orders[gi] = sr.Order
			} else if !reflect.DeepEqual(sr.Order, orders[gi]) {
				t.Fatalf("seed %d step %d: node %d order %v diverged from canonical %v",
					seed, step, ni, sr.Order, orders[gi])
			}
			if nodes[ni].s.states.Load() != before {
				freshCompiles++
			}
			// Barrier the write-behind pushes so the pay-once ledger below is
			// deterministic rather than a race against the replication queue.
			nodes[ni].s.peers.Drain()
		case op < 8:
			if isolated >= 0 {
				continue
			}
			isolated = rng.Intn(len(nodes))
			isolate(isolated)
			isolations++
		default:
			if isolated < 0 {
				continue
			}
			healAll()
			isolated = -1
		}
	}

	// Pay-once ledger: the first compile of each graph pays; each isolation
	// can make both sides of the cut pay again (the isolated node recomputes
	// what it cannot fetch, survivors recompute what the isolated node owned).
	// The +2 absorbs a spurious probe blip on an overloaded CI machine.
	if max := len(graphs)*(1+2*isolations) + 2; freshCompiles > max {
		t.Errorf("seed %d: %d fresh compiles exceed the pay-once bound %d (%d isolations)",
			seed, freshCompiles, max, isolations)
	}

	// Final heal: health views must reconverge to all-alive on every node.
	healAll()
	deadline := time.Now().Add(15 * time.Second)
	allAlive := func() bool {
		for _, n := range nodes {
			for _, st := range n.s.health.Snapshot() {
				if st != fleet.StateAlive {
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
		time.Sleep(5 * time.Millisecond)
	}

	// Merge the partition-era corpora, then make sure every graph exists
	// somewhere (a schedule may never have compiled some of them) and share it.
	ctx := context.Background()
	for _, n := range nodes {
		n.s.peers.Drain()
	}
	converge := func() {
		for pass := 0; pass < 4; pass++ {
			total := 0
			for _, n := range nodes {
				pulled, err := n.s.syncer.Converge(ctx)
				if err != nil {
					t.Fatalf("seed %d: post-heal converge: %v", seed, err)
				}
				total += pulled
			}
			if total == 0 {
				return
			}
		}
	}
	converge()
	for gi, g := range graphs {
		sr := fleetPost(t, nodes[0], g)
		if orders[gi] == nil {
			orders[gi] = sr.Order
		} else if !reflect.DeepEqual(sr.Order, orders[gi]) {
			t.Fatalf("seed %d: priming pass diverged on graph %d", seed, gi)
		}
	}
	nodes[0].s.peers.Drain()
	converge()

	// Replay the whole corpus on every node: bit-identical answers and ZERO
	// new fresh DP states fleet-wide — the fleet is one shared corpus again.
	for ni, n := range nodes {
		before := n.s.states.Load()
		for gi, g := range graphs {
			sr := fleetPost(t, n, g)
			if !reflect.DeepEqual(sr.Order, orders[gi]) {
				t.Fatalf("seed %d: post-heal replay on node %d diverged on graph %d", seed, ni, gi)
			}
		}
		if d := n.s.states.Load() - before; d != 0 {
			t.Errorf("seed %d: node %d re-explored %d DP states after reconvergence", seed, ni, d)
		}
	}
}

// TestServerChaosSchedules is the daemon-scope companion to the fleet
// package's 50-seed chaos suite: fewer seeds (compiles are real), same shape.
func TestServerChaosSchedules(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for seed := 1; seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%02d", seed), func(t *testing.T) {
			t.Parallel()
			runServerChaosSchedule(t, int64(seed))
		})
	}
}
