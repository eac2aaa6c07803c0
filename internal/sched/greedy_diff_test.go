package sched_test

// Differential pin for GreedyMemoryRunCtx's bitset ready set: the map-based
// implementation it replaced is kept here, verbatim, as the oracle. Orders,
// peaks and StatesExplored must be byte-identical — the greedy order is what
// degraded responses serve and its peak caps the DP's soft budget.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/serenity-ml/serenity/internal/graph"
	"github.com/serenity-ml/serenity/internal/models"
	"github.com/serenity-ml/serenity/internal/partition"
	"github.com/serenity-ml/serenity/internal/rewrite"
	"github.com/serenity-ml/serenity/internal/sched"
)

// referenceGreedy is GreedyMemoryRunCtx as it stood with a map[int]bool ready
// set (minus the ctx poll). Do not modernize it: its value is being the old
// code.
func referenceGreedy(m *sched.MemModel) *sched.GreedyResult {
	g := m.G
	n := g.NumNodes()
	indeg := g.Indegrees()
	scheduled := graph.NewBitset(n)
	ready := make(map[int]bool)
	for id := 0; id < n; id++ {
		if indeg[id] == 0 {
			ready[id] = true
		}
	}
	remaining := make([]int, n)
	for r, cs := range m.Consumers {
		remaining[r] = len(cs)
	}

	res := &sched.GreedyResult{Order: make(sched.Schedule, 0, n)}
	var mu int64
	for len(ready) > 0 {
		best := -1
		var bestAfter, bestFreed, bestAlloc int64
		for u := range ready {
			res.StatesExplored++
			var freed int64
			for _, r := range m.PredRoots[u] {
				if remaining[r] == 1 {
					freed += m.RootSize[r]
				}
			}
			after := mu + m.Alloc[u] - freed
			better := false
			switch {
			case best == -1:
				better = true
			case after != bestAfter:
				better = after < bestAfter
			case freed != bestFreed:
				better = freed > bestFreed
			case m.Alloc[u] != bestAlloc:
				better = m.Alloc[u] < bestAlloc
			default:
				better = u < best
			}
			if better {
				best, bestAfter, bestFreed, bestAlloc = u, after, freed, m.Alloc[u]
			}
		}

		u := best
		delete(ready, u)
		scheduled.Set(u)
		res.Order = append(res.Order, u)
		mu += m.Alloc[u]
		if mu > res.Peak {
			res.Peak = mu
		}
		for _, r := range m.PredRoots[u] {
			remaining[r]--
			if remaining[r] == 0 {
				mu -= m.RootSize[r]
			}
		}
		for _, s := range g.Nodes[u].Succs {
			indeg[s]--
			if indeg[s] == 0 && !scheduled.Has(s) {
				ready[s] = true
			}
		}
	}
	return res
}

func diffGreedy(t *testing.T, name string, g *graph.Graph) {
	t.Helper()
	m := sched.NewMemModel(g)
	want := referenceGreedy(m)
	got, err := sched.GreedyMemoryRun(m)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if got.Peak != want.Peak || got.StatesExplored != want.StatesExplored || !slices.Equal(got.Order, want.Order) {
		t.Fatalf("%s: peak %d states %d order %v\nreference peak %d states %d order %v",
			name, got.Peak, got.StatesExplored, got.Order, want.Peak, want.StatesExplored, want.Order)
	}
}

// TestGreedyMatchesMapReference runs the differential over the nine
// evaluation cells — whole and per partition segment, as built and rewritten —
// and 200 random DAGs.
func TestGreedyMatchesMapReference(t *testing.T) {
	for _, cell := range models.BenchmarkCells() {
		built := cell.Build()
		rewritten, _, err := rewrite.RewriteAll(built, rewrite.DefaultRules(), 0)
		if err != nil {
			t.Fatal(err)
		}
		for gi, g := range []*graph.Graph{built, rewritten} {
			name := fmt.Sprintf("%s/%s/rewritten=%t", cell.Network, cell.Cell, gi == 1)
			diffGreedy(t, name, g)
			part, err := partition.Split(g)
			if err != nil {
				t.Fatal(err)
			}
			for i, seg := range part.Segments {
				diffGreedy(t, fmt.Sprintf("%s/seg%d", name, i), seg.G)
			}
		}
	}
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 200; i++ {
		diffGreedy(t, fmt.Sprintf("random%d", i), graph.RandomDAG(rng, graph.RandomDAGConfig{
			Nodes:    2 + rng.Intn(80),
			EdgeProb: 0.02 + rng.Float64()*0.5,
			MaxFanIn: rng.Intn(5),
		}))
	}
}
