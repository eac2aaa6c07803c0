package sched

import (
	"context"
	"math/bits"

	"github.com/serenity-ml/serenity/internal/graph"
)

// GreedyResult is the outcome of one greedy search, with the work accounting
// needed to compare heuristic and exact searchers on equal terms.
type GreedyResult struct {
	Order Schedule
	Peak  int64
	// StatesExplored counts candidate partial schedules examined: one per
	// ready-node evaluation per step. The DP counts one per memo entry
	// created, i.e. per partial schedule retained; both numbers measure
	// "partial schedules considered", so they are directly comparable as a
	// work metric (the greedy's is an upper bound on distinct states, since
	// it evaluates every ready node but commits to one).
	StatesExplored int64
}

// GreedyMemory is a practical heuristic baseline between the
// memory-oblivious orders and the exact DP: at every step it schedules the
// ready node with the smallest resulting footprint, breaking ties toward
// the node that frees the most memory, then the smallest allocation, then
// the lowest ID (for determinism). Linear-ish time — O(V · width · deg) —
// but not optimal: the DP-vs-greedy benchmark quantifies the gap that
// justifies the paper's exact search.
func GreedyMemory(m *MemModel) (Schedule, int64, error) {
	r, err := GreedyMemoryRun(m)
	if err != nil {
		return nil, 0, err
	}
	return r.Order, r.Peak, nil
}

// GreedyMemoryRun is GreedyMemory with full work accounting; see
// GreedyResult.StatesExplored for how the count compares to the DP's.
func GreedyMemoryRun(m *MemModel) (*GreedyResult, error) {
	return GreedyMemoryRunCtx(context.Background(), m)
}

// GreedyMemoryRunCtx is GreedyMemoryRun with cooperative cancellation: the
// scheduling loop polls ctx every 64 steps — the inner candidate scan is
// cheap, but on graphs with tens of thousands of nodes the whole run is
// not, and a disconnected caller should not pin a CPU for it.
func GreedyMemoryRunCtx(ctx context.Context, m *MemModel) (*GreedyResult, error) {
	g := m.G
	n := g.NumNodes()
	if _, err := g.TopoOrder(); err != nil {
		return nil, err
	}

	indeg := g.Indegrees()
	scheduled := graph.NewBitset(n)
	// The ready set is a bitset scanned in ascending id: the candidate
	// comparison below is a total order ending in the id, so the scan order
	// cannot change the winner, and a word scan beats iterating a map on the
	// path every cold search (as the soft budget's cap) and every degraded
	// request takes.
	ready := g.ZeroIndegree(scheduled).Words()
	remaining := make([]int, n)
	for r, cs := range m.Consumers {
		remaining[r] = len(cs)
	}

	res := &GreedyResult{Order: make(Schedule, 0, n)}
	done := ctx.Done()
	var mu int64
	for len(res.Order) < n {
		if len(res.Order)%64 == 63 {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		best := -1
		var bestAfter, bestFreed, bestAlloc int64
		for wi, word := range ready {
			for ; word != 0; word &= word - 1 {
				u := wi<<6 + bits.TrailingZeros64(word)
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
		}
		if best < 0 {
			return nil, graph.ErrCycle // nothing ready with nodes left
		}

		u := best
		ready[u>>6] &^= 1 << uint(u&63)
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
				ready[s>>6] |= 1 << uint(s&63)
			}
		}
	}
	return res, nil
}
