package dp_test

// The map-based frontier the production scheduler replaced, kept verbatim as
// the differential oracle: referenceScheduleCtx is the pre-optimization
// implementation (string-keyed memo table, per-transition bitset clones),
// and the harness in differential_test.go asserts the allocation-free core
// is bit-identical to it — Flag, Order, Peak, StatesExplored, StatesPruned,
// and MaxFrontier — across the nine-cell suite, random DAGs, and the
// deterministic abort paths (budget, MaxStates, pre-canceled contexts).
//
// Do not "fix" or modernize this file: its value is being the old code. Its
// one edit since is the safe-move rule (see (*search).safeMove), spelled here
// on heap bitsets and the Consumers lists so the two cores keep agreeing
// transition for transition; referenceUnrestricted is the loop without the
// rule — the paper's line 10, every ready node — and certifies per instance
// that the rule never costs the optimum.

import (
	"context"
	"math"
	"time"

	"github.com/serenity-ml/serenity/internal/dp"
	"github.com/serenity-ml/serenity/internal/graph"
	"github.com/serenity-ml/serenity/internal/sched"
)

// refState is one memo entry of the reference implementation: heap bitsets
// and all.
type refState struct {
	scheduled *graph.Bitset
	ready     *graph.Bitset
	mu        int64
	peak      int64
	parent    int32
	via       int32
}

func referenceSchedule(m *sched.MemModel, opts dp.Options) *dp.Result {
	return referenceScheduleCtx(context.Background(), m, opts)
}

func referenceScheduleCtx(ctx context.Context, m *sched.MemModel, opts dp.Options) *dp.Result {
	return referenceRun(ctx, m, opts, true)
}

// referenceUnrestricted branches on every ready node at every state.
func referenceUnrestricted(m *sched.MemModel, opts dp.Options) *dp.Result {
	return referenceRun(context.Background(), m, opts, false)
}

// referenceSafeMove is the rule on the oracle's own data: the smallest ready
// node that allocates the least of the ready set and frees at least that much
// the moment it runs, or -1.
func referenceSafeMove(m *sched.MemModel, st *refState) int {
	minAlloc := int64(math.MaxInt64)
	st.ready.ForEach(func(v int) { minAlloc = min(minAlloc, m.Alloc[v]) })
	safe := -1
	st.ready.ForEach(func(v int) {
		if safe >= 0 || m.Alloc[v] != minAlloc {
			return
		}
		var freed int64
		for _, r := range m.PredRoots[v] {
			last := true
			for _, c := range m.Consumers[r] {
				last = last && (c == v || st.scheduled.Has(c))
			}
			if last {
				freed += m.RootSize[r]
			}
		}
		if freed >= minAlloc {
			safe = v
		}
	})
	return safe
}

// referenceRun is the seed repository's ScheduleCtx, unchanged apart from the
// package qualifiers (and dropping its dead budgetPruned bool, which was
// computed and discarded) and, when safeMoves is set, the rule above.
func referenceRun(ctx context.Context, m *sched.MemModel, opts dp.Options, safeMoves bool) *dp.Result {
	start := time.Now()
	g := m.G
	n := g.NumNodes()
	res := &dp.Result{Flag: dp.FlagNoSolution}
	if n == 0 {
		res.Flag = dp.FlagSolution
		res.Order = sched.Schedule{}
		res.Elapsed = time.Since(start)
		return res
	}

	empty := graph.NewBitset(n)
	init := refState{
		scheduled: empty,
		ready:     g.ZeroIndegree(empty),
		parent:    -1,
		via:       -1,
	}
	levels := make([][]refState, n+1)
	levels[0] = []refState{init}

	indegOK := func(s *graph.Bitset, v int) bool {
		for _, p := range g.Nodes[v].Preds {
			if !s.Has(p) {
				return false
			}
		}
		return true
	}

	done := ctx.Done()
	canceled := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}

	for i := 0; i < n; i++ {
		if canceled() {
			res.Flag = dp.FlagCanceled
			res.Elapsed = time.Since(start)
			return res
		}
		stepStart := time.Now()
		cur := levels[i]
		nextIdx := make(map[string]int32, len(cur)*2)
		var next []refState

		for si := range cur {
			st := &cur[si]
			safe := -1
			if safeMoves {
				if safe = referenceSafeMove(m, st); safe >= 0 {
					res.StatesForced++
				}
			}
			st.ready.ForEach(func(u int) {
				if safe >= 0 && u != safe {
					return
				}
				muHigh := st.mu + m.Alloc[u]
				peak := st.peak
				if muHigh > peak {
					peak = muHigh
				}
				if opts.Budget > 0 && peak > opts.Budget {
					res.StatesPruned++
					return
				}
				newScheduled := st.scheduled.Clone()
				newScheduled.Set(u)
				mu := muHigh - m.StepDealloc(newScheduled, u)

				key := newScheduled.Key()
				if idx, ok := nextIdx[key]; ok {
					if peak < next[idx].peak || (peak == next[idx].peak && int32(u) < next[idx].via) {
						next[idx].peak = peak
						next[idx].parent = int32(si)
						next[idx].via = int32(u)
					}
					return
				}
				newReady := st.ready.Clone()
				newReady.Clear(u)
				for _, s := range g.Nodes[u].Succs {
					if !newScheduled.Has(s) && indegOK(newScheduled, s) {
						newReady.Set(s)
					}
				}
				nextIdx[key] = int32(len(next))
				next = append(next, refState{
					scheduled: newScheduled,
					ready:     newReady,
					mu:        mu,
					peak:      peak,
					parent:    int32(si),
					via:       int32(u),
				})
				res.StatesExplored++
			})

			if si%64 == 63 {
				if canceled() {
					res.Flag = dp.FlagCanceled
					res.Elapsed = time.Since(start)
					return res
				}
				if opts.StepTimeout > 0 && time.Since(stepStart) > opts.StepTimeout {
					res.Flag = dp.FlagTimeout
					res.Elapsed = time.Since(start)
					return res
				}
			}
			if opts.MaxStates > 0 && len(next) > opts.MaxStates {
				res.Flag = dp.FlagTimeout
				res.Elapsed = time.Since(start)
				return res
			}
		}

		if opts.StepTimeout > 0 && time.Since(stepStart) > opts.StepTimeout {
			res.Flag = dp.FlagTimeout
			res.Elapsed = time.Since(start)
			return res
		}
		if len(next) == 0 {
			res.Flag = dp.FlagNoSolution
			res.Elapsed = time.Since(start)
			return res
		}
		if len(next) > res.MaxFrontier {
			res.MaxFrontier = len(next)
		}
		levels[i+1] = next
		for si := range cur {
			cur[si].ready = nil
		}
	}

	final := levels[n][0]
	order := make(sched.Schedule, n)
	lvl := n
	cur := &final
	for cur.via >= 0 {
		order[lvl-1] = int(cur.via)
		parent := cur.parent
		lvl--
		cur = &levels[lvl][parent]
	}
	res.Flag = dp.FlagSolution
	res.Order = order
	res.Peak = final.peak
	res.Elapsed = time.Since(start)
	return res
}
