package dp

import (
	"cmp"
	"context"
	"time"

	"github.com/serenity-ml/serenity/internal/sched"
)

// CapResult is the soft budget Cap derives and the incumbents it comes from.
type CapResult struct {
	Kahn   int64               // τmax: peak of Kahn's schedule (Algorithm 2 line 3)
	Greedy *sched.GreedyResult // the greedy heuristic's run: a valid order at Greedy.Peak
	Tau    int64               // the budget to search at: min(Kahn, Greedy.Peak)
}

// Cap derives Algorithm 2's soft budget, made clock-free: the exact search is
// one DP run at τ = min(Kahn's peak, the greedy heuristic's peak), and a
// tighter incumbent would be one more term of that min. Some schedule attains that
// peak, so 'no solution' cannot happen, and pruning with any τ ≥ µ* preserves
// every optimal path, so ScheduleCtx at Tau returns µ* — and, because peak ties
// break on the node id, the very order an unbudgeted run returns. The paper
// opens with the same probe at τmax; the greedy peak only tightens it.
// 'timeout', memory pressure and cancellation fail the search with that flag
// instead of halving τ, so what runs depends on the graph alone, never on the
// clock. The greedy run is returned too: it is the heuristic answer a caller
// that abandons the search falls back to. Only ctx's error or an invalid graph
// fail Cap.
func Cap(ctx context.Context, m *sched.MemModel) (CapResult, error) {
	_, kahn, err := sched.BaselinePeak(m)
	if err != nil {
		return CapResult{}, err
	}
	greedy, err := sched.GreedyMemoryRunCtx(ctx, m)
	if err != nil {
		return CapResult{}, err
	}
	return CapResult{Kahn: kahn, Greedy: greedy, Tau: min(kahn, greedy.Peak)}, nil
}

// AdaptiveOptions, AdaptiveResult and AdaptiveSchedule are Cap + ScheduleCtx
// under the old 1s / 4Mi-state valve defaults, kept only for
// benchmark/replay.go; they go with that call. Parallelism is ignored.
type AdaptiveOptions struct {
	StepTimeout time.Duration
	Parallelism int
	MemLimit    int64
	MemGrow     func(needed int64) int64
}

// AdaptiveResult is the DP run AdaptiveSchedule made.
type AdaptiveResult = Result

// AdaptiveSchedule runs ScheduleCtx at Cap's budget.
func AdaptiveSchedule(m *sched.MemModel, o AdaptiveOptions) (*AdaptiveResult, error) {
	c, err := Cap(context.Background(), m)
	if err != nil {
		return nil, err
	}
	return ScheduleCtx(context.Background(), m, Options{Budget: c.Tau, StepTimeout: cmp.Or(o.StepTimeout, time.Second),
		MaxStates: 4 << 20, MemLimit: o.MemLimit, MemGrow: o.MemGrow}), nil
}
