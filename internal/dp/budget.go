package dp

import (
	"context"
	"time"

	"github.com/serenity-ml/serenity/internal/sched"
)

// AdaptiveOptions controls the adaptive soft budgeting search (Algorithm 2, as
// the single probe AdaptiveSchedule describes). Every field is a valve that
// fails the search; none steers which budget it probes.
type AdaptiveOptions struct {
	// StepTimeout is the hyperparameter T limiting the scheduling time per
	// search step. Defaults to 1s when zero.
	StepTimeout time.Duration
	// MaxStates is forwarded to the DP run as a memory-safety valve;
	// exceeding it ends the search with FlagTimeout. Defaults to 4M.
	MaxStates int
	// Parallelism is accepted and ignored: a search is single-threaded. The
	// field stays only because the frozen benchmark/replay.go sets it; it
	// goes when a [benchmark] PR drops that reference.
	Parallelism int
	// MemLimit is forwarded to the DP run as the retained-byte ceiling
	// (Options.MemLimit); crossing it ends the search with FlagMemPressure.
	MemLimit int64
	// MemGrow is forwarded to the DP run (Options.MemGrow).
	MemGrow func(needed int64) int64
}

// AdaptiveResult is the outcome of AdaptiveSchedule: the DP run at BudgetCap
// and the budgets it was derived from.
type AdaptiveResult struct {
	*Result
	HardBudget int64 // τmax: peak of Kahn's schedule (Algorithm 2 line 3)
	BudgetCap  int64 // the τ searched: min(τmax, greedy peak)
}

// AdaptiveSchedule is Algorithm 2's soft-budget search made clock-free: one DP
// run at τ = min(Kahn's peak, the greedy heuristic's peak). Some schedule
// attains that peak, so 'no solution' cannot happen, and pruning with any
// τ ≥ µ* preserves every optimal path, so the run returns µ* — and, because
// peak ties break on the node id, the very order an unbudgeted run returns.
// The paper opens with the same probe at τmax; the greedy peak only tightens
// it. 'timeout', memory pressure and cancellation fail the search with that
// flag instead of halving τ, so what runs depends on the graph alone, never
// on the clock.
func AdaptiveSchedule(m *sched.MemModel, opts AdaptiveOptions) (*AdaptiveResult, error) {
	return AdaptiveScheduleCtx(context.Background(), m, opts)
}

// AdaptiveScheduleCtx is AdaptiveSchedule with cooperative cancellation. The
// context is threaded into the DP run; when it is done the search stops and
// ctx.Err() is returned alongside the AdaptiveResult, whose accounting covers
// the work done up to the cancellation.
func AdaptiveScheduleCtx(ctx context.Context, m *sched.MemModel, opts AdaptiveOptions) (*AdaptiveResult, error) {
	if opts.StepTimeout <= 0 {
		opts.StepTimeout = time.Second
	}
	if opts.MaxStates <= 0 {
		opts.MaxStates = 4 << 20
	}

	_, hardBudget, err := sched.BaselinePeak(m)
	if err != nil {
		return nil, err
	}
	greedy, err := sched.GreedyMemoryRunCtx(ctx, m)
	if err != nil {
		return nil, err
	}
	ar := &AdaptiveResult{HardBudget: hardBudget, BudgetCap: min(hardBudget, greedy.Peak)}
	ar.Result = ScheduleCtx(ctx, m, Options{Budget: ar.BudgetCap, StepTimeout: opts.StepTimeout, MaxStates: opts.MaxStates, MemLimit: opts.MemLimit, MemGrow: opts.MemGrow})
	if ar.Flag == FlagCanceled {
		return ar, ctx.Err()
	}
	return ar, nil
}
