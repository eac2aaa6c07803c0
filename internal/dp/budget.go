package dp

import (
	"context"
	"time"

	"github.com/serenity-ml/serenity/internal/sched"
)

// AdaptiveOptions controls the adaptive soft budgeting meta-search
// (Algorithm 2, as the deterministic ladder AdaptiveSchedule describes). Every
// field is a valve that fails the search; none steers which budgets it probes.
type AdaptiveOptions struct {
	// StepTimeout is the hyperparameter T limiting the scheduling time per
	// search step. Defaults to 1s when zero.
	StepTimeout time.Duration
	// MaxStates is forwarded to every DP run as a memory-safety valve;
	// exceeding it ends the search with FlagTimeout. Defaults to 4M.
	MaxStates int
	// Parallelism is accepted and ignored: a search is single-threaded. The
	// field stays only because the frozen benchmark/replay.go sets it; it
	// goes when a [benchmark] PR drops that reference.
	Parallelism int
	// MemLimit is forwarded to every DP probe as the retained-byte ceiling
	// (Options.MemLimit); a probe that crosses it ends the search with
	// FlagMemPressure.
	MemLimit int64
	// MemGrow is forwarded to every DP probe (Options.MemGrow). A ceiling it
	// raised stands for the later probes.
	MemGrow func(needed int64) int64
}

// BudgetProbe records one rung of the ladder, for the scheduling-time
// analyses (Figure 8(b), Table 2) and the dp.search trace span.
type BudgetProbe struct {
	Budget      int64
	Flag        Flag
	States      int64
	Pruned      int64
	MaxFrontier int
	PeakBytes   int64
	Elapsed     time.Duration
}

// AdaptiveResult is the outcome of AdaptiveSchedule. The embedded Result is
// the last probe's, with its accounting widened to the whole search:
// StatesExplored, StatesPruned, StatesForced and Elapsed are summed over the
// probes (the work done) and MaxFrontier and PeakBytes are the maximum over
// them (the memory held at once).
type AdaptiveResult struct {
	*Result
	HardBudget  int64         // τmax: peak of Kahn's schedule (Algorithm 2 line 3)
	LowerBound  int64         // the ladder's first rung (MemModel.LowerBound)
	BudgetCap   int64         // the ladder's last rung: min(τmax, greedy peak)
	FinalBudget int64         // the τ of the last probe
	Probes      []BudgetProbe // every (τ, flag) probe in order
}

// The geometric floor under the ladder: a 'no solution' probe raises τ by at
// least τ/ladderStep, so graphs whose tensor sizes are all distinct (where the
// smallest pruned peak creeps up one transition at a time) still finish in
// O(log(cap/lower bound)) probes. The floor doubles, up to ladderMaxWiden
// times (to τ itself), each time a failed probe explored less than twice the
// states of the one before: failed work then grows geometrically and sums to
// about twice the last failed probe's, where a fixed τ/16 step on a graph
// whose lower bound sits far under µ* pays for ~35 near-full searches (a
// 200-node WS(16) cell: 6-11x the states of one probe at Kahn's peak, 1.3-2.6x
// with the widening). Overshooting µ* costs states, never the answer.
const (
	ladderStep     = 16
	ladderMaxWiden = 4
)

// AdaptiveSchedule is Algorithm 2's soft-budget search made clock-free. It
// probes the DP at τ = an admissible lower bound on the peak and, on 'no
// solution', raises τ to the smallest peak that probe pruned (no budget below
// it can behave differently) or by the geometric floor, whichever is larger,
// capped at the better of Kahn's and the greedy heuristic's peaks, which some
// schedule attains. The first 'solution' ends the ladder: pruning with any
// τ ≥ µ* preserves every optimal path, so its peak is µ*, and because peak
// ties break on the node id its order is the same one an unbudgeted run
// returns. Probes below µ* prune hardest and are cheap; the paper's top-down
// start at τmax ran unpruned whenever its first probe fit the timeout.
// 'timeout', memory pressure and cancellation end the ladder with that flag —
// a higher τ only widens the frontier — so which probes run depends on the
// graph alone, never on the clock.
func AdaptiveSchedule(m *sched.MemModel, opts AdaptiveOptions) (*AdaptiveResult, error) {
	return AdaptiveScheduleCtx(context.Background(), m, opts)
}

// AdaptiveScheduleCtx is AdaptiveSchedule with cooperative cancellation. The
// context is threaded into every DP probe; when it is done the ladder stops
// and ctx.Err() is returned alongside the AdaptiveResult, whose accounting
// covers the work done up to and including the canceled probe.
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

	ar := &AdaptiveResult{
		HardBudget: hardBudget,
		LowerBound: m.LowerBound(),
		BudgetCap:  min(hardBudget, greedy.Peak),
	}
	s := newSearch(m)
	var widen uint
	var prevStates int64
	for tau := min(ar.LowerBound, ar.BudgetCap); ; {
		r := s.run(ctx, Options{Budget: tau, StepTimeout: opts.StepTimeout, MaxStates: opts.MaxStates, MemLimit: opts.MemLimit, MemGrow: opts.MemGrow})
		states := r.StatesExplored
		ar.Probes = append(ar.Probes, BudgetProbe{Budget: tau, Flag: r.Flag, States: states, Pruned: r.StatesPruned, MaxFrontier: r.MaxFrontier, PeakBytes: r.PeakBytes, Elapsed: r.Elapsed})
		if p := ar.Result; p != nil {
			r.StatesExplored += p.StatesExplored
			r.StatesPruned += p.StatesPruned
			r.StatesForced += p.StatesForced
			r.Elapsed += p.Elapsed
			r.MaxFrontier = max(r.MaxFrontier, p.MaxFrontier)
			r.PeakBytes = max(r.PeakBytes, p.PeakBytes)
		}
		ar.Result, ar.FinalBudget = r, tau
		switch {
		case r.Flag == FlagCanceled:
			return ar, ctx.Err()
		case r.Flag != FlagNoSolution || tau >= ar.BudgetCap:
			// At the cap some schedule fits, so 'no solution' cannot recur.
			return ar, nil
		}
		if states < 2*prevStates && widen < ladderMaxWiden {
			widen++
		}
		prevStates = states
		tau = min(ar.BudgetCap, max(r.MinPruned, tau+(tau/ladderStep)<<widen))
	}
}
