package serenity

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/serenity-ml/serenity/internal/dp"
	"github.com/serenity-ml/serenity/internal/sched"
)

// MemModel is the activation-memory model a Searcher schedules against; it
// is the per-segment view of the (possibly rewritten) graph. Re-exported
// from internal/sched so external packages can implement Searcher.
type MemModel = sched.MemModel

// NewMemModel builds the memory model for g. g must be a valid DAG.
func NewMemModel(g *Graph) *MemModel { return sched.NewMemModel(g) }

// Strategy selects the search strategy a Pipeline uses per segment.
type Strategy string

// Built-in strategies.
const (
	// StrategyExact is the paper's exact DP (under the soft budget
	// when Options.AdaptiveBudget is set). The empty string means exact.
	StrategyExact Strategy = "exact"
	// StrategyGreedy schedules with the one-step-lookahead greedy heuristic:
	// linear-ish time, valid but possibly suboptimal peaks. For graphs
	// beyond the DP's reach.
	StrategyGreedy Strategy = "greedy"
	// StrategyBestEffort runs the exact DP under the caller's deadline and
	// falls back to the greedy heuristic instead of erroring when the DP
	// cannot finish, tagging each segment's Quality accordingly.
	StrategyBestEffort Strategy = "best-effort"
)

// ParseStrategy converts a wire/flag string into a Strategy.
func ParseStrategy(s string) (Strategy, error) {
	switch Strategy(s) {
	case "", StrategyExact:
		return StrategyExact, nil
	case StrategyGreedy:
		return StrategyGreedy, nil
	case StrategyBestEffort:
		return StrategyBestEffort, nil
	}
	return "", fmt.Errorf("serenity: unknown strategy %q (want exact, greedy, or best-effort)", s)
}

// Quality tags how a segment's schedule was obtained.
type Quality string

// Schedule qualities.
const (
	// QualityOptimal: the exact DP proved the segment's peak minimal.
	QualityOptimal Quality = "optimal"
	// QualityHeuristic: a heuristic produced the segment's order; the
	// schedule is valid but its peak carries no optimality guarantee.
	QualityHeuristic Quality = "heuristic"
)

// SearchResult is one segment's outcome from a Searcher.
type SearchResult struct {
	// Order is a valid execution order over the segment's graph.
	Order Order
	// StatesExplored counts partial schedules considered; exact and
	// heuristic searchers report comparable numbers (DP memo entries vs.
	// greedy candidate evaluations).
	StatesExplored int64
	// MaxFrontier is the largest number of coexisting DP signatures the
	// search held for this segment — the memory high-water mark of the
	// frontier. Zero for heuristic searchers, which keep no frontier.
	MaxFrontier int
	// PeakBytes is the high-water mark of the bytes the search itself
	// retained (frontier slabs plus compacted history; see
	// dp.Result.PeakBytes). It reports only work done in this process on
	// this call: heuristic searchers and memo/store/peer hits report zero.
	PeakBytes int64
	// Ladder describes the soft-budget probe a fresh adaptive search ran,
	// for the dp.search trace span; zero (BudgetCap == 0) for unbudgeted and
	// heuristic searches and for store and peer hits.
	Ladder BudgetLadder
	// Quality reports whether Order is provably optimal for the segment.
	Quality Quality
	// FellBack is set when a degradable searcher abandoned its primary
	// (exact) search and Order came from its fallback; FallbackReason
	// records why the primary search gave up.
	FellBack       bool
	FallbackReason error
}

// BudgetLadder summarizes one dp.AdaptiveSchedule call: the budget it
// searched at, how many transitions that budget pruned, and how many states
// expanded through a safe move alone instead of branching.
type BudgetLadder struct {
	BudgetCap    int64
	StatesPruned int64
	StatesForced int64
}

// ladderOf summarizes ar for the trace.
func ladderOf(ar *dp.AdaptiveResult) BudgetLadder {
	return BudgetLadder{BudgetCap: ar.BudgetCap, StatesPruned: ar.StatesPruned, StatesForced: ar.StatesForced}
}

// adaptiveResult converts an adaptive search that ended in a solution.
func adaptiveResult(ar *dp.AdaptiveResult) SearchResult {
	return SearchResult{
		Order:          ar.Order,
		StatesExplored: ar.StatesExplored,
		MaxFrontier:    ar.MaxFrontier,
		PeakBytes:      ar.PeakBytes,
		Quality:        QualityOptimal,
		Ladder:         ladderOf(ar),
	}
}

// ErrMemoryPressure reports that a search was aborted by its byte ceiling —
// the DP's MemLimit valve, typically parameterized by a memory governor's
// reservation — and no fallback was available at this layer. Callers match
// it with errors.Is; serenityd maps it to 503 + Retry-After, distinct from
// both admission rejections (429) and hard failures (500). BestEffort never
// surfaces it from Search: its greedy fallback absorbs the abort and records
// it as the FallbackReason instead.
var ErrMemoryPressure = errors.New("serenity: memory pressure")

// ErrSearchLimit reports that an exact search was ended by its StepTimeout or
// MaxStates valve: the instance is beyond what those limits allow, and the
// same request fails the same way until they are raised. Callers match it
// with errors.Is; serenityd maps it to 503 pointing at strategy=best-effort,
// whose greedy fallback absorbs it like ErrMemoryPressure.
var ErrSearchLimit = errors.New("serenity: search limit reached")

// flagError turns a search that ended without a solution into its error:
// ErrMemoryPressure for the byte valve, ErrSearchLimit naming the flag for
// the StepTimeout and MaxStates valves. what names the search in the message.
// Cancellation never gets here: dp reports it as ctx.Err().
func flagError(what string, f dp.Flag) error {
	if f == dp.FlagMemPressure {
		return fmt.Errorf("%w: %s aborted at its byte ceiling", ErrMemoryPressure, what)
	}
	return fmt.Errorf("%w: %s ended with %v", ErrSearchLimit, what, f)
}

// memScoper is implemented by searchers whose primary search honors a byte
// ceiling. The Pipeline uses it to thread a governor reservation into each
// segment's search: limit seeds the DP's MemLimit, grow its MemGrow upgrade
// hook. It returns a scoped copy, so the shared Searcher stays immutable
// across concurrent segments.
type memScoper interface {
	scopeMemory(limit int64, grow func(needed int64) int64) Searcher
}

// estimateReserveStates is the frontier width a governor reservation is
// initially sized for. Deliberately modest: most segments finish far below
// it, and a search that outgrows it upgrades through the reservation's Grow
// hook — which is exactly where the governor applies back-pressure.
const estimateReserveStates = 4096

// estimateSearchBytes is the initial governor reservation for a segment of
// nodes nodes: a 4096-state frontier at that segment's per-state width.
func estimateSearchBytes(nodes int) int64 {
	return dp.FrontierStateBytes(nodes) * estimateReserveStates
}

// Searcher is a per-segment scheduling strategy. Implementations must be
// safe for concurrent use: with Options.Parallelism > 1 the Pipeline calls
// Search from multiple goroutines, one segment each.
type Searcher interface {
	// Name identifies the strategy in logs, metrics, and responses.
	Name() string
	// Search returns an execution order for the segment modeled by m,
	// honoring ctx for cancellation and deadlines.
	Search(ctx context.Context, m *MemModel) (SearchResult, error)
}

// ExactDP is the paper's exact search: Algorithm 1's dynamic programming,
// optionally under Algorithm 2's soft budget (dp.AdaptiveSchedule's one
// probe at min(Kahn, greedy)). It either returns the segment's canonical
// peak-optimal order — the same one with or without the budget — or an
// error: a timeout or state-cap blowup is a hard failure (ErrSearchLimit). The
// search itself is single-threaded; see Options.Parallelism. This is the
// default Searcher.
type ExactDP struct {
	// AdaptiveBudget prunes the DP with the soft budget; off means one
	// unbudgeted exact run (same answer, more states).
	AdaptiveBudget bool
	// StepTimeout is the per-search-step safety valve T: exceeding it fails
	// the search. Zero means 1s under AdaptiveBudget, unlimited without.
	StepTimeout time.Duration
	// MaxStates caps the DP frontier as a memory-safety valve; zero means
	// the adaptive default (unlimited when AdaptiveBudget is off).
	MaxStates int
	// MemLimit caps the bytes the search may retain (dp.Options.MemLimit);
	// crossing it without a MemGrow grant fails the search with an error
	// wrapping ErrMemoryPressure. Zero means unlimited. The Pipeline sets
	// both fields from its governor's reservation via scopeMemory.
	MemLimit int64
	// MemGrow is the mid-search ceiling upgrade hook (dp.Options.MemGrow).
	MemGrow func(needed int64) int64
}

// Name implements Searcher.
func (e ExactDP) Name() string { return "exact" }

// MemoKey implements MemoKeyer. It is a versioned constant: a completed
// exact search returns the segment's canonical optimal order whatever
// AdaptiveBudget, StepTimeout, MaxStates or MemLimit were (they
// decide whether the search completes, not what it finds), and only completed
// searches are memoized. v3 is the key under the safe-move rule, whose
// canonical order (not its peak) differs from v2's, the first under the
// node-id tie-break; artifacts keyed "exact|v2" or "exact|a=…" by earlier
// builds read as misses.
//
// MemoKeys outlive the process: they are half of the on-disk ScheduleStore's
// content address (the other half, Segment.Fingerprint, is golden-pinned in
// testdata/golden). Changing any MemoKey's rendering silently orphans — or,
// worse, aliases — every artifact persisted by deployed stores, so treat the
// format of all three built-in keys as a wire format.
func (e ExactDP) MemoKey() string { return "exact|v3" }

// scopeMemory implements memScoper.
func (e ExactDP) scopeMemory(limit int64, grow func(needed int64) int64) Searcher {
	e.MemLimit, e.MemGrow = limit, grow
	return e
}

// adaptive runs the soft-budget search under e's valves. A nil error means the
// AdaptiveResult holds a solution; a search a valve ended returns flagError
// alongside the AdaptiveResult (for the work it burned), anything else — an
// invalid graph, ctx's own error — whatever dp reported.
func (e ExactDP) adaptive(ctx context.Context, m *MemModel) (*dp.AdaptiveResult, error) {
	ar, err := dp.AdaptiveScheduleCtx(ctx, m, dp.AdaptiveOptions{
		StepTimeout: e.StepTimeout,
		MaxStates:   e.MaxStates,
		MemLimit:    e.MemLimit,
		MemGrow:     e.MemGrow,
	})
	if err == nil && ar.Flag != dp.FlagSolution {
		err = flagError("adaptive scheduling", ar.Flag)
	}
	return ar, err
}

// Search implements Searcher.
func (e ExactDP) Search(ctx context.Context, m *MemModel) (SearchResult, error) {
	if e.AdaptiveBudget {
		ar, err := e.adaptive(ctx, m)
		if err != nil {
			return SearchResult{}, err
		}
		return adaptiveResult(ar), nil
	}
	r := dp.ScheduleCtx(ctx, m, dp.Options{StepTimeout: e.StepTimeout, MaxStates: e.MaxStates, MemLimit: e.MemLimit, MemGrow: e.MemGrow})
	if r.Flag == dp.FlagCanceled {
		return SearchResult{}, ctx.Err()
	}
	if r.Flag != dp.FlagSolution {
		return SearchResult{}, flagError("dynamic programming", r.Flag)
	}
	return SearchResult{Order: r.Order, StatesExplored: r.StatesExplored, MaxFrontier: r.MaxFrontier, PeakBytes: r.PeakBytes, Quality: QualityOptimal}, nil
}

// GreedyMemory is the one-step-lookahead greedy heuristic as a first-class
// strategy: at every step it schedules the ready node minimizing the
// resulting footprint. Deterministic, linear-ish time, never errors on a
// valid DAG — the strategy of last resort for graphs beyond the DP's reach,
// and BestEffort's fallback.
type GreedyMemory struct{}

// Name implements Searcher.
func (GreedyMemory) Name() string { return "greedy" }

// MemoKey implements MemoKeyer. The greedy heuristic is deterministic and
// configuration-free, so the strategy name alone discriminates; its results
// are heuristic-quality but not degraded (FellBack is never set), so they are
// memoizable under their own key.
func (GreedyMemory) MemoKey() string { return "greedy" }

// Search implements Searcher. The scan honors ctx: linear-ish is still
// minutes on a dense many-thousand-node graph, and a disconnected caller
// should not pin a CPU for it.
func (GreedyMemory) Search(ctx context.Context, m *MemModel) (SearchResult, error) {
	r, err := sched.GreedyMemoryRunCtx(ctx, m)
	if err != nil {
		return SearchResult{}, err
	}
	return SearchResult{Order: r.Order, StatesExplored: r.StatesExplored, Quality: QualityHeuristic}, nil
}

// BestEffort turns "exact or error" into "exact, else valid": it runs the
// exact DP (under the soft budget, whose valves give up on a hopeless
// instance instead of retrying) under ctx's deadline, and on timeout,
// state-cap blowup, or deadline expiry degrades to the greedy heuristic
// rather than failing. The segment's Quality reports
// which path produced the order.
//
// Cancellation semantics: a context *deadline* triggers the fallback (the
// caller wants an answer by then), while an explicit cancellation aborts
// with ctx.Err() (the caller is gone; nobody wants the answer).
type BestEffort struct {
	// Exact configures the primary search. AdaptiveBudget is implied: the
	// exact attempt always runs under adaptive soft budgeting, the only
	// deadline-aware exact configuration.
	Exact ExactDP
	// SkipExact degrades every segment immediately, without attempting the
	// exact search — exactly as if the caller's deadline expired the moment
	// the search began. It exists to make the degraded path deterministic:
	// tests and operational drills of the serve-then-refine loop (see
	// RefinePool) force fallbacks with it instead of racing a wall-clock
	// deadline against the DP. It is deliberately absent from MemoKey:
	// degraded results are never stored, so the flag cannot alias cached
	// entries, and the background refinement — the same compilation re-run
	// with the flag cleared — fills the very keys the degraded run was
	// denied.
	SkipExact bool
}

// Name implements Searcher.
func (b BestEffort) Name() string { return "best-effort" }

// MemoKey implements MemoKeyer. Like ExactDP's it is a versioned constant:
// only non-degraded (optimal) results are ever stored in a SegmentMemo, and
// those are the canonical order under any deadline, StepTimeout or MaxStates.
// Degraded results never enter the memo (see SegmentMemo), so deadline
// pressure cannot leak across requests. (A met deadline's result is the very
// artifact "exact|v3" names; sharing the key is left for a later change.)
func (b BestEffort) MemoKey() string { return "best-effort|v3" }

// scopeMemory implements memScoper. A governed BestEffort converts the byte
// ceiling into degradation, not failure: when the adaptive search aborts
// under memory pressure the greedy fallback (whose O(n) working set needs no
// reservation) still answers, with FallbackReason wrapping
// ErrMemoryPressure so serve-then-refine can repair the segment later.
func (b BestEffort) scopeMemory(limit int64, grow func(needed int64) int64) Searcher {
	b.Exact.MemLimit, b.Exact.MemGrow = limit, grow
	return b
}

// errSkipExact is the fallback reason of a forced (SkipExact) degradation.
var errSkipExact = errors.New("serenity: exact search skipped (forced degradation)")

// Search implements Searcher.
func (b BestEffort) Search(ctx context.Context, m *MemModel) (SearchResult, error) {
	if b.SkipExact {
		gr, err := sched.GreedyMemoryRun(m)
		if err != nil {
			return SearchResult{}, err
		}
		return SearchResult{
			Order:          gr.Order,
			StatesExplored: gr.StatesExplored,
			Quality:        QualityHeuristic,
			FellBack:       true,
			FallbackReason: errSkipExact,
		}, nil
	}
	ar, reason := b.Exact.adaptive(ctx, m)
	switch {
	case reason == nil:
		return adaptiveResult(ar), nil
	case ar != nil && ar.Flag != dp.FlagCanceled:
		// A valve ended the search. A byte-ceiling abort degrades like a
		// deadline, but its reason wraps ErrMemoryPressure so governors and
		// metrics can tell pressure-forced heuristics from deadline-forced
		// ones.
	case errors.Is(reason, context.DeadlineExceeded):
	default:
		// Explicit cancellation or an invalid graph: not degradable.
		return SearchResult{}, reason
	}
	// The fallback deliberately runs without ctx: the deadline has already
	// expired, and the contract is that the caller is owed a valid answer
	// anyway (explicit cancellation was handled above, before the DP work
	// was abandoned).
	gr, err := sched.GreedyMemoryRun(m)
	if err != nil {
		return SearchResult{}, err
	}
	sr := SearchResult{
		Order:          gr.Order,
		StatesExplored: gr.StatesExplored,
		Quality:        QualityHeuristic,
		FellBack:       true,
		FallbackReason: reason,
	}
	if ar != nil {
		// Every abandoned-DP path reports the work burned before giving up
		// (ar is nil only when the deadline fired before the DP started).
		sr.StatesExplored += ar.StatesExplored
		sr.PeakBytes, sr.Ladder = ar.PeakBytes, ladderOf(ar)
	}
	return sr, nil
}
