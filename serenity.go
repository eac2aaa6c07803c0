// Package serenity is a memory-aware scheduler for irregularly wired neural
// networks, reproducing "Ordering Chaos: Memory-Aware Scheduling of
// Irregularly Wired Neural Networks for Edge Devices" (Ahn et al.,
// MLSys 2020).
//
// Given a dataflow graph of tensor operations, Schedule finds an execution
// order minimizing the peak activation memory footprint, using the paper's
// full pipeline: identity graph rewriting, divide-and-conquer partitioning,
// and dynamic programming with adaptive soft budgeting. The resulting
// schedule is paired with a TensorFlow-Lite-style arena allocation, so the
// reported footprint is what a runtime would actually reserve.
//
// Quick start:
//
//	b := serenity.NewBuilder("net")
//	in := b.Input(serenity.Shape{1, 56, 56, 8})
//	... build the graph ...
//	res, err := serenity.Schedule(b.Graph(), serenity.DefaultOptions())
//	// res.Order, res.Peak, res.ArenaSize
//
// # Pipeline, strategies, observability
//
// The pipeline is composable: Pipeline wires a Searcher (the per-segment
// scheduling strategy) and an Allocator (the arena planning strategy) around
// the graph stages. A compilation reports through its Result (per-stage
// timings, segment qualities, fallbacks, memo hits) and, when the context
// carries a trace span, through one child span per stage and segment.
// Three searchers ship built in:
//
//   - ExactDP — the paper's exact search; optimal or an error (default)
//   - GreedyMemory — the linear-time heuristic, for graphs beyond DP reach
//   - BestEffort — exact under the deadline, degrading to the heuristic
//     instead of failing, with each segment tagged Optimal or Heuristic
//
// Schedule and ScheduleContext remain as thin wrappers over Pipeline;
// Options.Strategy selects the searcher without touching the Pipeline API:
//
//	opts := serenity.DefaultOptions()
//	opts.Strategy = serenity.StrategyBestEffort
//	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
//	defer cancel()
//	res, err := serenity.ScheduleContext(ctx, g, opts)
//	// err == nil even if the DP could not finish; res.Quality says which
//	// path produced the schedule, res.Fallbacks how many segments degraded.
//
// Divide-and-conquer makes the partition segments independent sub-problems,
// so the pipeline can solve them concurrently: set Options.Parallelism
// to fan the per-segment search out over a bounded worker pool. Parallelism
// changes wall-clock time, not results (see Options.Parallelism).
// Cancellation is threaded into the search loops, so deadlines and client
// disconnects abort (or, under BestEffort, degrade) a compilation
// mid-search.
//
// Because segments are independent sub-problems, their solutions are also
// reusable: install a SegmentMemo on a Pipeline to share per-segment search
// results across runs (and across Pipelines holding the same memo), so
// networks stacking a repeated cell pay for its DP once. See SegmentMemo.
//
// For serving schedule requests over HTTP (with an LRU schedule cache keyed
// by Graph.Fingerprint, a process-wide SegmentMemo, batch compilation, and
// per-request strategy selection), see cmd/serenityd.
package serenity

import (
	"context"
	"fmt"
	"time"

	"github.com/serenity-ml/serenity/internal/graph"
	"github.com/serenity-ml/serenity/internal/sched"
)

// Re-exported IR types; see the internal/graph package for full docs.
type (
	// Graph is the scheduler's dataflow IR.
	Graph = graph.Graph
	// Node is one operation in a Graph.
	Node = graph.Node
	// Shape is a tensor shape in NHWC layout.
	Shape = graph.Shape
	// Builder constructs graphs with shape inference.
	Builder = graph.Builder
	// OpType enumerates operation kinds.
	OpType = graph.OpType
	// Padding selects convolution padding.
	Padding = graph.Padding
	// Order is an execution order over a Graph's nodes.
	Order = sched.Schedule
)

// Re-exported padding policies.
const (
	PadSame  = graph.PadSame
	PadValid = graph.PadValid
)

// NewGraph returns an empty graph.
func NewGraph(name string) *Graph { return graph.New(name) }

// NewBuilder returns a graph builder.
func NewBuilder(name string) *Builder { return graph.NewBuilder(name) }

// Options configures the scheduling pipeline. The zero value disables every
// stage except the core DP scheduler; use DefaultOptions for the paper's
// full pipeline.
type Options struct {
	// Rewrite enables identity graph rewriting (Section 3.3).
	Rewrite bool
	// ExtendedRewrite additionally applies the extension rules beyond the
	// paper (nested-concat flattening, identity-copy elimination) before the
	// partitioning patterns. Implies Rewrite semantics when set.
	ExtendedRewrite bool
	// Partition enables divide-and-conquer (Section 3.2).
	Partition bool
	// Strategy selects the per-segment search strategy: StrategyExact (the
	// default; the empty string means exact), StrategyGreedy, or
	// StrategyBestEffort. See the Searcher implementations for semantics.
	Strategy Strategy
	// AdaptiveBudget enables adaptive soft budgeting (Section 3.2) for the
	// exact strategy. When false the DP runs unbudgeted, which finds the
	// same schedule but may be intractable for graphs beyond ~30 nodes per
	// partition.
	AdaptiveBudget bool
	// StepTimeout is the per-search-step limit T of Algorithm 2, kept as a
	// safety valve: a DP level that exceeds it fails the search with
	// ErrSearchLimit (or, under StrategyBestEffort, degrades the segment); it
	// never steers it. Zero means unlimited, with or without AdaptiveBudget;
	// DefaultOptions sets the paper's 1s. Under StrategyGreedy it is ignored.
	StepTimeout time.Duration
	// MemoryBudget, when positive, makes Schedule fail with
	// ErrBudgetExceeded if even the optimal schedule's arena exceeds it
	// (the edge device's hard capacity, e.g. 250KB for a SparkFun Edge).
	MemoryBudget int64
	// MaxStates caps the DP frontier as a memory-safety valve: a level wider
	// than it fails the search like StepTimeout does. Zero means unlimited;
	// DefaultOptions sets 4Mi states.
	MaxStates int
	// Parallelism is how many independent units are searched at once: the
	// worker pool scheduling partition segments concurrently (and, in
	// serenityd, a batch's items before that; see SplitParallelism). A
	// single segment's search is single-threaded whatever the value —
	// Algorithm 1 is one level-by-level recursion, and sharding a level
	// measured 1.5-2x slower than the plain loop (README, Performance) — so a
	// graph that does not partition gains nothing from it. Values of 0 or 1
	// mean sequential; negative values are rejected by Validate; the pool is
	// capped at GOMAXPROCS. Segments are independent sub-problems
	// (Section 3.2) and each segment's exact schedule is a pure function of
	// the segment (peak ties break on the node id; see internal/dp), so the
	// combined schedule is bit-identical at every Parallelism, with or
	// without AdaptiveBudget.
	Parallelism int
}

// DefaultOptions returns the paper's full pipeline configuration, with both
// search valves set: the paper's T = 1s and a 4Mi-state frontier.
func DefaultOptions() Options {
	return Options{
		Rewrite:        true,
		Partition:      true,
		AdaptiveBudget: true,
		StepTimeout:    time.Second,
		MaxStates:      4 << 20,
	}
}

// Validate rejects option combinations that would otherwise surface as
// confusing deep-pipeline errors: negative Parallelism, StepTimeout,
// MaxStates or MemoryBudget, and unknown strategies. ScheduleContext and
// NewPipeline call it; servers should call it at request-decoding time so
// bad requests fail fast with a clear message.
func (o Options) Validate() error {
	if o.Parallelism < 0 {
		return fmt.Errorf("serenity: negative Parallelism %d (0 or 1 means sequential)", o.Parallelism)
	}
	if o.StepTimeout < 0 {
		return fmt.Errorf("serenity: negative StepTimeout %s", o.StepTimeout)
	}
	if o.MaxStates < 0 {
		return fmt.Errorf("serenity: negative MaxStates %d (zero means unlimited)", o.MaxStates)
	}
	if o.MemoryBudget < 0 {
		return fmt.Errorf("serenity: negative MemoryBudget %d", o.MemoryBudget)
	}
	_, err := ParseStrategy(string(o.Strategy))
	return err
}

// searcher derives the Searcher opts.Strategy selects. Callers must have
// validated opts first.
func (o Options) searcher() Searcher {
	exact := ExactDP{
		AdaptiveBudget: o.AdaptiveBudget,
		StepTimeout:    o.StepTimeout,
		MaxStates:      o.MaxStates,
	}
	switch o.Strategy {
	case StrategyGreedy:
		return GreedyMemory{}
	case StrategyBestEffort:
		exact.AdaptiveBudget = true
		return BestEffort{Exact: exact}
	}
	return exact
}

// ErrBudgetExceeded is returned when the optimal schedule still exceeds
// Options.MemoryBudget.
type ErrBudgetExceeded struct {
	Required int64
	Budget   int64
}

// Error implements the error interface.
func (e *ErrBudgetExceeded) Error() string {
	return fmt.Sprintf("serenity: optimal arena %d bytes exceeds device budget %d bytes", e.Required, e.Budget)
}

// Result is the outcome of Schedule.
type Result struct {
	// Graph is the graph the schedule indexes: the rewritten graph when
	// rewriting applied, otherwise the input graph.
	Graph *Graph
	// Order is the execution order over Graph; memory-optimal when Quality
	// is QualityOptimal.
	Order Order
	// Peak is the ideal peak footprint (sum of live tensor bytes).
	Peak int64
	// ArenaSize is the concrete footprint after arena allocation (includes
	// fragmentation; this is what a runtime reserves).
	ArenaSize int64
	// Offsets[node] is the arena byte offset of each physical tensor, -1
	// for aliases.
	Offsets []int64
	// BaselinePeak is the input graph's peak under Kahn's memory-oblivious
	// order (the hard budget τmax).
	BaselinePeak int64
	// Rewritten reports whether graph rewriting changed the graph, and
	// RewriteCount how many patterns were substituted.
	Rewritten    bool
	RewriteCount int
	// PartitionSizes lists the divide-and-conquer segment node counts.
	PartitionSizes []int
	// Quality is QualityOptimal iff every segment's search was exact;
	// SegmentQuality reports each segment (parallel to PartitionSizes).
	Quality        Quality
	SegmentQuality []Quality
	// Fallbacks counts segments where a degradable searcher abandoned the
	// exact search for its heuristic fallback.
	Fallbacks int
	// SegmentMemoHits counts segments whose search result came from the
	// memo hierarchy instead of a fresh search — from the Pipeline's
	// in-memory SegmentMemo (stored by an earlier run, or shared with a
	// concurrent search of the same segment) or from the persistent
	// ScheduleStore tier beneath it. Always zero without an installed memo
	// or store.
	SegmentMemoHits int
	// SegmentMemoDiskHits is the subset of SegmentMemoHits answered by the
	// persistent tier (Pipeline.Store): artifacts loaded, validated, and
	// promoted from disk. SegmentMemoHits - SegmentMemoDiskHits were served
	// from memory. Always zero without a store.
	SegmentMemoDiskHits int
	// SegmentMemoPeerHits is the subset of SegmentMemoHits answered by the
	// fleet tier (Pipeline.Peers): artifacts fetched from the key's owning
	// peer, validated, and promoted into the local tiers. Always zero
	// without a fleet.
	SegmentMemoPeerHits int
	// Stages breaks the compile time down per pipeline stage.
	Stages StageTimings
	// SchedulingTime is the end-to-end compile time.
	SchedulingTime time.Duration
	// StatesExplored counts partial schedules considered across all
	// segments (DP memo entries; greedy candidate evaluations). Segment
	// memo hits replay the stored search's count, so warm runs reconcile
	// bit for bit with the cold runs that populated the memo.
	StatesExplored int64
	// MaxFrontier is the largest number of coexisting DP signatures any
	// segment's search held — the frontier's memory high-water mark for the
	// compilation. Memo hits replay the stored search's value. Zero when
	// every segment was scheduled heuristically.
	MaxFrontier int
	// FreshStatesExplored counts only states explored by searches actually
	// run in this compilation: memo hits contribute nothing. Equal to
	// StatesExplored when no memo is installed (or nothing hit); the honest
	// measure of search work done for metering and capacity accounting.
	FreshStatesExplored int64
	// SearchPeakBytes is the largest byte footprint any single segment's
	// search retained in this compilation (frontier slabs plus compacted
	// reconstruction history; see dp.Result.PeakBytes) — the scheduler's own
	// memory appetite, as opposed to ArenaSize, the scheduled model's. Like
	// FreshStatesExplored it reports only work done here: memo hits and
	// heuristic segments contribute zero.
	SearchPeakBytes int64
}

// Schedule runs the SERENITY pipeline (Figure 4) on g. It is a thin wrapper
// over Pipeline: NewPipeline(opts) followed by Run.
func Schedule(g *Graph, opts Options) (*Result, error) {
	return ScheduleContext(context.Background(), g, opts)
}

// ScheduleContext runs the SERENITY pipeline (Figure 4) on g under ctx.
//
// Cancellation is threaded down into the search loops: when ctx is done the
// search aborts promptly (within one polling interval of ~64 transitions) and
// ctx.Err() is returned — except under StrategyBestEffort, where a deadline
// degrades the affected segments to the greedy heuristic instead (see
// BestEffort). With opts.Parallelism > 1 the per-segment search runs on a
// bounded worker pool; see Options.Parallelism for the determinism
// guarantee.
func ScheduleContext(ctx context.Context, g *Graph, opts Options) (*Result, error) {
	p, err := NewPipeline(opts)
	if err != nil {
		return nil, err
	}
	return p.Run(ctx, g)
}

// PeakOf evaluates the peak footprint of an arbitrary schedule on g;
// a convenience for comparing against baselines.
func PeakOf(g *Graph, order Order) (int64, error) {
	return sched.NewMemModel(g).Peak(order)
}

// BaselineOrder returns Kahn's memory-oblivious topological order — the
// "basic topological ordering algorithm" the paper attributes to existing
// frameworks.
func BaselineOrder(g *Graph) (Order, error) {
	return sched.KahnFIFO(g)
}
