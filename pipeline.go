package serenity

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/serenity-ml/serenity/internal/alloc"
	"github.com/serenity-ml/serenity/internal/graph"
	"github.com/serenity-ml/serenity/internal/partition"
	"github.com/serenity-ml/serenity/internal/rewrite"
	"github.com/serenity-ml/serenity/internal/sched"
	"github.com/serenity-ml/serenity/internal/trace"
)

// StageTimings records how long each pipeline stage took; disabled stages
// report zero.
type StageTimings struct {
	Rewrite   time.Duration `json:"rewrite"`
	Partition time.Duration `json:"partition"`
	Search    time.Duration `json:"search"`
	Alloc     time.Duration `json:"alloc"`
}

// Pipeline is the composable form of the SERENITY compilation pipeline
// (Figure 4: rewrite → partition → search → arena allocation): four fixed
// stages, with the per-segment search strategy pluggable and the arena
// planned by TF-Lite's best-fit scheme (internal/alloc). A compilation
// reports through its Result (accounting: counts, qualities, Stages timings)
// and, when ctx carries a trace span, through one span per stage and segment
// (narration).
//
// Construct one with NewPipeline (which derives the strategy from Options)
// or populate the fields directly; then call Run. Schedule and
// ScheduleContext remain as thin wrappers for callers that don't need to
// swap strategies.
type Pipeline struct {
	// Searcher schedules each partition segment. Required. Must be safe for
	// concurrent use when Parallelism > 1.
	Searcher Searcher
	// SegmentMemo, when non-nil, shares per-segment search results across
	// runs (and across Pipelines holding the same memo): before searching a
	// partition segment the pipeline consults the memo under the segment's
	// Fingerprint plus the Searcher's MemoKey, and concurrent searches of
	// the same segment coalesce into one. Only consulted when Partition is
	// enabled and the Searcher implements MemoKeyer; degraded (fallback)
	// results are never stored. Store and Peers are tiers beneath it and are
	// consulted only through it. See SegmentMemo.
	SegmentMemo *SegmentMemo
	// Store, when non-nil, is the persistent tier under the SegmentMemo: a
	// lookup falls through memory → disk → fresh search, disk hits are
	// promoted into the memo, and fresh results are written through inside
	// the walk, before it returns. It requires a SegmentMemo: RunIn fails a
	// Pipeline with a Store and no memo. Keys, eligibility, and the
	// never-store-degraded rule are exactly the SegmentMemo's; see
	// ScheduleStore.
	Store *ScheduleStore
	// Peers, when non-nil, is the fleet tier beneath memory and disk: on a
	// local miss of a key another fleet member owns, the artifact is fetched
	// from the owner (validated like a disk artifact), and fresh local
	// computes of non-owned keys are replicated to their owner write-behind.
	// Every fleet failure mode degrades to local compute. Like Store it
	// requires a SegmentMemo, the tier fetched artifacts are promoted into
	// and the flight concurrent fetches of one key share. See PeerTier.
	Peers PeerTier
	// Govern, when non-nil, admits every fresh segment search's memory:
	// before a search runs (memo/store/peer hits never reserve — they do no
	// search) the pipeline reserves an estimated byte footprint and scopes
	// the Searcher to it via scopeMemory, so the DP's MemLimit valve and
	// the governor's ledger describe the same bytes. Only consulted when
	// the Searcher implements memScoper (ExactDP and BestEffort do; greedy
	// needs no frontier and none of this). See MemoryGovernor.
	Govern MemoryGovernor

	// Rewrite / Partition toggle the graph stages, with the same semantics
	// as the corresponding Options fields.
	Rewrite   bool
	Partition bool
	// Parallelism bounds the worker pool searching segments concurrently;
	// values <= 1 mean sequential. See Options.Parallelism.
	Parallelism int
	// MemoryBudget, when positive, makes Run fail with ErrBudgetExceeded if
	// the planned arena exceeds it. The partial Result is still returned.
	MemoryBudget int64
}

// MemoryGovernor admits per-search memory for a Pipeline: Reserve books an
// estimated byte footprint into a process-wide ledger and returns the
// reservation the search runs under. Implementations must never refuse — a
// governor under critical pressure instead grants a ceiling so small the
// search aborts immediately with a memory-pressure outcome, which degradable
// searchers convert into their heuristic fallback (see internal/govern for
// the production implementation and its pressure ladder).
type MemoryGovernor interface {
	Reserve(estimate int64) SearchReservation
}

// SearchReservation is one admitted search's byte budget. SearchLimit seeds
// the search's byte ceiling (0 = unlimited), Grow is consulted mid-search to
// raise it (returning a new ceiling >= needed grants, anything smaller
// denies), and Release returns the bytes to the ledger when the search ends.
type SearchReservation interface {
	SearchLimit() int64
	Grow(needed int64) int64
	Release()
}

// NewPipeline builds a Pipeline from opts: the Searcher is derived from
// opts.Strategy (and the exact-search knobs), and the stage toggles are
// copied over. Returns an error if opts fails Validate. No SegmentMemo is
// installed — assign one afterwards to share per-segment search results
// across runs.
func NewPipeline(opts Options) (*Pipeline, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return &Pipeline{
		Searcher:     opts.searcher(),
		Rewrite:      opts.Rewrite,
		Partition:    opts.Partition,
		Parallelism:  opts.Parallelism,
		MemoryBudget: opts.MemoryBudget,
	}, nil
}

// RewriteGraph is the pipeline's rewrite stage (Figure 4, stage 1): every
// match of the paper's two partitioning patterns substituted in one pass, so
// the result is a pure function of g — the same structure and names in give
// the same graph out. It returns the rewritten graph, named g.Name+"+rewrite",
// and the number of substitutions, or g itself and 0 when nothing matches. g
// must be valid (Graph.Validate). The rewritten graph is built on fresh
// memory: the caller may keep it.
func RewriteGraph(g *Graph) (*Graph, int, error) {
	return rewriteGraph(g, nil)
}

// rewriteGraph is RewriteGraph building the rewritten graph in sc, or on fresh
// memory when sc is nil: the one place the compile path rewrites.
func rewriteGraph(g *Graph, sc *rewrite.Scratch) (*Graph, int, error) {
	// One pass is the fixpoint: a substitution leaves partial convolutions
	// where convolutions were, so no new match can appear.
	matches := rewrite.FindMatches(g)
	if len(matches) == 0 {
		return g, 0, nil
	}
	rw, err := rewrite.Apply(g, matches, sc)
	if err != nil {
		return nil, 0, err
	}
	return rw, len(matches), nil
}

// Workspace is one compilation's working set: the memory Pipeline.RunIn
// builds its intermediate graphs and tables in — the decoded graph, the
// rewritten graph, the partition's segment graphs, the memory model, Kahn's
// baseline and the peak check, and the arena plan — kept from one compilation
// to the next instead of allocated and dropped every time. A server that
// recycles one per request turns most of a warm request's garbage into reuse.
//
// The reuse contract: a graph DecodeGraph returned is valid until the next
// DecodeGraph, and a RunIn Result's Graph and Offsets until the next RunIn;
// RunIn leaves the decoded graph alone, so a graph decoded in a Workspace can
// be compiled in it. Everything else a Result carries is the caller's to keep.
// A Workspace is not safe for concurrent use; the zero value is ready to use.
type Workspace struct {
	decode  graph.Decoder
	rewrite rewrite.Scratch
	split   partition.Splitter
	model   sched.MemModel // the input graph's, then the rewritten graph's
	sc      sched.Scratch
	plan    alloc.Planner
}

// DecodeGraph decodes a graph in the JSON IR (the language ReadGraphJSON
// reads, with the same errors) into ws. The graph and its nodes are valid
// until ws's next DecodeGraph; node names are strings of their own and stay
// valid.
func (ws *Workspace) DecodeGraph(data []byte) (*Graph, error) {
	return ws.decode.Decode(data)
}

// Bytes is the heap ws keeps for reuse: what holding it on to costs.
func (ws *Workspace) Bytes() int {
	return ws.decode.Bytes() + ws.rewrite.Bytes() + ws.split.Bytes() + ws.model.Bytes() +
		ws.sc.Bytes() + ws.plan.Bytes()
}

// Run executes the pipeline on g under ctx.
//
// Cancellation is threaded into the search stage; whether a deadline aborts
// the compilation or degrades it is the Searcher's contract (ExactDP errors,
// BestEffort falls back). The other stages are fast and run to completion.
func (p *Pipeline) Run(ctx context.Context, g *Graph) (*Result, error) {
	return p.RunIn(ctx, g, new(Workspace))
}

// RunIn is Run with its intermediate graphs and tables built in ws. The
// Result's Graph (unless it is g itself) and Offsets live in ws and are valid
// until ws's next RunIn; every other field is the caller's.
func (p *Pipeline) RunIn(ctx context.Context, g *Graph, ws *Workspace) (*Result, error) {
	start := time.Now()
	if p.Searcher == nil {
		return nil, errors.New("serenity: pipeline has no Searcher")
	}
	if p.SegmentMemo == nil && (p.Store != nil || p.Peers != nil) {
		return nil, errors.New("serenity: pipeline has a Store or Peers but no SegmentMemo to walk them from")
	}
	// Tracing rides in on the context: a traced request carries a live span,
	// an untraced one carries nothing and every handle below stays nil (all
	// span methods are nil-safe, and attribute construction is guarded, so
	// the untraced path allocates nothing).
	root := trace.FromContext(ctx)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	res := &Result{Graph: g, Quality: QualityOptimal}

	// Baseline / hard budget from Kahn's algorithm.
	model := &ws.model
	model.Rebuild(g)
	var err error
	if _, res.BaselinePeak, err = ws.sc.BaselinePeak(model); err != nil {
		return nil, err
	}

	// Stage 1: identity graph rewriting.
	work := g
	if p.Rewrite {
		rwSp := root.Child("stage.rewrite")
		t0 := time.Now()
		if work, res.RewriteCount, err = rewriteGraph(g, &ws.rewrite); err != nil {
			return nil, err
		}
		if work != g {
			res.Rewritten, res.Graph = true, work
		}
		res.Stages.Rewrite = time.Since(t0)
		if rwSp != nil {
			rwSp.Annotate(trace.Int("rewrites", int64(res.RewriteCount)))
			rwSp.End()
		}
	}
	if work != g {
		model.Rebuild(work) // the input graph's model is done with
	}

	// Stage 2: divide-and-conquer.
	var segments []*partition.Segment
	var part *partition.Partition
	if p.Partition {
		ptSp := root.Child("stage.partition")
		t0 := time.Now()
		part, err = ws.split.Split(work)
		if err != nil {
			return nil, err
		}
		segments = part.Segments
		res.PartitionSizes = part.Sizes()
		res.Stages.Partition = time.Since(t0)
		if ptSp != nil {
			ptSp.Annotate(trace.Int("segments", int64(len(segments))))
			ptSp.End()
		}
	} else {
		// The un-partitioned graph is the one segment.
		segments = []*partition.Segment{{G: work, VirtualInput: -1}}
		res.PartitionSizes = []int{work.NumNodes()}
	}

	// Stage 3: per-segment search. Each segment is an independent
	// sub-problem; the Searcher is required to be pure across segments, so
	// segments may run concurrently — and, when a SegmentMemo is installed,
	// structurally identical segments share one search across runs.
	searchSp := root.Child("stage.search")
	searchStart := time.Now()

	// keys[i] is segment i's memo key; nil disables memoization (no memo
	// installed, partitioning off, or a Searcher that does not expose a
	// MemoKey). Keys are values, hashed up front from the segment views so
	// the per-segment work does no fingerprinting of its own.
	var keys []memoKey
	var tierHits [numMemoTiers]atomic.Int64 // memoized lookups by answering tier
	var freshStates atomic.Int64
	if p.SegmentMemo != nil && part != nil {
		if mk, ok := p.Searcher.(MemoKeyer); ok {
			if disc := mk.MemoKey(); disc != "" {
				keys = make([]memoKey, len(segments))
				for i, seg := range segments {
					keys[i] = memoKey{seg.Sum(), disc}
				}
			}
		}
	}

	searchOne := func(ctx context.Context, idx int, fanOut func()) (SearchResult, error) {
		seg := segments[idx]
		nodes := seg.NumNodes()
		var segSp *trace.SpanHandle
		if searchSp != nil {
			segSp = searchSp.Child("segment",
				trace.Int("index", int64(idx)), trace.Int("nodes", int64(nodes)))
			// Downstream tiers (memo walk, peer fetch) parent their spans to
			// the segment, not the request root.
			ctx = trace.ContextWith(ctx, segSp)
		}
		// Validation happens inside compute: every fresh result — a request's
		// or a background refinement's recompute — is checked to be a
		// topological order of the segment (Segment.Fits) before any tier sees
		// it, the same check artifacts pass on load (decodeArtifact); a memory
		// hit is a result that already passed it for a segment of the same
		// fingerprint, hence of the same structure.
		// The governor reservation lives here too: only a search that actually
		// runs costs memory, so memo/store/peer hits never touch the ledger.
		compute := func() (SearchResult, error) {
			fanOut()
			var dpSp *trace.SpanHandle
			if segSp != nil {
				dpSp = segSp.Child("dp.search")
			}
			t0 := time.Now()
			segSearcher := p.Searcher
			var rsv SearchReservation
			if p.Govern != nil {
				if ms, ok := segSearcher.(memScoper); ok {
					rsv = p.Govern.Reserve(estimateSearchBytes(nodes))
					defer rsv.Release()
					segSearcher = ms.scopeMemory(rsv.SearchLimit(), rsv.Grow)
					if dpSp != nil {
						dpSp.Annotate(trace.Int("reserved_bytes", rsv.SearchLimit()))
					}
				}
			}
			// The segment graph and its memory model are built here, where a
			// search actually runs: a memo hit needs the segment's node count
			// and nothing else. A traced search gets its dp.search span
			// through ctx, so the searcher narrates what only it knows (the
			// budget it ran at).
			sr, err := segSearcher.Search(trace.ContextWith(ctx, dpSp), sched.NewMemModel(seg.Graph()))
			if dpSp != nil {
				el := time.Since(t0)
				rate := int64(0)
				if el > 0 {
					rate = int64(float64(sr.StatesExplored) / el.Seconds())
				}
				dpSp.Annotate(
					trace.Int("states", sr.StatesExplored),
					trace.Int("states_per_sec", rate),
					trace.Int("max_frontier", int64(sr.MaxFrontier)),
					trace.Int("peak_bytes", sr.PeakBytes),
					trace.Str("quality", string(sr.Quality)),
					trace.Bool("fell_back", sr.FellBack),
				)
				if sr.FellBack && sr.FallbackReason != nil {
					dpSp.Annotate(trace.Str("fallback_reason", sr.FallbackReason.Error()))
				}
				if gs, ok := rsv.(interface {
					Grows() int64
					Denied() int64
				}); ok {
					dpSp.Annotate(
						trace.Int("governor_grows", gs.Grows()),
						trace.Int("governor_denied", gs.Denied()))
				}
				dpSp.EndErr(err)
			}
			if err != nil {
				return sr, err
			}
			if !seg.Fits(sr.Order) {
				return sr, fmt.Errorf("serenity: searcher %s returned %d ids that are not a topological order of the segment's %d nodes", p.Searcher.Name(), len(sr.Order), nodes)
			}
			return sr, nil
		}
		var sr SearchResult
		var err error
		tier := memoTierMiss
		if keys != nil {
			sr, tier, err = walkMemo(ctx, p.SegmentMemo, p.Store, p.Peers, keys[idx], seg, fanOut, compute)
			tierHits[tier].Add(1)
		} else {
			sr, err = compute()
		}
		if err != nil {
			if segSp != nil {
				segSp.EndErr(err)
			}
			return sr, err
		}
		if tier == memoTierMiss {
			// Memo hits replay their stored StatesExplored into the Result
			// (warm runs reconcile bit for bit with cold ones), but only a
			// search actually run here counts as fresh work.
			freshStates.Add(sr.StatesExplored)
		}
		if segSp != nil {
			segSp.Annotate(trace.Str("memo_tier", tier.name()))
			if keys != nil {
				segSp.Annotate(trace.Str("memo_key", keys[idx].String()))
			}
			segSp.End()
		}
		return sr, nil
	}

	results, err := searchSegments(ctx, len(segments), p.Parallelism, searchOne)
	if err != nil {
		return nil, err
	}
	order := results[0].Order
	if part != nil {
		orders := make([]sched.Schedule, len(results))
		for i, sr := range results {
			orders[i] = sr.Order
		}
		if order, err = part.Combine(orders); err != nil {
			return nil, err
		}
	}
	res.SegmentQuality = make([]Quality, 0, len(results))
	for _, sr := range results {
		res.StatesExplored += sr.StatesExplored
		if sr.MaxFrontier > res.MaxFrontier {
			res.MaxFrontier = sr.MaxFrontier
		}
		res.SegmentQuality = append(res.SegmentQuality, sr.Quality)
		if sr.Quality != QualityOptimal {
			res.Quality = QualityHeuristic
		}
		if sr.FellBack {
			res.Fallbacks++
		}
	}
	res.SegmentMemoDiskHits = int(tierHits[memoTierDisk].Load())
	res.SegmentMemoPeerHits = int(tierHits[memoTierPeer].Load())
	res.SegmentMemoHits = int(tierHits[memoTierMemory].Load()) + res.SegmentMemoDiskHits + res.SegmentMemoPeerHits
	res.FreshStatesExplored = freshStates.Load()
	res.Stages.Search = time.Since(searchStart)
	if searchSp != nil {
		searchSp.Annotate(
			trace.Int("states", res.StatesExplored),
			trace.Int("fresh_states", res.FreshStatesExplored),
			trace.Int("memo_hits", int64(res.SegmentMemoHits)),
			trace.Int("fallbacks", int64(res.Fallbacks)))
		searchSp.End()
	}

	// Measure the combined schedule end to end. Every segment order passed
	// Segment.Fits, whichever tier it came from, so a failure here is a bug in
	// this program (the partition or Combine), never a bad artifact.
	if res.Peak, err = ws.sc.Peak(model, order); err != nil {
		return nil, fmt.Errorf("serenity: combined schedule invalid: %w", err)
	}
	res.Order = order

	// Stage 4: arena allocation.
	alSp := root.Child("stage.alloc")
	t0 := time.Now()
	asn, err := ws.plan.Plan(model, order)
	if err != nil {
		return nil, err
	}
	res.ArenaSize = asn.ArenaSize
	res.Offsets = asn.Offsets
	res.Stages.Alloc = time.Since(t0)
	if alSp != nil {
		alSp.Annotate(trace.Int("arena_bytes", res.ArenaSize))
		alSp.End()
	}
	res.SchedulingTime = time.Since(start)

	if p.MemoryBudget > 0 && res.ArenaSize > p.MemoryBudget {
		return res, &ErrBudgetExceeded{Required: res.ArenaSize, Budget: p.MemoryBudget}
	}
	return res, nil
}

// SplitParallelism divides one CPU budget between two nested fan-outs: a
// pool of workers over units (a compilation's segments, a batch's items) and
// the parallelism each unit's own work may use. The budget is clamped to
// [1, GOMAXPROCS] first — the work is pure CPU, so goroutines beyond
// GOMAXPROCS cannot run and only multiply live frontier tables — then
// workers = min(budget, units) (at least 1) and per = budget / workers, so
// workers*per never exceeds the clamped budget.
func SplitParallelism(budget, units int) (workers, per int) {
	budget = max(1, min(budget, runtime.GOMAXPROCS(0)))
	workers = max(1, min(budget, units))
	return workers, budget / workers
}

// helpersStarted counts the helper goroutines searchSegments has started,
// for tests of when it starts them.
var helpersStarted atomic.Int64

// searchSegments solves segments 0..n-1 with one worker function that claims
// segment indexes from a shared counter. The caller's goroutine is the first
// worker. searchOne gets a fanOut hook to call before a segment waits on
// work — a search or a peer fetch: the first call starts the helpers
// SplitParallelism grants beyond the caller (none when it grants one worker),
// so a run that memory and disk answer starts no goroutine. Results are
// collected by segment index, so on success the outcome is identical
// regardless of parallelism or goroutine interleaving.
//
// Workers stop claiming only after a recorded failure, never on the caller's
// deadline: a degradable searcher answers every segment after the deadline
// by falling back, and an expired context must not void those valid
// results. A failure cancels the segments still running; the reported
// segment index is the lowest-index genuine failure, which with helpers may
// differ from the caller-only run's (the failure itself is the same kind),
// the one deliberate concession to the helpers.
func searchSegments(ctx context.Context, n, parallelism int,
	searchOne func(ctx context.Context, i int, fanOut func()) (SearchResult, error)) ([]SearchResult, error) {

	results := make([]SearchResult, n)
	errs := make([]error, n)
	segCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	workers, _ := SplitParallelism(parallelism, n)
	var next atomic.Int64
	var failed, fanned atomic.Bool
	var wg sync.WaitGroup
	var work func()
	fanOut := func() {
		if workers <= 1 || fanned.Swap(true) {
			return
		}
		// The first call comes from the caller's goroutine (no helper exists
		// before it), so every Add happens before its Wait.
		for range min(workers-1, n-int(next.Load())) {
			wg.Add(1)
			helpersStarted.Add(1)
			go func() { defer wg.Done(); work() }()
		}
	}
	work = func() {
		for !failed.Load() {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			sr, err := searchOne(segCtx, i, fanOut)
			if err != nil {
				errs[i] = err
				failed.Store(true)
				cancel() // abort the segments still running
				return
			}
			results[i] = sr
		}
	}
	work()
	wg.Wait()
	if !failed.Load() {
		return results, nil
	}
	if ctxErr := ctx.Err(); ctxErr != nil {
		// The caller's own cancellation outranks any per-segment error.
		return nil, ctxErr
	}
	// A genuine failure cancels its siblings, so an induced context.Canceled
	// gives way to the lowest-index error that is not one.
	at := -1
	for i, err := range errs {
		if err != nil && (at < 0 || errors.Is(errs[at], context.Canceled)) {
			at = i
		}
	}
	return nil, fmt.Errorf("segment %d: %w", at, errs[at])
}
