package dp

// Intra-level parallel expansion: when one level's frontier is wide enough
// (Options.ParallelThreshold) and Options.Parallelism allows it, the level's
// transitions are sharded across workers by signature hash. Every worker
// scans the whole parent frontier in discovery order but owns only the
// transitions whose child hash maps to its shard — ownership is a pure
// function of the signature, so all duplicates of a signature are resolved
// inside one shard, with the same lowest-peak, then smallest-via tie-break
// the sequential path applies. Non-owned transitions cost a hash XOR and a
// modulo; the expensive work (footprint evaluation, probing, slab writes) is
// done once, by the owner.
//
// The merged frontier is the shards' frontiers laid end to end, which is not
// the order a sequential expansion discovers states in. Nothing observable
// depends on that order: a level's set of signatures, each signature's least
// peak and (by the via tie-break) its recorded predecessor are the same
// however the level is scanned, so StatesExplored, StatesPruned, MaxFrontier,
// PeakBytes and the reconstructed schedule are all identical to a sequential
// run on the solution path. Abort paths (cancellation, timeouts, the
// MaxStates valve) keep the identical Flag but may report different partial
// counts; see Options.Parallelism.

import (
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/serenity-ml/serenity/internal/graph"
)

const (
	// defaultParallelThreshold is the frontier width below which sharding
	// overhead (goroutine fan-out plus every worker scanning the level)
	// outweighs the parallel win.
	defaultParallelThreshold = 256
	// maxShards caps the fan-out; beyond this the per-worker full-frontier
	// scan dominates.
	maxShards = 16
	// shardPollInterval is how many scanned transitions a worker goes
	// between ctx/deadline/stop polls. Power of two (it is used as a mask).
	shardPollInterval = 2048
)

// Abort reasons published by the first worker that trips one; cancellation,
// the timeout flavors, and the byte valve map onto the sequential path's
// Flag priority.
const (
	abortNone int32 = iota
	abortCanceled
	abortTimeout
	abortMemPressure
)

// shardWorker is one expansion shard's private working set, reused across
// every sharded level of a run so steady-state expansion allocates nothing.
type shardWorker struct {
	lvl      level
	tbl      ftable
	scratch  graph.Bitset
	explored int64
	pruned   int64
	minPrune int64 // this shard's share of Result.MinPruned
}

// expandParallel expands the current level across shardCount() workers and
// concatenates the per-shard frontiers into s.next. Counters are folded into
// s.res only after all workers join, so the workers share nothing mutable but
// the atomics below.
func (s *search) expandParallel() expandOutcome {
	shards := s.shardCount()
	if s.px == nil {
		s.px = &parallelExpander{}
	}
	for len(s.px.workers) < shards {
		s.px.workers = append(s.px.workers, &shardWorker{})
	}
	ws := s.px.workers[:shards]

	// Precompute the frontier width the byte valve allows so shard polls can
	// compare the shared created counter against it without touching the
	// accounting fields. Only when MemGrow is nil: with an upgrade callback
	// the (single-threaded) post-join check below is the sole consult point,
	// so workers never race on s.memLimit. The previous level's end check
	// guarantees byteCap >= the next buffer's recorded high water, so
	// crossing it is exactly the sequential path's per-parent condition.
	s.byteCap = -1
	if s.memLimit > 0 && s.opts.MemGrow == nil {
		s.byteCap = (s.memLimit-s.pvBytes)/s.stateBytes - s.hiCur
	}

	var created atomic.Int64
	var reason atomic.Int32
	var wg sync.WaitGroup
	for i := 1; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s.runShard(ws[i], i, shards, &created, &reason)
		}(i)
	}
	s.runShard(ws[0], 0, shards, &created, &reason)
	wg.Wait()

	for _, w := range ws {
		s.res.StatesExplored += w.explored
		s.res.StatesPruned += w.pruned
		if w.minPrune != 0 && (s.res.MinPruned == 0 || w.minPrune < s.res.MinPruned) {
			s.res.MinPruned = w.minPrune
		}
	}
	switch reason.Load() {
	case abortCanceled:
		return expandCanceled
	case abortTimeout:
		return expandTimeout
	case abortMemPressure:
		return expandMemPressure
	}
	total := int(created.Load())
	if s.opts.MaxStates > 0 && total > s.opts.MaxStates {
		// Deterministic valve: the level's full frontier exceeds the cap, so
		// the sequential path would have aborted mid-level with the same
		// Flag. (ctx may have fired between the workers' last poll and here;
		// cancellation still wins, as it would at the next sequential poll.)
		if canceled(s.done) {
			return expandCanceled
		}
		return expandTimeout
	}
	if s.memOver(total) {
		// Same deterministic-valve argument as MaxStates above, on the byte
		// accounting: a full frontier of total states would cross MemLimit,
		// so the sequential path would have aborted mid-level (this is also
		// where MemGrow is consulted for sharded levels — post-join, where
		// no workers race on the accounting).
		if canceled(s.done) {
			return expandCanceled
		}
		return expandMemPressure
	}
	s.mergeShards(ws, total)
	return expandOK
}

// parallelExpander owns the lazily grown worker set of a search.
type parallelExpander struct {
	workers []*shardWorker
}

// runShard is one worker's pass over the whole parent frontier. It mirrors
// expandSequential transition for transition, except that it skips
// transitions owned by other shards after the (cheap) hash computation and
// stops early when any worker publishes an abort reason.
func (s *search) runShard(wk *shardWorker, id, shards int, created *atomic.Int64, reason *atomic.Int32) {
	var (
		w      = s.w
		zob    = s.m.Zobrist
		alloc  = s.m.Alloc
		budget = s.opts.Budget
		me     = uint64(id)
		nsh    = uint64(shards)
	)
	wk.lvl.reset()
	wk.tbl.reset(len(s.cur.states)/shards + 1)
	wk.explored, wk.pruned, wk.minPrune = 0, 0, 0

	scan := 0
	for si := range s.cur.states {
		st := &s.cur.states[si]
		psched := s.cur.sched(si, w)
		pready := s.cur.ready(si, w)
		for wi := 0; wi < w; wi++ {
			word := pready[wi]
			for word != 0 {
				u := wi<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				scan++
				if scan&(shardPollInterval-1) == 0 {
					if reason.Load() != abortNone {
						return
					}
					if canceled(s.done) {
						reason.CompareAndSwap(abortNone, abortCanceled)
						return
					}
					if s.opts.StepTimeout > 0 && time.Since(s.stepStart) > s.opts.StepTimeout {
						reason.CompareAndSwap(abortNone, abortTimeout)
						return
					}
					if s.opts.MaxStates > 0 && created.Load() > int64(s.opts.MaxStates) {
						reason.CompareAndSwap(abortNone, abortTimeout)
						return
					}
					if s.byteCap >= 0 && created.Load() > s.byteCap {
						reason.CompareAndSwap(abortNone, abortMemPressure)
						return
					}
				}
				h := st.hash ^ zob[u]
				if h%nsh != me {
					continue
				}
				muHigh := st.mu + alloc[u]
				peak := st.peak
				if muHigh > peak {
					peak = muHigh
				}
				if budget > 0 && peak > budget {
					wk.pruned++
					if wk.minPrune == 0 || peak < wk.minPrune {
						wk.minPrune = peak
					}
					continue
				}
				uw, ubit := u>>6, uint64(1)<<uint(u&63)
				wk.tbl.grow(&wk.lvl)
				idx, slot := wk.tbl.probe(h, &wk.lvl, w, psched, uw, ubit)
				if idx >= 0 {
					ns := &wk.lvl.states[idx]
					if peak < ns.peak || (peak == ns.peak && int32(u) < ns.via) {
						ns.peak = peak
						ns.parent = int32(si)
						ns.via = int32(u)
					}
					continue
				}
				wk.lvl.appendChild(s.m, &wk.scratch, psched, pready, si, u, w, h, muHigh, peak)
				wk.tbl.place(slot, int32(len(wk.lvl.states)-1))
				wk.explored++
				created.Add(1)
			}
		}
	}
}

// mergeShards lays the per-shard frontiers end to end in s.next.
func (s *search) mergeShards(ws []*shardWorker, total int) {
	next := s.next
	next.states = slices.Grow(next.states, total)
	next.slab = slices.Grow(next.slab, total*2*s.w)
	for _, wk := range ws {
		next.states = append(next.states, wk.lvl.states...)
		next.slab = append(next.slab, wk.lvl.slab...)
	}
}
