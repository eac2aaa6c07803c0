// Package dp implements SERENITY's dynamic-programming scheduler
// (Algorithm 1) and the soft budget it runs under (Algorithm 2, as Cap).
//
// The key insight (Section 3.1) is that partial schedules that cover the
// same downward-closed set of nodes are interchangeable for the remainder of
// the search, so only the one with the lowest peak footprint needs to
// survive. The paper identifies states by their zero-indegree set z; the
// zero-indegree set is exactly the minimal antichain of the complement of
// the scheduled set, so z and the scheduled set are in bijection — we key
// the memo table on the scheduled-set bitset, which is cheaper to maintain
// incrementally.
//
// A useful consequence used throughout: the running footprint µ is a pure
// function of the scheduled set (it is the sum of live tensor sizes, and
// liveness depends only on which nodes have executed), so two partial
// schedules reaching the same signature differ only in µpeak.
//
// # Implementation
//
// The frontier is allocation-free on its hot path: states are keyed
// incrementally, indexed by an open-addressed table probed *before* any
// child state is materialized, and backed by per-level slab arenas — see
// frontier.go. Duplicate transitions (the bulk of a dense level) cost zero
// allocations; only genuinely new signatures write to the slab. Completed
// levels are compacted down to the (parent, via) pairs schedule
// reconstruction needs, and the whole working set — level buffers, table,
// history, per-node masks — is recycled across searches (a bounded pool of
// at most retainedWorkspaces sets), so a search allocates its Result and
// its Order and little else.
//
// There are two widths of state and one level loop. Readiness, freed bytes
// and the safe-move test are AND tests against per-node masks precomputed
// for the segment. A segment of at most 64 nodes — every segment the
// partitioner cuts from the paper's cells and the benchmark's graphs, which
// is where nearly all search time goes — holds a state in one scheduled word
// and one ready word, keys the table on the scheduled word itself, and runs
// each mask test as a single AND. A wider graph (an unpartitioned request,
// an unpartitionable graph) runs the same loop over w-word states keyed by a
// 64-bit Zobrist hash (MemModel.Zobrist) with a word compare behind it. The
// width follows from the node count alone; both give bit-identical Results.
//
// A search is single-threaded: Algorithm 1 is one level-by-level recursion,
// and sharding a level's transitions across workers measured 1.5-2x slower
// than this loop (every shard rescans the whole parent level and the merge
// copies every state). The parallelism the paper offers is between partition
// segments, which the pipeline above this package fans out.
package dp

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"github.com/serenity-ml/serenity/internal/sched"
)

// Flag is the scheduler's outcome, mirroring Figure 4's
// {'no solution', 'timeout', 'solution'}, extended with 'canceled' for
// context cancellation (client disconnect, deadline) and 'memory pressure'
// for the Options.MemLimit byte valve.
type Flag int

// Scheduler outcomes.
const (
	FlagSolution Flag = iota
	FlagNoSolution
	FlagTimeout
	FlagCanceled
	// FlagMemPressure reports that the search's retained frontier and
	// compacted-history bytes (the accounting behind Result.PeakBytes) would
	// have exceeded Options.MemLimit and Options.MemGrow declined to raise
	// the ceiling. The abort is deterministic: the byte accounting is a pure
	// function of per-level frontier widths. Unlike FlagTimeout, it signals
	// that retrying with more time cannot help — only a larger byte ceiling,
	// a smaller soft budget τ (which prunes the frontier), or a heuristic
	// fallback can.
	FlagMemPressure
)

// String renders the flag as in the paper.
func (f Flag) String() string {
	switch f {
	case FlagSolution:
		return "solution"
	case FlagNoSolution:
		return "no solution"
	case FlagTimeout:
		return "timeout"
	case FlagCanceled:
		return "canceled"
	case FlagMemPressure:
		return "memory pressure"
	}
	return fmt.Sprintf("Flag(%d)", int(f))
}

// Options controls a single dynamic-programming run.
type Options struct {
	// Budget is the soft budget τ in bytes: transitions whose running peak
	// would exceed it are pruned. Zero means unlimited.
	Budget int64
	// StepTimeout is the paper's T: the wall-clock limit per search step
	// (per level of the recursion tree). Zero means unlimited.
	StepTimeout time.Duration
	// MaxStates aborts with FlagTimeout if the frontier for one search step
	// exceeds this many memoized signatures. Zero means unlimited. This is a
	// memory-safety valve for graphs the paper would call intractable
	// without divide-and-conquer.
	MaxStates int
	// MemLimit caps the bytes the search may retain across its frontier
	// slabs and compacted (parent, via) history — the quantity reported in
	// Result.PeakBytes. Crossing it aborts with FlagMemPressure (after
	// consulting MemGrow, if set). Zero means unlimited. Unlike MaxStates,
	// which counts signatures regardless of width, the byte valve accounts
	// 2⌈n/64⌉ slab words plus a 32-byte header per state, so wide graphs
	// trip it proportionally earlier. It is checked after each parent
	// state's transitions and once more when a level's history is compacted.
	MemLimit int64
	// MemGrow, when non-nil, is consulted before a MemLimit abort with the
	// bytes the search needs to continue. Returning a new limit >= needed
	// raises the ceiling and the search proceeds; returning anything
	// smaller denies the upgrade and the search aborts with
	// FlagMemPressure.
	MemGrow func(needed int64) int64
}

// Result reports a scheduling attempt.
type Result struct {
	Flag           Flag
	Order          sched.Schedule // valid iff Flag == FlagSolution
	Peak           int64          // peak footprint of Order
	StatesExplored int64          // memo entries created across all steps
	StatesPruned   int64          // transitions discarded by the budget
	StatesForced   int64          // states expanded through a safe move alone (safeMove)
	MaxFrontier    int            // largest number of coexisting signatures
	// PeakBytes is the high-water mark of the search's retained memory:
	// the two ping-ponged level buffers at their widest (2⌈n/64⌉ slab words
	// plus a 32-byte header per state) plus the compacted 8-byte
	// (parent, via) history. It is a pure function of per-level frontier
	// widths; an aborted run reports the bytes held when it stopped.
	PeakBytes int64
	Elapsed   time.Duration
}

// FrontierStateBytes returns the bytes one frontier state retains for an
// n-node graph under the Result.PeakBytes accounting: 2⌈n/64⌉ slab words
// (scheduled + ready bitsets) plus the 32-byte state header. Callers sizing
// Options.MemLimit or governor reservations multiply it by an expected
// frontier width.
func FrontierStateBytes(n int) int64 {
	w := (n + 63) / 64
	return int64(16*w + 32)
}

// Schedule runs Algorithm 1 over the memory model m. It is exact: with an
// unlimited budget it returns a schedule with the minimum possible peak
// activation footprint (Theorem 1 of the paper's supplementary material).
func Schedule(m *sched.MemModel, opts Options) *Result {
	return ScheduleCtx(context.Background(), m, opts)
}

// search carries the working set of one DP run: the current and
// under-construction levels (ping-ponged so slabs and state slices are
// recycled every level), the frontier index, the (parent, via) history,
// and the per-node masks the transition function reads. All of it outlives
// the run: ScheduleCtx takes a set from the workspace pool and gives it back,
// so a search on a recycled set allocates only its Result and its Order.
type search struct {
	m    *sched.MemModel
	opts Options
	res  *Result
	n, w int // nodes; words per bitset

	lv        [2]level
	cur, next *level
	tbl       ftable
	// keys[u] is what scheduling u XORs into a state's key: u's own bit
	// when the scheduled set fits one word (the key is the set), else u's
	// Zobrist word.
	keys []uint64
	// hist holds every finished level's (parent, via) pairs back to back
	// in chunks of histChunk, so a long search never copies its history to
	// grow it: histLen pairs are in use, and level i's start at pair
	// histOff[i] (see record and pair).
	hist    [][]pv
	histLen int
	histOff []int

	// Per-node masks, w words each at u·w. pred and succ are u's
	// predecessors and successors. must is safeMove's filter: the nodes that
	// have to be scheduled before u can pass its test (ii) — the other
	// consumers of every operand root u must free to cover its output. A
	// node whose operand roots together are smaller than its output never
	// passes, which the mask says by naming u itself. Bit u of proves says
	// that the roots must alone frees already cover u's output, so once must
	// is scheduled the test needs no byte count.
	pred, succ, must []uint64
	proves           []uint64
	// u's operand roots as (consumers other than u, bytes) pairs: relMask
	// at i·w and relSize[i] for i in [relOff[u], relOff[u+1]). Running u
	// frees a root iff its mask is a subset of the scheduled set.
	relOff  []int32
	relMask []uint64
	relSize []int64
	// One-word segments only: the nodes grouped by output bytes, classes[k]
	// holding those that allocate classAlloc[k], ascending — safeMoveWord's
	// "allocates the least of the ready set" is one AND per class.
	classes    []uint64
	classAlloc []int64

	done      <-chan struct{}
	trans     int // transitions since the run began; poll clock
	stepStart time.Time

	// Byte accounting behind Result.PeakBytes and the MemLimit valve:
	// stateBytes is the per-state cost (FrontierStateBytes), hiCur/hiNext
	// the high-water state counts of the two ping-pong buffers (swapped
	// together with cur/next), pvBytes the cumulative compacted history.
	// The accounting is monotone, so the live total is also the peak.
	memLimit   int64
	stateBytes int64
	hiCur      int64
	hiNext     int64
	pvBytes    int64
}

// liveBytes is the search's current (== peak, by monotonicity) retained
// bytes: both ping-pong buffers at their high-water widths plus the
// compacted history. The under-construction level is folded in via
// len(next.states); after the end-of-level swap that length is covered by
// the buffer's recorded high water, so the fold is safe at any point.
func (s *search) liveBytes() int64 {
	hn := s.hiNext
	if l := int64(len(s.next.states)); l > hn {
		hn = l
	}
	return (s.hiCur+hn)*s.stateBytes + s.pvBytes
}

// memOver reports whether retaining width states in the next buffer would
// exceed MemLimit, consulting MemGrow once per crossing. A true return means
// the search must abort with FlagMemPressure.
func (s *search) memOver(width int) bool {
	if s.memLimit <= 0 {
		return false
	}
	hn := int64(width)
	if s.hiNext > hn {
		hn = s.hiNext
	}
	need := (s.hiCur+hn)*s.stateBytes + s.pvBytes
	if need <= s.memLimit {
		return false
	}
	if s.opts.MemGrow != nil {
		if nl := s.opts.MemGrow(need); nl >= need {
			s.memLimit = nl
			return false
		}
	}
	return true
}

// memAuditHook, when set (tests only), receives the accounted live bytes and
// the actual in-use retained bytes just before ScheduleCtx returns, so the
// fuzz harness can assert PeakBytes never under-reports real retention.
var memAuditHook func(accounted, inUse int64)

// ScheduleCtx is Schedule with cooperative cancellation: the search loop
// polls ctx at every level of the recursion tree and every 64 transitions
// within a level — transition-count based, so a single huge-fanout state
// cannot delay the poll the way the old per-64-states check could —
// returning FlagCanceled as soon as ctx is done. The partial frontier is
// discarded; a canceled run does no further work.
func ScheduleCtx(ctx context.Context, m *sched.MemModel, opts Options) *Result {
	s := acquire(m)
	defer s.release()
	return s.run(ctx, opts)
}

// The workspace pool. A fresh working set costs about a hundred allocations
// where a partitioned segment's whole search is a few hundred states, so
// searches recycle theirs. At most retainedWorkspaces idle sets are kept, and
// release drops every buffer that outgrew its cap below (a search that needs
// more allocates as it would without the pool), so the pool never holds more
// than retainedWorkspaces × workspaceBytes of heap.
const (
	retainedWorkspaces = 2
	retainStates       = 4096  // states per level buffer; its slab holds 2·retainStates words
	retainSlots        = 16384 // frontier-index slots
	retainHistory      = 32768 // (parent, via) pairs, in chunks of histChunk
	histChunk          = 4096
	retainNodeWords    = 4096 // entries of each per-node table: masks, offsets, sizes

	// workspaceBytes bounds one retained working set (just under 1 MiB):
	// two level buffers of 32-byte states and their slabs, the 4-byte
	// slots, the 8-byte history pairs, and the per-node tables — six of
	// uint64 words, two of int64 bytes, histOff's ints and relOff's int32s.
	workspaceBytes = 2*retainStates*(32+2*8) + 4*retainSlots + 8*retainHistory +
		retainNodeWords*(6*8+2*8+8+4)
)

var workspaces = make(chan *search, retainedWorkspaces)

// unitBits[u] is the one-word key of node u.
var unitBits = func() (b [64]uint64) {
	for u := range b {
		b[u] = 1 << uint(u)
	}
	return b
}()

// acquire returns a working set for a DP run over m: a retained one when
// the pool has it, else a new one.
func acquire(m *sched.MemModel) *search {
	var s *search
	select {
	case s = <-workspaces:
	default:
		s = new(search)
	}
	s.prepare(m)
	return s
}

// release returns s to the pool, without its references to the caller's
// model, options and Result and without any buffer over its cap.
func (s *search) release() {
	s.m, s.opts, s.res, s.keys, s.done = nil, Options{}, nil, nil, nil
	for i := range s.lv {
		s.lv[i].states = retain(s.lv[i].states, retainStates)
		s.lv[i].slab = retain(s.lv[i].slab, 2*retainStates)
	}
	s.tbl.slots = retain(s.tbl.slots, retainSlots)
	keep := min(len(s.hist), retainHistory/histChunk)
	clear(s.hist[keep:])
	s.hist = s.hist[:keep]
	s.histOff = retain(s.histOff, retainNodeWords)
	s.pred = retain(s.pred, retainNodeWords)
	s.succ = retain(s.succ, retainNodeWords)
	s.must = retain(s.must, retainNodeWords)
	s.proves = retain(s.proves, retainNodeWords)
	s.relOff = retain(s.relOff, retainNodeWords)
	s.relMask = retain(s.relMask, retainNodeWords)
	s.relSize = retain(s.relSize, retainNodeWords)
	s.classes = retain(s.classes, retainNodeWords)
	s.classAlloc = retain(s.classAlloc, retainNodeWords)
	select {
	case workspaces <- s:
	default:
	}
}

// retain empties b for reuse, or drops it when its capacity exceeds limit.
func retain[T any](b []T, limit int) []T {
	if cap(b) > limit {
		return nil
	}
	return b[:0]
}

// extend appends k zero words to b.
func extend(b []uint64, k int) []uint64 {
	b = slices.Grow(b, k)
	b = b[:len(b)+k]
	clear(b[len(b)-k:])
	return b
}

// prepare points s at m and derives the per-node masks from it.
func (s *search) prepare(m *sched.MemModel) {
	g := m.G
	n := g.NumNodes()
	w := (n + 63) / 64
	s.m, s.n, s.w = m, n, w
	s.stateBytes = FrontierStateBytes(n)
	s.cur, s.next = &s.lv[0], &s.lv[1]
	s.cur.reset()
	s.next.reset()
	s.histLen, s.histOff = 0, s.histOff[:0]
	s.keys = m.Zobrist
	if w == 1 {
		s.keys = unitBits[:n]
	}
	s.pred = extend(s.pred[:0], n*w)
	s.succ = extend(s.succ[:0], n*w)
	s.must = extend(s.must[:0], n*w)
	s.proves = extend(s.proves[:0], w)
	for _, node := range g.Nodes {
		u := node.ID
		for _, p := range node.Preds {
			s.pred[u*w+p>>6] |= 1 << uint(p&63)
			s.succ[p*w+u>>6] |= 1 << uint(u&63)
		}
	}
	s.relOff = append(s.relOff[:0], 0)
	s.relMask, s.relSize = s.relMask[:0], s.relSize[:0]
	for u, roots := range m.PredRoots {
		alloc := m.Alloc[u]
		var operands, needed int64
		for _, r := range roots {
			operands += m.RootSize[r]
		}
		must := s.must[u*w : u*w+w]
		for _, r := range roots {
			base := len(s.relMask)
			s.relMask = extend(s.relMask, w)
			mask := s.relMask[base:]
			for _, c := range m.Consumers[r] {
				if c != u {
					mask[c>>6] |= 1 << uint(c&63)
				}
			}
			s.relSize = append(s.relSize, m.RootSize[r])
			if operands < alloc || operands-m.RootSize[r] >= alloc {
				continue // u never passes, or the other operands cover it without r
			}
			needed += m.RootSize[r]
			for i, word := range mask {
				must[i] |= word
			}
		}
		switch {
		case operands < alloc:
			must[u>>6] |= 1 << uint(u&63)
		case needed >= alloc:
			s.proves[u>>6] |= 1 << uint(u&63)
		}
		s.relOff = append(s.relOff, int32(len(s.relSize)))
	}
	s.classes, s.classAlloc = s.classes[:0], s.classAlloc[:0]
	if w == 1 {
		s.classAlloc = append(s.classAlloc, m.Alloc...)
		slices.Sort(s.classAlloc)
		s.classAlloc = slices.Compact(s.classAlloc)
		s.classes = extend(s.classes, len(s.classAlloc))
		for u, a := range m.Alloc {
			k, _ := slices.BinarySearch(s.classAlloc, a)
			s.classes[k] |= 1 << uint(u)
		}
	}
}

// run is the DP search under opts on the prepared working set s.
func (s *search) run(ctx context.Context, opts Options) *Result {
	start := time.Now()
	res := &Result{Flag: FlagNoSolution}
	defer func() { res.Elapsed = time.Since(start) }()

	n, w := s.n, s.w
	if n == 0 {
		res.Flag = FlagSolution
		res.Order = sched.Schedule{}
		return res
	}

	s.opts, s.res, s.done, s.memLimit, s.trans = opts, res, ctx.Done(), opts.MemLimit, 0
	defer func() {
		res.PeakBytes = s.liveBytes()
		if memAuditHook != nil {
			inUse := 8*int64(len(s.cur.slab)+len(s.next.slab)) +
				32*int64(len(s.cur.states)+len(s.next.states)) + 8*int64(s.histLen)
			memAuditHook(res.PeakBytes, inUse)
		}
	}()

	// Level 0: empty schedule (s0=[], µ0=0, µpeak,0=0; M0[z0] per
	// Algorithm 1). The key of ∅ is 0 at either width.
	s.cur.states = append(s.cur.states, stNode{parent: -1, via: -1})
	s.cur.slab = extend(s.cur.slab, 2*w)
	ready := s.cur.ready(0, w)
	for _, node := range s.m.G.Nodes {
		if len(node.Preds) == 0 {
			ready[node.ID>>6] |= 1 << uint(node.ID&63)
		}
	}
	s.record(pv{parent: -1, via: -1})
	s.histOff = append(s.histOff, 0)
	s.hiCur, s.hiNext, s.pvBytes = 1, 0, 8
	if s.memOver(0) {
		// The ceiling cannot hold even the empty schedule's level.
		res.Flag = FlagMemPressure
		return res
	}

	for i := 0; i < n; i++ {
		if canceled(s.done) {
			res.Flag = FlagCanceled
			return res
		}
		s.stepStart = time.Now()
		s.next.reset()

		if f := s.expand(); f != FlagSolution {
			res.Flag = f
			return res
		}
		if opts.StepTimeout > 0 && time.Since(s.stepStart) > opts.StepTimeout {
			res.Flag = FlagTimeout
			return res
		}
		width := len(s.next.states)
		if width == 0 {
			// Every transition exceeded the budget: τ < τ*.
			res.Flag = FlagNoSolution
			return res
		}
		res.MaxFrontier = max(res.MaxFrontier, width)
		// The finished level's (parent, via) pairs are final; compact them
		// for reconstruction and retire the expanded level entirely — its
		// slab and state slice are recycled for level i+2.
		s.histOff = append(s.histOff, s.histLen)
		for j := range s.next.states {
			s.record(pv{s.next.states[j].parent, s.next.states[j].via})
		}
		s.hiNext = max(s.hiNext, int64(width))
		s.pvBytes += 8 * int64(width)
		if s.memOver(width) {
			// The compacted history alone crossed the ceiling.
			res.Flag = FlagMemPressure
			return res
		}
		s.cur, s.next = s.next, s.cur
		s.hiCur, s.hiNext = s.hiNext, s.hiCur
	}

	// Unique final entry Mn (line 27): walk the (parent, via) chain back.
	// The order is the caller's: it never aliases the recycled history.
	final := s.cur.states[0]
	order := make(sched.Schedule, n)
	parent, via := final.parent, final.via
	for lvl := n; via >= 0; lvl-- {
		order[lvl-1] = int(via)
		e := s.pair(s.histOff[lvl-1] + int(parent))
		parent, via = e.parent, e.via
	}
	res.Flag = FlagSolution
	res.Order = order
	res.Peak = final.peak
	return res
}

// record appends one finished state's (parent, via) pair to the history.
func (s *search) record(p pv) {
	c := s.histLen / histChunk
	if c == len(s.hist) {
		s.hist = append(s.hist, make([]pv, histChunk))
	}
	s.hist[c][s.histLen%histChunk] = p
	s.histLen++
}

// pair returns the history's pair i.
func (s *search) pair(i int) pv {
	return s.hist[i/histChunk][i%histChunk]
}

// expand runs one level of Algorithm 1's recursion in discovery order: for
// each parent state, for each ready node u (line 10) — or for its safe move
// alone, see safeMove — the child's key is computed incrementally and probed
// before anything is allocated. Duplicates only compete on peak (lines
// 21-22); new signatures are appended to the slab. Mirrors the map-based
// reference loop transition for transition, so Result accounting is
// bit-identical. It returns FlagSolution when the level is complete, else
// the flag of the valve or cancellation that stopped it mid-level.
func (s *search) expand() Flag {
	var (
		w         = s.w
		keys      = s.keys
		alloc     = s.m.Alloc
		budget    = s.opts.Budget
		cur, next = s.cur, s.next
	)
	s.tbl.reset(len(cur.states))
	for si := range cur.states {
		st := &cur.states[si]
		psched, pready := cur.sched(si, w), cur.ready(si, w)
		// A safe move is the state's only transition.
		lo, hi, only := 0, w, ^uint64(0)
		if u := s.safeMove(psched, pready); u >= 0 {
			lo, hi, only = u>>6, u>>6+1, uint64(1)<<uint(u&63)
			s.res.StatesForced++
		}
		for wi := lo; wi < hi; wi++ {
			word := pready[wi] & only
			for word != 0 {
				u := wi<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				s.trans++
				if s.trans&63 == 0 {
					if canceled(s.done) {
						return FlagCanceled
					}
					if s.opts.StepTimeout > 0 && time.Since(s.stepStart) > s.opts.StepTimeout {
						return FlagTimeout
					}
				}
				// Allocate u (lines 11-14).
				muHigh := st.mu + alloc[u]
				peak := max(st.peak, muHigh)
				if budget > 0 && peak > budget {
					s.res.StatesPruned++
					continue
				}
				h := st.hash ^ keys[u]
				s.tbl.grow(next)
				idx, slot := s.tbl.probe(h, next, w, psched, u>>6, uint64(1)<<uint(u&63))
				if idx >= 0 {
					// Memoize the schedule with the least peak (lines 21-22);
					// ties go to the smaller via, which names the parent
					// signature uniquely, so the winner does not depend on
					// discovery order or τ.
					ns := &next.states[idx]
					if peak < ns.peak || (peak == ns.peak && int32(u) < ns.via) {
						ns.peak = peak
						ns.parent = int32(si)
						ns.via = int32(u)
					}
					continue
				}
				s.appendChild(psched, pready, si, u, h, muHigh, peak)
				s.tbl.place(slot, int32(len(next.states)-1))
				s.res.StatesExplored++
			}
		}
		if s.opts.MaxStates > 0 && len(next.states) > s.opts.MaxStates {
			return FlagTimeout
		}
		if s.memOver(len(next.states)) {
			return FlagMemPressure
		}
	}
	return FlagSolution
}

// appendChild materializes the transition (parent state with words
// psched/pready, node u) as a new state of the next level: the child's words
// are appended to the slab (amortized, allocation-free at steady state), the
// successors whose last predecessor u was become ready, and mu drops by the
// roots u frees. h, muHigh, and peak are the transition's precomputed key and
// footprint.
func (s *search) appendChild(psched, pready []uint64, si, u int, h uint64, muHigh, peak int64) {
	w, l := s.w, s.next
	ubit := uint64(1) << uint(u&63)
	var freed int64
	if w == 1 {
		cs, cr := psched[0]|ubit, pready[0]&^ubit
		for succ := s.succ[u]; succ != 0; succ &= succ - 1 {
			if sc := bits.TrailingZeros64(succ); s.pred[sc]&^cs == 0 {
				cr |= 1 << uint(sc)
			}
		}
		l.slab = append(l.slab, cs, cr)
		freed = s.freedWord(u, cs)
	} else {
		base := len(l.slab)
		l.slab = append(l.slab, psched...)
		l.slab = append(l.slab, pready...)
		csched := l.slab[base : base+w]
		cready := l.slab[base+w : base+2*w]
		csched[u>>6] |= ubit
		cready[u>>6] &^= ubit
		for wi, word := range s.succ[u*w : u*w+w] {
			for ; word != 0; word &= word - 1 {
				sc := wi<<6 + bits.TrailingZeros64(word)
				if subset(s.pred[sc*w:sc*w+w], csched) {
					cready[wi] |= 1 << uint(sc&63)
				}
			}
		}
		freed = s.freed(u, csched)
	}
	l.states = append(l.states, stNode{hash: h, mu: muHigh - freed, peak: peak, parent: int32(si), via: int32(u)})
}

// freed is the bytes running u releases when the set scheduled before it
// (with or without u) is set: the roots whose other consumers set holds.
func (s *search) freed(u int, set []uint64) int64 {
	var bytes int64
	w := s.w
	for i := s.relOff[u]; i < s.relOff[u+1]; i++ {
		if subset(s.relMask[int(i)*w:int(i)*w+w], set) {
			bytes += s.relSize[i]
		}
	}
	return bytes
}

// freedWord is freed for a one-word set.
func (s *search) freedWord(u int, set uint64) int64 {
	var bytes int64
	for i := s.relOff[u]; i < s.relOff[u+1]; i++ {
		if s.relMask[i]&^set == 0 {
			bytes += s.relSize[i]
		}
	}
	return bytes
}

// subset reports whether every bit of a is in b (len(a) == len(b)).
func subset(a, b []uint64) bool {
	for i, word := range a {
		if word&^b[i] != 0 {
			return false
		}
	}
	return true
}

// safeMove returns the smallest-id ready node that may be scheduled alone at
// the state (psched, pready) without losing the optimum, or -1 when the state
// must branch on every ready node. u is safe when (i) no ready node allocates
// less than Alloc[u] and (ii) the bytes freed the moment u runs are at least
// Alloc[u]. The exchange argument: take any completion σ = v1 … vk u … of the
// state and move u to the front. Its spike µ + Alloc[u] ≤ µ + Alloc[v1] is
// one σ pays anyway; every later step up to u's old position holds Alloc[u]
// more and at least the freed bytes less (scheduling more nodes first can
// only let u free more); from there on the live sets coincide. So
// peak(σ') ≤ peak(σ), restricting the state to u keeps µ*, and because the
// choice reads only the scheduled set, the restricted transition graph — and
// with it the via tie-break's canonical order — is a pure function of the
// segment, independent of τ. The least allocation is found first (one pass
// over the ready set, or one AND per alloc class on a one-word state), and
// (ii) is tested, in id order, only for the ready nodes that match it: an
// AND against the must mask, then the proves bit or, failing that, the freed
// bytes — so graphs where tensor sizes differ and the rule rarely fires pay
// little.
func (s *search) safeMove(psched, pready []uint64) int {
	if s.w == 1 {
		return s.safeMoveWord(psched[0], pready[0])
	}
	alloc, w := s.m.Alloc, s.w
	minAlloc := int64(math.MaxInt64)
	for wi, word := range pready {
		for ; word != 0; word &= word - 1 {
			minAlloc = min(minAlloc, alloc[wi<<6+bits.TrailingZeros64(word)])
		}
	}
	for wi, word := range pready {
		for ; word != 0; word &= word - 1 {
			u := wi<<6 + bits.TrailingZeros64(word)
			if alloc[u] == minAlloc && subset(s.must[u*w:u*w+w], psched) &&
				(s.proves[wi]&(1<<uint(u&63)) != 0 || s.freed(u, psched) >= minAlloc) {
				return u
			}
		}
	}
	return -1
}

// safeMoveWord is safeMove for a one-word state: the first alloc class the
// ready set meets is the least-allocating one, and its ready members are the
// candidates.
func (s *search) safeMoveWord(have, ready uint64) int {
	for k, class := range s.classes {
		if cand := class & ready; cand != 0 {
			a := s.classAlloc[k]
			for ; cand != 0; cand &= cand - 1 {
				u := bits.TrailingZeros64(cand)
				if s.must[u]&^have == 0 && (s.proves[0]&(1<<uint(u)) != 0 || s.freedWord(u, have) >= a) {
					return u
				}
			}
			return -1
		}
	}
	return -1
}

// canceled reports whether the context's done channel has fired.
func canceled(done <-chan struct{}) bool {
	if done == nil {
		return false
	}
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// Optimal runs the DP with no budget, no timeout, and no state cap,
// returning the guaranteed-optimal schedule. Intended for small graphs and
// tests; production callers budget the run with Cap (ScheduleCtx at its Tau
// returns the same order).
func Optimal(m *sched.MemModel) *Result {
	return Schedule(m, Options{})
}
