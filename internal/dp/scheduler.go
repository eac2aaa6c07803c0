// Package dp implements SERENITY's dynamic-programming scheduler
// (Algorithm 1) and the adaptive soft budgeting meta-search (Algorithm 2).
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
// The frontier is allocation-free on its hot path: states are keyed by an
// incrementally maintained 64-bit Zobrist hash (MemModel.Zobrist), indexed
// by an open-addressed table probed *before* any child state is
// materialized, and backed by per-level slab arenas — see frontier.go.
// Duplicate transitions (the bulk of a dense level) cost zero allocations;
// only genuinely new signatures write to the slab. Completed levels are
// compacted down to the (parent, via) pairs schedule reconstruction needs.
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

	"github.com/serenity-ml/serenity/internal/graph"
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
	StatesForced   int64          // states expanded through a safe move alone (expandSequential)
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

// expandOutcome is one level expansion's verdict.
type expandOutcome int

const (
	expandOK          expandOutcome = iota
	expandCanceled                  // ctx fired mid-level
	expandTimeout                   // StepTimeout or MaxStates fired mid-level
	expandMemPressure               // MemLimit crossed and MemGrow denied
)

// search carries the working set of one DP run: the current and
// under-construction levels (ping-ponged so slabs and state slices are
// recycled every level), the frontier index, the reusable scratch view for
// footprint evaluation, and the compacted (parent, via) history.
type search struct {
	m    *sched.MemModel
	opts Options
	res  *Result
	n, w int // nodes; words per bitset

	cur, next *level
	tbl       ftable
	scratch   graph.Bitset
	pvs       [][]pv
	// mustHave[u·w:] is safeMove's precomputed filter: the nodes that have
	// to be scheduled before u can pass its test (ii) — the other consumers
	// of every operand root u must free to cover its output. A node whose
	// operand roots together are smaller than its output never passes, which
	// the mask says by naming u itself.
	mustHave []uint64

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
	return newSearch(m).run(ctx, opts)
}

// newSearch returns an empty working set for a DP run over m.
func newSearch(m *sched.MemModel) *search {
	n := m.G.NumNodes()
	w := (n + 63) / 64
	s := &search{
		m:          m,
		n:          n,
		w:          w,
		cur:        &level{},
		next:       &level{},
		pvs:        make([][]pv, n+1),
		mustHave:   make([]uint64, n*w),
		stateBytes: FrontierStateBytes(n),
	}
	for u, roots := range m.PredRoots {
		var operands int64
		for _, r := range roots {
			operands += m.RootSize[r]
		}
		if operands < m.Alloc[u] {
			s.mustHave[u*w+u>>6] |= 1 << uint(u&63)
			continue
		}
		for _, r := range roots {
			if operands-m.RootSize[r] >= m.Alloc[u] {
				continue // the other operands can cover u without r
			}
			for _, c := range m.Consumers[r] {
				if c != u {
					s.mustHave[u*w+c>>6] |= 1 << uint(c&63)
				}
			}
		}
	}
	return s
}

// run is the DP search under opts on the fresh working set s.
func (s *search) run(ctx context.Context, opts Options) *Result {
	start := time.Now()
	res := &Result{Flag: FlagNoSolution}
	defer func() { res.Elapsed = time.Since(start) }()

	g := s.m.G
	n := s.n
	if n == 0 {
		res.Flag = FlagSolution
		res.Order = sched.Schedule{}
		return res
	}

	s.opts, s.res, s.done, s.memLimit = opts, res, ctx.Done(), opts.MemLimit
	defer func() {
		res.PeakBytes = s.liveBytes()
		if memAuditHook != nil {
			inUse := 8*int64(len(s.cur.slab)+len(s.next.slab)) +
				32*int64(len(s.cur.states)+len(s.next.states))
			for _, p := range s.pvs {
				inUse += 8 * int64(len(p))
			}
			memAuditHook(res.PeakBytes, inUse)
		}
	}()

	// Level 0: empty schedule (s0=[], µ0=0, µpeak,0=0; M0[z0] per
	// Algorithm 1). hash(∅) = 0 by the Zobrist XOR construction.
	s.cur.states = append(s.cur.states, stNode{parent: -1, via: -1})
	s.cur.slab = append(s.cur.slab, make([]uint64, s.w)...)
	s.cur.slab = append(s.cur.slab, g.ZeroIndegree(graph.NewBitset(n)).Words()...)
	s.pvs[0] = append(s.pvs[0], pv{parent: -1, via: -1})
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

		switch s.expandSequential() {
		case expandCanceled:
			res.Flag = FlagCanceled
			return res
		case expandTimeout:
			res.Flag = FlagTimeout
			return res
		case expandMemPressure:
			res.Flag = FlagMemPressure
			return res
		}
		if opts.StepTimeout > 0 && time.Since(s.stepStart) > opts.StepTimeout {
			res.Flag = FlagTimeout
			return res
		}
		if len(s.next.states) == 0 {
			// Every transition exceeded the budget: τ < τ*.
			res.Flag = FlagNoSolution
			return res
		}
		if len(s.next.states) > res.MaxFrontier {
			res.MaxFrontier = len(s.next.states)
		}
		// The finished level's (parent, via) pairs are final; compact them
		// for reconstruction and retire the expanded level entirely — its
		// slab and state slice are recycled for level i+2.
		width := len(s.next.states)
		pairs := slices.Grow(s.pvs[i+1], width)
		for j := range s.next.states {
			pairs = append(pairs, pv{s.next.states[j].parent, s.next.states[j].via})
		}
		s.pvs[i+1] = pairs
		if int64(width) > s.hiNext {
			s.hiNext = int64(width)
		}
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
	final := s.cur.states[0]
	order := make(sched.Schedule, n)
	parent, via := final.parent, final.via
	lvl := n
	for via >= 0 {
		order[lvl-1] = int(via)
		lvl--
		e := s.pvs[lvl][parent]
		parent, via = e.parent, e.via
	}
	res.Flag = FlagSolution
	res.Order = order
	res.Peak = final.peak
	return res
}

// expandSequential runs one level of Algorithm 1's recursion in discovery
// order: for each parent state, for each ready node u (line 10) — or for its
// safe move alone, see safeMove — the child signature's hash is computed
// incrementally and probed before anything is allocated. Duplicates only
// compete on peak (lines 21-22); new signatures are appended to the slab.
// Mirrors the map-based reference loop transition for transition, so Result
// accounting is bit-identical.
func (s *search) expandSequential() expandOutcome {
	var (
		w      = s.w
		zob    = s.m.Zobrist
		alloc  = s.m.Alloc
		budget = s.opts.Budget
		next   = s.next
	)
	s.tbl.reset(len(s.cur.states))
	for si := range s.cur.states {
		st := &s.cur.states[si]
		psched := s.cur.sched(si, w)
		pready := s.cur.ready(si, w)
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
						return expandCanceled
					}
					if s.opts.StepTimeout > 0 && time.Since(s.stepStart) > s.opts.StepTimeout {
						return expandTimeout
					}
				}
				// Allocate u (lines 11-14).
				muHigh := st.mu + alloc[u]
				peak := st.peak
				if muHigh > peak {
					peak = muHigh
				}
				if budget > 0 && peak > budget {
					s.res.StatesPruned++
					continue
				}
				h := st.hash ^ zob[u]
				uw, ubit := u>>6, uint64(1)<<uint(u&63)
				s.tbl.grow(next)
				idx, slot := s.tbl.probe(h, next, w, psched, uw, ubit)
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
				next.appendChild(s.m, &s.scratch, psched, pready, si, u, w, h, muHigh, peak)
				s.tbl.place(slot, int32(len(next.states)-1))
				s.res.StatesExplored++
			}
		}
		if s.opts.MaxStates > 0 && len(next.states) > s.opts.MaxStates {
			return expandTimeout
		}
		if s.memOver(len(next.states)) {
			return expandMemPressure
		}
	}
	return expandOK
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
// segment, independent of τ. One pass over the ready set tracks the running
// minimum — (i) before (ii) — and computes the freed bytes only for a node
// that ties or lowers it and passes the mustHave filter (an AND per word), so
// graphs where tensor sizes differ and the rule rarely fires pay little.
func (s *search) safeMove(psched, pready []uint64) int {
	alloc, must, w := s.m.Alloc, s.mustHave, s.w
	safe, minAlloc := -1, int64(math.MaxInt64)
	for wi, word := range pready {
	ready:
		for ; word != 0; word &= word - 1 {
			u := wi<<6 + bits.TrailingZeros64(word)
			a := alloc[u]
			if a > minAlloc || (a == minAlloc && safe >= 0) {
				continue
			}
			if a < minAlloc {
				safe, minAlloc = -1, a
			}
			for i, have := range psched {
				if must[u*w+i]&^have != 0 {
					continue ready
				}
			}
			s.scratch.Attach(psched, s.n)
			if s.m.StepDealloc(&s.scratch, u) >= a {
				safe = u
			}
		}
	}
	return safe
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
// tests; production callers should use AdaptiveSchedule.
func Optimal(m *sched.MemModel) *Result {
	return Schedule(m, Options{})
}
