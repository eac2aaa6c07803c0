package dp

// The working-set pool's contracts: a search on a recycled working set —
// whatever ran on it before, however that run ended — returns exactly what a
// search on a fresh one does; a steady stream of partitioned-segment
// searches allocates only Results and Orders; and what the pool retains
// stays under its stated byte bound.

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"github.com/serenity-ml/serenity/internal/graph"
	"github.com/serenity-ml/serenity/internal/models"
	"github.com/serenity-ml/serenity/internal/sched"
)

// freshRun runs the search on a working set that never saw the pool.
func freshRun(ctx context.Context, m *sched.MemModel, opts Options) *Result {
	s := new(search)
	s.prepare(m)
	return s.run(ctx, opts)
}

// sameResult fails unless got equals want in every field but Elapsed.
func sameResult(t *testing.T, name string, want, got *Result) {
	t.Helper()
	w, g := *want, *got
	w.Elapsed, g.Elapsed = 0, 0
	if !reflect.DeepEqual(w, g) {
		t.Fatalf("%s: recycled run %+v\nfresh run %+v", name, g, w)
	}
}

// cancelOnGrow is a context the search cancels itself mid-level: MemGrow
// closes its Done channel and raises the ceiling, so the search carries on
// until its next 64-transition poll and stops there — a deterministic
// mid-search cancellation that leaves a half-built level behind.
type cancelOnGrow struct {
	context.Context
	done chan struct{}
	once sync.Once
}

func newCancelOnGrow() *cancelOnGrow {
	return &cancelOnGrow{Context: context.Background(), done: make(chan struct{})}
}

func (c *cancelOnGrow) Done() <-chan struct{} { return c.done }

func (c *cancelOnGrow) grow(needed int64) int64 {
	c.once.Do(func() { close(c.done) })
	return 1 << 62
}

// recycleCases is a sequence that leaves every kind of residue in the
// working set for the next search: small after large, one word after
// several, a MaxStates abort, a pre-canceled and a mid-level-canceled run.
func recycleCases() []struct {
	name string
	m    *sched.MemModel
	opts func() (context.Context, Options)
} {
	plain := func(opts Options) func() (context.Context, Options) {
		return func() (context.Context, Options) { return context.Background(), opts }
	}
	stack := func(cells, nodes int, seed int64) *sched.MemModel {
		return sched.NewMemModel(models.StackedRandWire("recycle", cells, models.WSConfig{
			Nodes: nodes, K: 4, P: 0.75, Seed: seed, HW: 4, Channel: 4,
		}))
	}
	rng := rand.New(rand.NewSource(3))
	small := sched.NewMemModel(graph.RandomDAG(rng, graph.RandomDAGConfig{Nodes: 9, EdgeProb: 0.3, MaxFanIn: 2}))
	mixed := sched.NewMemModel(graph.RandomDAG(rng, graph.RandomDAGConfig{Nodes: 30, EdgeProb: 0.08, MaxFanIn: 2}))
	oneWord := stack(2, 18, 14) // 64 nodes
	wide := stack(3, 25, 7)     // 129 nodes
	swift := sched.NewMemModel(models.SwiftNetCellC())
	return []struct {
		name string
		m    *sched.MemModel
		opts func() (context.Context, Options)
	}{
		{"small", small, plain(Options{})},
		{"wide", wide, plain(Options{})},
		{"small-after-wide", small, plain(Options{})},
		{"one-word", oneWord, plain(Options{})},
		{"maxstates-abort", mixed, plain(Options{MaxStates: 40})},
		{"mixed-after-abort", mixed, plain(Options{})},
		{"pre-canceled", swift, func() (context.Context, Options) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			return ctx, Options{}
		}},
		{"canceled-mid-level", mixed, func() (context.Context, Options) {
			c := newCancelOnGrow()
			return c, Options{MemLimit: 4096, MemGrow: c.grow}
		}},
		{"swift-after-cancel", swift, plain(Options{})},
		{"wide-budgeted", wide, plain(Options{Budget: 1 << 40})},
		{"one-word-after-wide", oneWord, plain(Options{})},
		{"small-last", small, plain(Options{})},
	}
}

// TestRecycledSearchMatchesFresh runs the sequence back to back through
// ScheduleCtx, so each search inherits its predecessor's working set, and
// holds each Result to a fresh working set's. Orders handed out earlier must
// survive every later search: they never alias recycled memory.
func TestRecycledSearchMatchesFresh(t *testing.T) {
	cases := recycleCases()
	var kept []sched.Schedule
	var keptCopy []sched.Schedule
	for round := 0; round < 2; round++ {
		for _, tc := range cases {
			ctx, opts := tc.opts()
			got := ScheduleCtx(ctx, tc.m, opts)
			ctx, opts = tc.opts()
			sameResult(t, tc.name, freshRun(ctx, tc.m, opts), got)
			if tc.name == "canceled-mid-level" && (got.Flag != FlagCanceled || got.StatesExplored == 0) {
				t.Fatalf("%s: flag %v after %d states, want a mid-search cancel", tc.name, got.Flag, got.StatesExplored)
			}
			if got.Order != nil {
				kept = append(kept, got.Order)
				keptCopy = append(keptCopy, slices.Clone(got.Order))
			}
		}
	}
	for i := range kept {
		if !slices.Equal(kept[i], keptCopy[i]) {
			t.Fatalf("order %d changed after later searches", i)
		}
	}
}

// TestRecycledSearchConcurrent runs two goroutines through the pool at once
// (meaningful under -race): each search must still match its fresh twin.
func TestRecycledSearchConcurrent(t *testing.T) {
	cases := recycleCases()
	want := make([]*Result, len(cases))
	for i, tc := range cases {
		ctx, opts := tc.opts()
		want[i] = freshRun(ctx, tc.m, opts)
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range 2 * len(cases) {
				i := (k + w*len(cases)/2) % len(cases)
				ctx, opts := cases[i].opts()
				sameResult(t, cases[i].name, want[i], ScheduleCtx(ctx, cases[i].m, opts))
			}
		}(w)
	}
	wg.Wait()
}

// TestRecycledSearchAllocs pins the steady state: a repeated search over a
// segment of at most 64 nodes allocates its Result and its Order and
// nothing else (the bound leaves room for the runtime, not for the search).
func TestRecycledSearchAllocs(t *testing.T) {
	m := sched.NewMemModel(models.SwiftNetCellC())
	if n := m.G.NumNodes(); n > 64 {
		t.Fatalf("SwiftNet C has %d nodes; this bound is for one-word segments", n)
	}
	Optimal(m) // fill the pool
	allocs := testing.AllocsPerRun(20, func() {
		if r := Optimal(m); r.Flag != FlagSolution {
			t.Fatal("DP failed")
		}
	})
	if allocs > 8 {
		t.Fatalf("a recycled one-word search allocated %.0f times, budget is 8", allocs)
	}
}

// retainedBytes is the heap a working set holds between searches.
func (s *search) retainedBytes() int {
	size := func(c int, elem uintptr) int { return c * int(elem) }
	b := size(cap(s.tbl.slots), 4) +
		size(cap(s.histOff), 8) + size(cap(s.relOff), 4) + size(cap(s.relSize), 8) +
		size(cap(s.classAlloc), 8)
	for _, chunk := range s.hist[:cap(s.hist)] {
		b += size(cap(chunk), unsafe.Sizeof(pv{}))
	}
	for _, l := range s.lv {
		b += size(cap(l.states), unsafe.Sizeof(stNode{})) + size(cap(l.slab), 8)
	}
	for _, words := range [][]uint64{s.pred, s.succ, s.must, s.proves, s.relMask, s.classes} {
		b += size(cap(words), 8)
	}
	return b
}

// TestWorkspaceRetentionBound runs searches far over every cap and checks
// that what the pool keeps afterwards stays within workspaceBytes, which
// itself stays under 1 MiB.
func TestWorkspaceRetentionBound(t *testing.T) {
	if unsafe.Sizeof(stNode{}) != 32 || unsafe.Sizeof(pv{}) != 8 {
		t.Fatalf("state %d B, pair %d B: workspaceBytes assumes 32 and 8",
			unsafe.Sizeof(stNode{}), unsafe.Sizeof(pv{}))
	}
	if workspaceBytes > 1<<20 {
		t.Fatalf("workspaceBytes = %d, over 1 MiB", workspaceBytes)
	}
	big := sched.NewMemModel(models.StackedRandWire("big", 16, models.WSConfig{
		Nodes: 32, K: 4, P: 0.75, Seed: 5, HW: 4, Channel: 4,
	}))
	if n := big.G.NumNodes(); n*((n+63)/64) <= retainNodeWords {
		t.Fatalf("%d nodes fit the per-node tables' cap", n)
	}
	wideFrontier := sched.NewMemModel(graph.RandomDAG(rand.New(rand.NewSource(3)),
		graph.RandomDAGConfig{Nodes: 30, EdgeProb: 0.08, MaxFanIn: 2}))
	var wg sync.WaitGroup
	for _, m := range []*sched.MemModel{big, wideFrontier} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r := ScheduleCtx(context.Background(), m, Options{}); m == wideFrontier && r.MaxFrontier <= retainStates {
				t.Errorf("frontier %d fits the level buffers' cap", r.MaxFrontier)
			}
		}()
	}
	wg.Wait()
	for range retainedWorkspaces {
		select {
		case s := <-workspaces:
			defer func() { workspaces <- s }()
			if b := s.retainedBytes(); b > workspaceBytes {
				t.Errorf("a retained working set holds %d bytes, bound %d", b, workspaceBytes)
			}
		default:
		}
	}
}
