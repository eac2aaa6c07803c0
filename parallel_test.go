package serenity

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/serenity-ml/serenity/internal/models"
)

// TestParallelMatchesSequential asserts the tentpole determinism claim: on
// the paper's full model suite, fanning the per-segment DP over a worker
// pool produces exactly the sequential result — same Order, Peak, ArenaSize,
// Offsets, and even StatesExplored.
func TestParallelMatchesSequential(t *testing.T) {
	cells := models.BenchmarkCells()
	if testing.Short() {
		cells = cells[:4]
	}
	for _, cell := range cells {
		cell := cell
		t.Run(cell.Network+"/"+cell.Cell, func(t *testing.T) {
			t.Parallel()
			opts := DefaultOptions()
			// Large enough that no DP step ever trips the valve (which would
			// fail the search), even under the race detector.
			opts.StepTimeout = time.Minute
			seq, err := Schedule(cell.Build(), opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{2, 8} {
				popts := opts
				popts.Parallelism = p
				par, err := ScheduleContext(context.Background(), cell.Build(), popts)
				if err != nil {
					t.Fatalf("parallelism %d: %v", p, err)
				}
				if !reflect.DeepEqual(par.Order, seq.Order) {
					t.Errorf("parallelism %d: order diverged\nseq: %v\npar: %v", p, seq.Order, par.Order)
				}
				if par.Peak != seq.Peak || par.ArenaSize != seq.ArenaSize {
					t.Errorf("parallelism %d: peak/arena %d/%d, want %d/%d",
						p, par.Peak, par.ArenaSize, seq.Peak, seq.ArenaSize)
				}
				if !reflect.DeepEqual(par.Offsets, seq.Offsets) {
					t.Errorf("parallelism %d: arena offsets diverged", p)
				}
				if par.StatesExplored != seq.StatesExplored {
					t.Errorf("parallelism %d: states %d, want %d", p, par.StatesExplored, seq.StatesExplored)
				}
				if !reflect.DeepEqual(par.PartitionSizes, seq.PartitionSizes) {
					t.Errorf("parallelism %d: partitions %v, want %v", p, par.PartitionSizes, seq.PartitionSizes)
				}
			}
		})
	}
}

// TestParallelismReachesNothingInsideASearch pins that the Parallelism budget
// only fans out independent units: on a cell that rewrites into a single
// segment, with cores to spare, Parallelism 8 returns the same Result field
// for field as Parallelism 1 and allocates the same (a search that forked
// workers of its own would allocate their working sets). testing.AllocsPerRun
// pins GOMAXPROCS to 1, where no fan-out could engage, so the mallocs are
// counted here, over runs that alternate the two settings; the minimum drops
// what other goroutines allocated meanwhile and the sync.Pool misses of a
// goroutine that moved between Ps mid-run (an object Put in one P's private
// slot is invisible to a Get on another), which under load can recur for
// several runs in a row. The counts agree to within 1, except under the race
// detector, where sync.Pool drops a quarter of its Puts at random and fmt's
// pooled buffers make every run wobble by a handful (a forked search adds
// hundreds).
func TestParallelismReachesNothingInsideASearch(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	slack, runs := int64(1), 15
	if bi, ok := debug.ReadBuildInfo(); ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"}) {
		slack, runs = 16, 5
	}
	run := func(parallelism int) (*Result, uint64) {
		opts := DefaultOptions()
		opts.StepTimeout = time.Minute
		opts.Parallelism = parallelism
		g := SwiftNetCellA()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		res, err := Schedule(g, opts)
		runtime.ReadMemStats(&ms)
		if err != nil {
			t.Fatalf("parallelism %d: %v", parallelism, err)
		}
		res.Stages, res.SchedulingTime = StageTimings{}, 0
		return res, ms.Mallocs - before
	}
	var seq, par *Result
	seqMallocs, parMallocs := ^uint64(0), ^uint64(0)
	for i := 0; i < runs; i++ {
		r, n := run(1)
		seq, seqMallocs = r, min(seqMallocs, n)
		r, n = run(8)
		par, parMallocs = r, min(parMallocs, n)
	}
	if len(seq.PartitionSizes) != 1 {
		t.Fatalf("SwiftNet A split into %v; the test needs a single segment", seq.PartitionSizes)
	}
	if !reflect.DeepEqual(par, seq) {
		t.Errorf("Parallelism 8 result differs from Parallelism 1:\n%+v\n%+v", par, seq)
	}
	if d := int64(parMallocs) - int64(seqMallocs); d < -slack || d > slack {
		t.Errorf("Parallelism 8 made %d allocations per Schedule, Parallelism 1 %d", parMallocs, seqMallocs)
	}
}

// TestParallelismOversubscription exercises worker counts beyond the segment
// count and degenerate values.
func TestParallelismOversubscription(t *testing.T) {
	build := func() *Graph {
		return models.StackedRandWire("oversub", 6, models.WSConfig{
			Nodes: 14, K: 4, P: 0.75, Seed: 21, HW: 8, Channel: 4,
		})
	}
	opts := DefaultOptions()
	seq, err := Schedule(build(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.PartitionSizes) < 4 {
		t.Fatalf("test graph split into %v; need several segments", seq.PartitionSizes)
	}
	for _, p := range []int{0, 1, 64} {
		opts.Parallelism = p
		res, err := Schedule(build(), opts)
		if err != nil {
			t.Fatalf("parallelism %d: %v", p, err)
		}
		if res.Peak != seq.Peak || !reflect.DeepEqual(res.Order, seq.Order) {
			t.Errorf("parallelism %d: result diverged", p)
		}
	}
}

// TestSplitParallelism pins the one budget splitter behind the two-level
// fan-out (batch item workers × each item's segment pool): the two levels
// never multiply past the GOMAXPROCS-clamped budget, never exceed the unit
// count, and never reach zero.
func TestSplitParallelism(t *testing.T) {
	mp := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ budget, units int }{
		{0, 1}, {1, 1}, {1, 8}, {2, 2}, {4, 2}, {4, 8}, {3, 7},
		{64, 1}, {64, 8}, {mp, mp}, {4 * mp, 16}, {4 * mp, 1},
		{-3, 4}, {8, 0},
	} {
		workers, per := SplitParallelism(tc.budget, tc.units)
		budget := max(1, min(tc.budget, mp))
		if workers < 1 || per < 1 {
			t.Errorf("SplitParallelism(%d, %d) = %d, %d; both must be >= 1", tc.budget, tc.units, workers, per)
		}
		if workers > max(1, tc.units) {
			t.Errorf("SplitParallelism(%d, %d) = %d workers for %d units", tc.budget, tc.units, workers, tc.units)
		}
		if workers*per > budget {
			t.Errorf("SplitParallelism(%d, %d) = %d×%d = %d goroutines, budget %d: oversubscribed",
				tc.budget, tc.units, workers, per, workers*per, budget)
		}
		if want := min(budget, max(1, tc.units)); workers != want {
			t.Errorf("SplitParallelism(%d, %d) = %d workers, want min(budget, units) = %d", tc.budget, tc.units, workers, want)
		}
	}
}

func TestScheduleContextPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ScheduleContext(ctx, SwiftNetCellA(), DefaultOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestScheduleContextCancelMidSearch verifies cancellation reaches down into
// the DP search loop: a hookSearcher cancels the context just before each
// search starts (the hook is synchronous, so the search begins with the
// context already done), and the unbudgeted exact DP — which would
// otherwise run ~1.3s on this cell — must return promptly with the context's
// error. The hook replaces the 50ms wall-clock deadline this test used to
// race against the DP, which flaked under CPU contention.
func TestScheduleContextCancelMidSearch(t *testing.T) {
	g := models.StackedRandWire("cancel", 2, models.WSConfig{
		Nodes: 44, K: 4, P: 0.75, Seed: 9, HW: 16, Channel: 8,
	})
	p, err := NewPipeline(Options{}) // exact DP, no budget pruning
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p.Searcher = hookSearcher{p.Searcher, cancel}
	start := time.Now()
	_, err = p.Run(ctx, g)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancellation took %s; search loop is not polling the context", elapsed)
	}
}

// TestScheduleContextCancelMidSearchParallel does the same through the
// worker pool: every worker starts its segment's DP under an already-done
// context and must abort rather than complete its ~1.5s search.
func TestScheduleContextCancelMidSearchParallel(t *testing.T) {
	g := models.StackedRandWire("cancel-par", 4, models.WSConfig{
		Nodes: 48, K: 8, P: 0.9, Seed: 10, HW: 16, Channel: 8,
	})
	p, err := NewPipeline(Options{Partition: true, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	p.Searcher = hookSearcher{p.Searcher, cancel}
	start := time.Now()
	_, err = p.Run(ctx, g)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("parallel cancellation took %s", elapsed)
	}
}

// TestParallelErrorPropagation asserts that a genuine per-segment failure —
// not the induced cancellation of its siblings — is what surfaces from the
// worker pool. The reported segment index may differ from the sequential
// path's (siblings are canceled on first failure), but the cause must be the
// real DP outcome and never a bare context.Canceled.
func TestParallelErrorPropagation(t *testing.T) {
	g := SwiftNet()
	opts := Options{Partition: true, AdaptiveBudget: false, MaxStates: 1}
	_, seqErr := Schedule(g, opts)
	if seqErr == nil {
		t.Fatal("MaxStates=1 unexpectedly solvable; test needs a harder setup")
	}
	if !strings.Contains(seqErr.Error(), "segment 0") {
		t.Errorf("sequential path reports %q, want the first segment", seqErr)
	}
	for i := 0; i < 5; i++ {
		opts.Parallelism = 4
		_, parErr := Schedule(SwiftNet(), opts)
		if parErr == nil {
			t.Fatal("parallel run unexpectedly succeeded")
		}
		if errors.Is(parErr, context.Canceled) {
			t.Fatalf("induced sibling cancellation leaked to the caller: %v", parErr)
		}
		if !strings.Contains(parErr.Error(), "exact search ended with timeout") {
			t.Fatalf("parallel error %q lost the underlying DP outcome", parErr)
		}
	}
}

// TestSearchSegments drives the one segment loop with a stub searchOne, on
// the caller's goroutine alone (parallelism 1) and with one helper to start
// (parallelism 2). The stub's workers argument is the parallelism under
// test; a segment that waits on another must first call fanOut, as a search
// or a peer fetch does.
func TestSearchSegments(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const n = 5
	errBoom := errors.New("boom")
	answer := func(i int) (SearchResult, error) { return SearchResult{Order: Order{i}}, nil }
	type search func(ctx context.Context, i int, cancel context.CancelFunc, workers int, fanOut func()) (SearchResult, error)
	for _, tc := range []struct {
		name    string
		expired bool // the caller's deadline has passed before the loop starts
		search  search
		want    error  // nil: every segment answered
		wantMsg string // the whole error message
		last    int    // the caller-only loop searches segments 0..last and no more
	}{
		{
			name: "past deadline, every segment answered", expired: true,
			search: func(_ context.Context, i int, _ context.CancelFunc, _ int, _ func()) (SearchResult, error) {
				return answer(i)
			},
			last: n - 1,
		},
		{
			name: "failure at k",
			search: func(_ context.Context, i int, _ context.CancelFunc, _ int, _ func()) (SearchResult, error) {
				if i == 2 {
					return SearchResult{}, errBoom
				}
				return answer(i)
			},
			want: errBoom, wantMsg: "segment 2: boom", last: 2,
		},
		{
			name: "caller cancellation outranks a segment error",
			search: func(_ context.Context, i int, cancel context.CancelFunc, _ int, _ func()) (SearchResult, error) {
				if i == 1 {
					cancel()
					return SearchResult{}, errBoom
				}
				return answer(i)
			},
			want: context.Canceled, wantMsg: context.Canceled.Error(), last: 1,
		},
		{
			name: "induced cancellation never hides the real failure",
			search: func(ctx context.Context, i int, _ context.CancelFunc, workers int, fanOut func()) (SearchResult, error) {
				switch {
				case i == 0 && workers > 1:
					fanOut()     // a helper claims segment 1
					<-ctx.Done() // held until segment 1's failure cancels its siblings
					return SearchResult{}, ctx.Err()
				case i == 1:
					return SearchResult{}, errBoom
				}
				return answer(i)
			},
			want: errBoom, wantMsg: "segment 1: boom", last: 1,
		},
		{
			name: "a waiting segment starts the helper that unblocks it",
			search: func(ctx context.Context, i int, _ context.CancelFunc, workers int, fanOut func()) (SearchResult, error) {
				if i == 0 && workers > 1 {
					fanOut()
					fanOut() // only the first call starts anything
					<-ctx.Value(unblockKey{}).(chan struct{})
				}
				if i == n-1 && workers > 1 {
					close(ctx.Value(unblockKey{}).(chan struct{}))
				}
				return answer(i)
			},
			last: n - 1,
		},
	} {
		for _, workers := range []int{1, 2} {
			ctx, cancel := context.WithCancel(context.Background())
			if tc.expired {
				ctx, cancel = context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
			}
			ctx = context.WithValue(ctx, unblockKey{}, make(chan struct{}))
			var searched [n]atomic.Bool
			helpers := helpersStarted.Load()
			results, err := searchSegments(ctx, n, workers, func(ctx context.Context, i int, fanOut func()) (SearchResult, error) {
				searched[i].Store(true)
				return tc.search(ctx, i, cancel, workers, fanOut)
			})
			cancel()
			if started := helpersStarted.Load() - helpers; started > int64(workers-1) {
				t.Errorf("%s, parallelism %d: %d helpers started, want at most %d", tc.name, workers, started, workers-1)
			}
			if tc.want == nil {
				if err != nil {
					t.Fatalf("%s, parallelism %d: %v", tc.name, workers, err)
				}
				for i, sr := range results {
					if !slices.Equal(sr.Order, Order{i}) {
						t.Errorf("%s, parallelism %d: segment %d answered %v", tc.name, workers, i, sr.Order)
					}
				}
				continue
			}
			if !errors.Is(err, tc.want) || err.Error() != tc.wantMsg {
				t.Errorf("%s, parallelism %d: err = %v, want %q", tc.name, workers, err, tc.wantMsg)
			}
			if workers > 1 {
				continue
			}
			for i := range searched {
				if got := searched[i].Load(); got != (i <= tc.last) {
					t.Errorf("%s, caller only: segment %d searched = %t, want %t", tc.name, i, got, i <= tc.last)
				}
			}
		}
	}
}

type unblockKey struct{}

// TestHitsStartNoHelper: a compilation every segment of which memory or disk
// answers runs on the caller's goroutine, at any parallelism; one that
// searches starts its helper at the first search, once.
func TestHitsStartNoHelper(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	g := models.StackedRandWire("helpers", 4, models.WSConfig{Nodes: 16, K: 4, P: 0.75, Seed: 7, HW: 8, Channel: 4})
	opts := DefaultOptions()
	opts.Parallelism = 2
	p, err := NewPipeline(opts)
	if err != nil {
		t.Fatal(err)
	}
	p.SegmentMemo = NewSegmentMemo(64)
	if p.Store, err = OpenScheduleStore(t.TempDir(), 0); err != nil {
		t.Fatal(err)
	}
	defer p.Store.Close()
	run := func(what string, wantHelpers int64, answered func(*Result) bool) {
		t.Helper()
		before := helpersStarted.Load()
		res, err := p.Run(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if !answered(res) {
			t.Fatalf("%s: %d of %d segments hit (%d on disk)", what, res.SegmentMemoHits, len(res.PartitionSizes), res.SegmentMemoDiskHits)
		}
		if started := helpersStarted.Load() - before; started != wantHelpers {
			t.Errorf("%s: %d helpers started, want %d", what, started, wantHelpers)
		}
	}
	segments := func(r *Result) int { return len(r.PartitionSizes) }
	run("cold", 1, func(r *Result) bool { return r.FreshStatesExplored > 0 })
	run("memory hits", 0, func(r *Result) bool { return r.SegmentMemoHits == segments(r) && r.SegmentMemoDiskHits == 0 })
	p.SegmentMemo = NewSegmentMemo(64)
	run("disk hits", 0, func(r *Result) bool { return r.SegmentMemoDiskHits > 0 && r.SegmentMemoHits == segments(r) })
}
