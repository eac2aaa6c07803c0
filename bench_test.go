// Micro-benchmarks of the scheduler's layers: the DP core per evaluation
// cell, adaptive vs unbudgeted search, schedule sampling, the segment pool and
// the segment memo. The benchmarks that regenerate the paper's figures and
// tables sit beside the package that measures them (internal/bench, which is
// built on Schedule and so cannot be imported from here). Run everything with:
//
//	go test -bench=. -benchmem ./...
package serenity

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/serenity-ml/serenity/internal/alloc"
	"github.com/serenity-ml/serenity/internal/dp"
	"github.com/serenity-ml/serenity/internal/models"
	"github.com/serenity-ml/serenity/internal/partition"
	"github.com/serenity-ml/serenity/internal/rewrite"
	"github.com/serenity-ml/serenity/internal/sched"
)

// BenchmarkDPSchedulerMicro isolates the core DP scheduler on each of the
// nine evaluation cells, as built and after identity graph rewriting
// (ablation support; not a paper figure): one dp.AdaptiveSchedule per
// partition segment — the one soft-budget probe serenityd runs for a cold
// segment — reporting allocations and DP states per op. The rewritten
// SwiftNet cells show the probe's price: their greedy peak sits furthest
// above µ*, so the budget prunes least there.
func BenchmarkDPSchedulerMicro(b *testing.B) {
	for _, cell := range models.BenchmarkCells() {
		for _, rewritten := range []bool{false, true} {
			name := cell.Network + "/" + cell.Dataset + "/" + cell.Cell
			if rewritten {
				name += "/rewritten"
			}
			b.Run(name, func(b *testing.B) {
				g := cell.Build()
				if rewritten {
					var err error
					if g, _, err = rewrite.RewriteAll(g, rewrite.DefaultRules(), 0); err != nil {
						b.Fatal(err)
					}
				}
				part, err := partition.Split(g)
				if err != nil {
					b.Fatal(err)
				}
				segs := make([]*sched.MemModel, len(part.Segments))
				for i, seg := range part.Segments {
					segs[i] = sched.NewMemModel(seg.G)
				}
				var states int64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					states = 0
					for j, m := range segs {
						ar, err := dp.AdaptiveSchedule(m, dp.AdaptiveOptions{MaxStates: 1 << 20})
						if err != nil || ar.Flag != dp.FlagSolution {
							b.Fatalf("segment %d: %v, %v", j, ar.Flag, err)
						}
						states += ar.StatesExplored
					}
				}
				b.ReportMetric(float64(states), "states/op")
			})
		}
	}
}

// BenchmarkAdaptiveVsUnbudgeted quantifies the state-space pruning of
// adaptive soft budgeting (Figure 8(b)'s mechanism) on SwiftNet Cell A. The
// one probe at min(Kahn, greedy) explores fewer states than the unbudgeted
// run (9 914 against 11 495); the bottom-up budget ladder it replaced
// explored 23 295, twice the unbudgeted run, in rungs that mostly failed.
func BenchmarkAdaptiveVsUnbudgeted(b *testing.B) {
	g := models.SwiftNetCellA()
	m := sched.NewMemModel(g)
	var plain, adaptive int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := dp.Optimal(m)
		ar, err := dp.AdaptiveSchedule(m, dp.AdaptiveOptions{StepTimeout: time.Second})
		if err != nil {
			b.Fatal(err)
		}
		if pr.Peak != ar.Peak {
			b.Fatalf("adaptive peak %d != exact %d", ar.Peak, pr.Peak)
		}
		plain, adaptive = pr.StatesExplored, ar.StatesExplored
	}
	b.ReportMetric(float64(plain), "states-unbudgeted")
	b.ReportMetric(float64(adaptive), "states-adaptive")
}

// BenchmarkRandomScheduleSampling measures the Figure 3(b) sampling engine.
func BenchmarkRandomScheduleSampling(b *testing.B) {
	g := models.SwiftNetCellA()
	m := sched.NewMemModel(g)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		order := sched.RandomTopo(g, rng)
		if _, err := m.Peak(order); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduleParallelism measures the wall-clock effect of fanning the
// per-segment DP over the worker pool (Options.Parallelism) on a stacked
// multi-segment graph; results are bit-identical across sub-benchmarks, only
// the elapsed time changes. Compare:
//
//	go test -bench BenchmarkScheduleParallelism -benchtime 3x
//
// Speedup requires GOMAXPROCS > 1; on a single core the pool degrades to
// roughly sequential cost.
func BenchmarkScheduleParallelism(b *testing.B) {
	benchScheduleAt(b, models.StackedRandWire("bench-par", 6, models.WSConfig{
		Nodes: 40, K: 6, P: 0.9, Seed: 5, HW: 16, Channel: 8,
	}), 1, 4, 8)
}

// BenchmarkDPIntraLevelParallel is the same comparison on the shape the
// segment pool cannot help with: SwiftNet Cell A, which rewrites into one
// 33-node segment. A search is single-threaded, so the sub-benchmarks must
// agree on time and allocations as well as on the peak; a per-search fan-out
// would have these numbers to beat (the sharded level expansion this replaced
// ran 1.5-2x slower at parallelism 2).
func BenchmarkDPIntraLevelParallel(b *testing.B) {
	benchScheduleAt(b, models.SwiftNetCellA(), 1, 4)
}

// benchScheduleAt times Schedule on g under the default pipeline at each
// Options.Parallelism, asserting every run finds the same peak. The step
// timeout is far above what any level needs, so the valve never fires.
func benchScheduleAt(b *testing.B, g *Graph, parallelism ...int) {
	var wantPeak int64
	for _, p := range parallelism {
		b.Run(fmt.Sprintf("parallelism=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			opts := DefaultOptions()
			opts.StepTimeout = time.Minute
			opts.Parallelism = p
			for i := 0; i < b.N; i++ {
				res, err := Schedule(g, opts)
				if err != nil {
					b.Fatal(err)
				}
				if wantPeak == 0 {
					wantPeak = res.Peak
				} else if res.Peak != wantPeak {
					b.Fatalf("peak %d diverged from %d", res.Peak, wantPeak)
				}
			}
		})
	}
}

// BenchmarkSegmentMemo measures the cross-request segment memo on the
// repeated-cell shape it exists for: a stack of six structurally identical
// WS cells (five of which share one segment fingerprint). "cold" compiles
// with no memo at all — every segment pays its own DP. "warm" compiles
// against a memo pre-populated by one untimed run, so every segment is a
// hit and the pipeline spends its time on rewrite/partition/alloc only.
// Compare ns/op:
//
//	go test -bench BenchmarkSegmentMemo -benchtime 3x
//
// The warm path is expected to be orders of magnitude faster (≥5x is the
// acceptance floor; in practice the DP dominates so thoroughly that the
// ratio is in the hundreds). Results are bit-identical either way, asserted
// against the cold peak.
func BenchmarkSegmentMemo(b *testing.B) {
	g := models.StackedUniformRandWire("bench-memo", 6, models.WSConfig{
		Nodes: 40, K: 6, P: 0.9, Seed: 5, HW: 16, Channel: 8,
	})
	opts := DefaultOptions()
	opts.StepTimeout = time.Minute
	run := func(b *testing.B, memo *SegmentMemo) *Result {
		b.Helper()
		p, err := NewPipeline(opts)
		if err != nil {
			b.Fatal(err)
		}
		p.SegmentMemo = memo
		res, err := p.Run(context.Background(), g)
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	var wantPeak int64
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res := run(b, nil)
			if wantPeak == 0 {
				wantPeak = res.Peak
			} else if res.Peak != wantPeak {
				b.Fatalf("peak %d diverged from %d", res.Peak, wantPeak)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		memo := NewSegmentMemo(1024)
		pre := run(b, memo) // populate, untimed
		if wantPeak != 0 && pre.Peak != wantPeak {
			b.Fatalf("memo-populating peak %d diverged from cold %d", pre.Peak, wantPeak)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := run(b, memo)
			if res.SegmentMemoHits != len(res.SegmentQuality) {
				b.Fatalf("warm run hit %d of %d segments", res.SegmentMemoHits, len(res.SegmentQuality))
			}
			if res.Peak != pre.Peak {
				b.Fatalf("warm peak %d diverged from %d", res.Peak, pre.Peak)
			}
		}
	})
}

func ln(x float64) float64  { return math.Log(x) }
func exp(x float64) float64 { return math.Exp(x) }

// BenchmarkWarmLayers times each layer a memo-warm Run pays for besides the
// memo lookup itself, on the graph TestWarmRunAllocationCeiling pins (six
// stacked WS(24) cells, 247 nodes in 18 segments; the default rewrite finds
// nothing to fire on): the rewrite, the partitioner, the memory model, Kahn's
// baseline peak, the segment fingerprints and the arena plan, then the whole
// warm Run.
func BenchmarkWarmLayers(b *testing.B) {
	g := models.StackedRandWire("warm-stack", 6, models.WSConfig{Nodes: 24, K: 4, P: 0.75, Seed: 3, HW: 16, Channel: 8})
	work, _, err := rewrite.RewriteAll(g, rewrite.DefaultRules(), 0)
	if err != nil {
		b.Fatal(err)
	}
	part, err := partition.Split(work)
	if err != nil {
		b.Fatal(err)
	}
	m := sched.NewMemModel(work)
	order, err := sched.KahnFIFO(work)
	if err != nil {
		b.Fatal(err)
	}
	layer := func(name string, f func() error) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := f(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	layer("rewrite", func() error { _, _, err := rewrite.RewriteAll(g, rewrite.DefaultRules(), 0); return err })
	layer("partition", func() error { _, err := partition.Split(work); return err })
	layer("memmodel", func() error { sched.NewMemModel(work); return nil })
	layer("baseline", func() error { _, _, err := sched.BaselinePeak(sched.NewMemModel(work)); return err })
	layer("fingerprints", func() error {
		for _, seg := range part.Segments {
			seg.Fingerprint()
		}
		return nil
	})
	layer("alloc", func() error { _, err := alloc.Plan(m, order); return err })

	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	p.SegmentMemo = NewSegmentMemo(64)
	ctx := context.Background()
	if _, err := p.Run(ctx, g); err != nil {
		b.Fatal(err)
	}
	layer("run", func() error { _, err := p.Run(ctx, g); return err })
}
