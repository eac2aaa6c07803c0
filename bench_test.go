// Benchmarks regenerating every measured table and figure of the paper.
// Run all of them with:
//
//	go test -bench=. -benchmem
//
// Each benchmark reports the figure's headline number as a custom metric so
// `go test -bench` output doubles as the reproduction record (see
// EXPERIMENTS.md for the paper-vs-measured comparison).
package serenity

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"github.com/serenity-ml/serenity/internal/bench"
	"github.com/serenity-ml/serenity/internal/dp"
	"github.com/serenity-ml/serenity/internal/models"
	"github.com/serenity-ml/serenity/internal/partition"
	"github.com/serenity-ml/serenity/internal/sched"
)

// BenchmarkTable1Specs regenerates Table 1 (network specifications).
func BenchmarkTable1Specs(b *testing.B) {
	var macs int64
	for i := 0; i < b.N; i++ {
		specs := models.Table1Specs()
		macs = 0
		for _, s := range specs {
			macs += s.MACs
		}
	}
	b.ReportMetric(float64(macs)/1e6, "total-MMACs")
}

// BenchmarkFig3bCDF regenerates Figure 3(b): the CDF of peak footprints
// over sampled schedules of SwiftNet Cell A against the 250 KB constraint.
func BenchmarkFig3bCDF(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		r, err := bench.Fig3b(2000, 2020)
		if err != nil {
			b.Fatal(err)
		}
		frac = r.FracUnderCap
	}
	b.ReportMetric(100*frac, "pct-schedules-under-250KB")
}

// BenchmarkFig10PeakReduction regenerates Figure 10: peak-footprint
// reduction of SERENITY over the memory-oblivious baseline on all nine
// cells (geomean reported).
func BenchmarkFig10PeakReduction(b *testing.B) {
	b.ReportAllocs()
	var geoDP, geoGR float64
	for i := 0; i < b.N; i++ {
		cells, err := bench.MeasureAllCells(500 * time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		logDP, logGR := 0.0, 0.0
		for _, c := range cells {
			logDP += ln(float64(c.BaselinePeak) / float64(c.DPPeak))
			logGR += ln(float64(c.BaselinePeak) / float64(c.DPGRPeak))
		}
		geoDP = exp(logDP / float64(len(cells)))
		geoGR = exp(logGR / float64(len(cells)))
	}
	b.ReportMetric(geoDP, "geomean-reduction-DP")
	b.ReportMetric(geoGR, "geomean-reduction-DP+GR")
}

// BenchmarkFig11Traffic regenerates Figure 11: off-chip traffic reduction
// with a 256 KB on-chip memory (geomean over measurable cells).
func BenchmarkFig11Traffic(b *testing.B) {
	cells, err := bench.MeasureAllCells(500 * time.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var geo float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.Fig11(cells)
		if err != nil {
			b.Fatal(err)
		}
		logSum, n := 0.0, 0
		for _, r := range rows {
			if r.OnChipKB == 256 && !r.NA && !r.Eliminated {
				logSum += ln(float64(r.BaselineTraffic) / float64(r.SerenityTraffic))
				n++
			}
		}
		if n > 0 {
			geo = exp(logSum / float64(n))
		}
	}
	b.ReportMetric(geo, "geomean-traffic-reduction-256KB")
}

// BenchmarkFig12Profile regenerates Figure 12: the SwiftNet Cell A
// footprint profiles with and without rewriting and the allocator.
func BenchmarkFig12Profile(b *testing.B) {
	var reduction float64
	for i := 0; i < b.N; i++ {
		r, err := bench.Fig12()
		if err != nil {
			b.Fatal(err)
		}
		reduction = r.WithoutAllocator[0].PeakKB - r.WithoutAllocator[1].PeakKB
	}
	b.ReportMetric(reduction, "rewrite-reduction-KB")
}

// BenchmarkFig13SchedulingTime regenerates Figure 13: SERENITY's compile
// (scheduling) time averaged over the nine cells.
func BenchmarkFig13SchedulingTime(b *testing.B) {
	b.ReportAllocs()
	var meanMS float64
	for i := 0; i < b.N; i++ {
		cells, err := bench.MeasureAllCells(500 * time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		var sum time.Duration
		for _, c := range cells {
			sum += c.DPGRTime
		}
		meanMS = float64(sum.Milliseconds()) / float64(len(cells))
	}
	b.ReportMetric(meanMS, "mean-scheduling-ms")
}

// BenchmarkFig15RawPeak regenerates Figure 15: raw peak footprints (the
// SwiftNet Cell A value is reported as the headline metric).
func BenchmarkFig15RawPeak(b *testing.B) {
	var cellA float64
	for i := 0; i < b.N; i++ {
		cells, err := bench.MeasureAllCells(500 * time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.Network == "SwiftNet" && c.Cell == "Cell A" {
				cellA = bench.KB(c.DPGRPeak)
			}
		}
	}
	b.ReportMetric(cellA, "swiftnet-a-DP+GR-KB")
}

// BenchmarkTable2Ablation regenerates Table 2: scheduling time by algorithm
// combination on SwiftNet.
func BenchmarkTable2Ablation(b *testing.B) {
	b.ReportAllocs()
	var fullMS float64
	for i := 0; i < b.N; i++ {
		rows, err := bench.Table2(bench.Table2Options{
			PlainDPBudget: 250 * time.Millisecond,
			StepTimeout:   500 * time.Millisecond,
			MaxStates:     1 << 19,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Algorithm == "1+2+3" && r.GraphRewriting {
				fullMS = float64(r.Time.Milliseconds())
			}
		}
	}
	b.ReportMetric(fullMS, "swiftnet+GR-1+2+3-ms")
}

// BenchmarkDPSchedulerMicro isolates the core DP scheduler on each of the
// nine evaluation cells (ablation support; not a paper figure): one
// dp.AdaptiveSchedule per partition segment — the budget ladder serenityd
// runs for a cold segment, every probe included — reporting allocations and
// DP states per op.
func BenchmarkDPSchedulerMicro(b *testing.B) {
	for _, cell := range models.BenchmarkCells() {
		b.Run(cell.Network+"/"+cell.Dataset+"/"+cell.Cell, func(b *testing.B) {
			part, err := partition.Split(cell.Build())
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

// BenchmarkAdaptiveVsUnbudgeted quantifies the state-space pruning of
// adaptive soft budgeting (Figure 8(b)'s mechanism) on SwiftNet Cell A.
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
