// Benchmarks regenerating every measured table and figure of the paper.
// Run all of them with:
//
//	go test -bench=. -benchmem ./internal/bench
//
// Each benchmark reports the figure's headline number as a custom metric so
// `go test -bench` output doubles as the reproduction record (README's
// "Reproduction" section holds the paper-vs-measured comparison).
package bench

import (
	"testing"
	"time"

	"github.com/serenity-ml/serenity/internal/models"
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
		r, err := Fig3b(2000, 2020)
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
		cells, err := MeasureAllCells(500 * time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		var dp, gr []float64
		for _, c := range cells {
			dp = append(dp, float64(c.BaselinePeak)/float64(c.DPPeak))
			gr = append(gr, float64(c.BaselinePeak)/float64(c.DPGRPeak))
		}
		geoDP, geoGR = geomean(dp), geomean(gr)
	}
	b.ReportMetric(geoDP, "geomean-reduction-DP")
	b.ReportMetric(geoGR, "geomean-reduction-DP+GR")
}

// BenchmarkFig11Traffic regenerates Figure 11: off-chip traffic reduction
// with a 256 KB on-chip memory (geomean over measurable cells).
func BenchmarkFig11Traffic(b *testing.B) {
	cells, err := MeasureAllCells(500 * time.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var geo float64
	for i := 0; i < b.N; i++ {
		rows, err := Fig11(cells)
		if err != nil {
			b.Fatal(err)
		}
		var ratios []float64
		for _, r := range rows {
			if r.OnChipKB == 256 && !r.NA && !r.Eliminated {
				ratios = append(ratios, float64(r.BaselineTraffic)/float64(r.SerenityTraffic))
			}
		}
		geo = geomean(ratios)
	}
	b.ReportMetric(geo, "geomean-traffic-reduction-256KB")
}

// BenchmarkFig12Profile regenerates Figure 12: the SwiftNet Cell A
// footprint profiles with and without rewriting and the allocator.
func BenchmarkFig12Profile(b *testing.B) {
	var reduction float64
	for i := 0; i < b.N; i++ {
		r, err := Fig12()
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
		cells, err := MeasureAllCells(500 * time.Millisecond)
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
		cells, err := MeasureAllCells(500 * time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		for _, c := range cells {
			if c.Network == "SwiftNet" && c.Cell == "Cell A" {
				cellA = KB(c.DPGRPeak)
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
		rows, err := Table2(Table2Options{
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
