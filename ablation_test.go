// Ablation benchmarks for the pipeline's design choices: exact DP vs a greedy
// heuristic, Belady vs LRU replacement, and divide-and-conquer partitioning.
// Where a choice departs from the paper, README's "Deviations from the paper"
// says why.
package serenity

import (
	"context"
	"testing"
	"time"

	"github.com/serenity-ml/serenity/internal/memsim"
	"github.com/serenity-ml/serenity/internal/models"
	"github.com/serenity-ml/serenity/internal/sched"
)

// BenchmarkAblationGreedyVsDP quantifies how much the exact DP buys over a
// one-step-lookahead greedy scheduler across the nine benchmark cells.
func BenchmarkAblationGreedyVsDP(b *testing.B) {
	var worst, geo float64
	for i := 0; i < b.N; i++ {
		logSum := 0.0
		worst = 1
		cells := models.BenchmarkCells()
		for _, c := range cells {
			g := c.Build()
			m := sched.NewMemModel(g)
			_, greedyPeak, err := sched.GreedyMemory(m)
			if err != nil {
				b.Fatal(err)
			}
			sr, err := ExactDP{AdaptiveBudget: true, StepTimeout: 500 * time.Millisecond}.Search(context.Background(), m)
			if err != nil {
				b.Fatal(err)
			}
			ratio := float64(greedyPeak) / float64(m.MustPeak(sr.Order))
			if ratio < 1 {
				b.Fatalf("%s/%s: greedy beat the optimum", c.Network, c.Cell)
			}
			if ratio > worst {
				worst = ratio
			}
			logSum += ln(ratio)
		}
		geo = exp(logSum / float64(len(cells)))
	}
	b.ReportMetric(geo, "geomean-greedy/dp")
	b.ReportMetric(worst, "worst-greedy/dp")
}

// BenchmarkAblationBeladyVsLRU compares the clairvoyant policy the paper
// uses against LRU on the SERENITY schedule of SwiftNet Cell A (64 KB SRAM).
func BenchmarkAblationBeladyVsLRU(b *testing.B) {
	g := models.SwiftNetCellA()
	m := sched.NewMemModel(g)
	sr, err := ExactDP{AdaptiveBudget: true, StepTimeout: time.Second}.Search(context.Background(), m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var bel, lru int64
	for i := 0; i < b.N; i++ {
		tb, err := memsim.Simulate(m, sr.Order, memsim.Config{OnChipBytes: 64 * 1024, Policy: memsim.Belady})
		if err != nil {
			b.Fatal(err)
		}
		tl, err := memsim.Simulate(m, sr.Order, memsim.Config{OnChipBytes: 64 * 1024, Policy: memsim.LRU})
		if err != nil {
			b.Fatal(err)
		}
		bel, lru = tb.Total(), tl.Total()
	}
	b.ReportMetric(float64(bel)/1024, "belady-traffic-KB")
	b.ReportMetric(float64(lru)/1024, "lru-traffic-KB")
}

// BenchmarkAblationPartitioning measures divide-and-conquer's effect on
// states explored for the rewritten SwiftNet (Table 2's mechanism).
func BenchmarkAblationPartitioning(b *testing.B) {
	var with, without int64
	for i := 0; i < b.N; i++ {
		g := SwiftNet()
		optsNoPart := DefaultOptions()
		optsNoPart.Partition = false
		rn, err := Schedule(g, optsNoPart)
		if err != nil {
			b.Fatal(err)
		}
		rw, err := Schedule(g, DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if rn.Peak != rw.Peak {
			b.Fatalf("partitioning changed the optimum: %d vs %d", rn.Peak, rw.Peak)
		}
		with, without = rw.StatesExplored, rn.StatesExplored
	}
	b.ReportMetric(float64(without), "states-whole-graph")
	b.ReportMetric(float64(with), "states-partitioned")
}
