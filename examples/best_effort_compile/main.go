// Command best_effort_compile demonstrates the degradable compilation path:
// a compile deadline far too tight for the exact DP, served by the
// best-effort strategy as a valid heuristic schedule instead of an error.
//
// It compiles a large randomly wired cell three ways — exact (no deadline),
// best-effort under a tight deadline, and pure greedy — and prints the
// peak/quality trade-off, then reads the best-effort Result's per-stage
// timings and the segments that degraded.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	serenity "github.com/serenity-ml/serenity"
)

func main() {
	// A 128-node Watts–Strogatz cell: the exact DP needs the better part of a
	// second, far more than the deadline below allows. (Smaller cells no
	// longer do: a 48-node one is ~25ms since the DP takes safe moves alone.)
	g := serenity.RandWireCell("rw-deadline", 128, 16, 0.9, 10, 16, 8)

	baseline, err := serenity.BaselineOrder(g)
	if err != nil {
		log.Fatal(err)
	}
	basePeak, err := serenity.PeakOf(g, baseline)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph %s: %d nodes, memory-oblivious baseline peak %.1f KB\n",
		g.Name, g.NumNodes(), float64(basePeak)/1024)

	// 1. Exact, no deadline: the optimum, however long it takes.
	opts := serenity.DefaultOptions()
	exact, err := serenity.Schedule(g, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact:       peak %.1f KB  quality=%s  in %s\n",
		float64(exact.Peak)/1024, exact.Quality, exact.SchedulingTime.Round(time.Millisecond))

	// 2. Best-effort under a 100ms deadline: the Pipeline form. The deadline
	// expires inside the DP, each segment degrades to the greedy heuristic,
	// and the compile still succeeds; the Result says where the time went
	// and which segments degraded.
	opts.Strategy = serenity.StrategyBestEffort
	p, err := serenity.NewPipeline(opts)
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	be, err := p.Run(ctx, g)
	if err != nil {
		log.Fatal(err) // does not happen: best-effort degrades instead
	}
	fmt.Printf("best-effort: peak %.1f KB  quality=%s  fallbacks=%d  in %s\n",
		float64(be.Peak)/1024, be.Quality, be.Fallbacks, be.SchedulingTime.Round(time.Millisecond))
	st := be.Stages
	fmt.Printf("  stages: rewrite %s  partition %s  search %s  alloc %s\n",
		st.Rewrite.Round(time.Microsecond), st.Partition.Round(time.Microsecond),
		st.Search.Round(time.Microsecond), st.Alloc.Round(time.Microsecond))
	for i, q := range be.SegmentQuality {
		if q != serenity.QualityOptimal {
			fmt.Printf("  segment %d (%d nodes) degraded to %s\n", i, be.PartitionSizes[i], q)
		}
	}

	// 3. Greedy as an explicit strategy, for comparison.
	opts.Strategy = serenity.StrategyGreedy
	greedy, err := serenity.Schedule(g, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("greedy:      peak %.1f KB  quality=%s  in %s\n",
		float64(greedy.Peak)/1024, greedy.Quality, greedy.SchedulingTime.Round(time.Millisecond))

	fmt.Printf("\nunder the deadline the schedule stays valid and within %.2fx of optimal (baseline was %.2fx)\n",
		float64(be.Peak)/float64(exact.Peak), float64(basePeak)/float64(exact.Peak))
}
