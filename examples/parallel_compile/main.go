// Example parallel_compile demonstrates the concurrent scheduling engine:
// it builds a stacked multi-segment RandWire network, schedules it
// sequentially and with the per-segment worker pool, verifies the results
// are bit-identical, and reports the wall-clock difference. The pool is the
// only fan-out — each segment's search is single-threaded — so the gain
// needs several segments and several cores. A context deadline shows
// cancellation reaching into the DP search.
package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	serenity "github.com/serenity-ml/serenity"
	"github.com/serenity-ml/serenity/internal/models"
)

func main() {
	g := models.StackedRandWire("parallel_demo", 6, models.WSConfig{
		Nodes: 40, K: 6, P: 0.9, Seed: 5, HW: 16, Channel: 8,
	})
	fmt.Printf("graph: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())

	opts := serenity.DefaultOptions()
	opts.StepTimeout = time.Minute // one exact probe per segment

	start := time.Now()
	seq, err := serenity.Schedule(g, opts)
	if err != nil {
		panic(err)
	}
	seqTime := time.Since(start)

	opts.Parallelism = runtime.GOMAXPROCS(0)
	start = time.Now()
	par, err := serenity.ScheduleContext(context.Background(), g, opts)
	if err != nil {
		panic(err)
	}
	parTime := time.Since(start)

	identical := par.Peak == seq.Peak && par.ArenaSize == seq.ArenaSize &&
		len(par.Order) == len(seq.Order)
	for i := range par.Order {
		identical = identical && par.Order[i] == seq.Order[i]
	}
	fmt.Printf("sequential:       %8s  peak=%.1fKB arena=%.1fKB segments=%v\n",
		seqTime.Round(time.Millisecond), float64(seq.Peak)/1024, float64(seq.ArenaSize)/1024, seq.PartitionSizes)
	fmt.Printf("parallelism=%-2d:   %8s  bit-identical=%v\n",
		opts.Parallelism, parTime.Round(time.Millisecond), identical)
	if !identical {
		panic("parallel schedule diverged from sequential")
	}

	// Deadlines cancel mid-search: the exact DP on the whole graph without
	// partitioning takes tens of milliseconds, far longer than 2ms.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	start = time.Now()
	_, err = serenity.ScheduleContext(ctx, g, serenity.Options{})
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Printf("2ms deadline:     aborted cleanly after %s\n", time.Since(start).Round(time.Millisecond))
	} else {
		fmt.Printf("2ms deadline:     unexpected outcome err=%v\n", err)
	}
}
