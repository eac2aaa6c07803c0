package serenity_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	serenity "github.com/serenity-ml/serenity"
	"github.com/serenity-ml/serenity/internal/models"
)

// Example_quickstart builds a small irregularly wired network with the public
// builder API, schedules it with the full SERENITY pipeline, and compares the
// resulting peak activation footprint against the memory-oblivious baseline.
func Example_quickstart() {
	// A toy NAS-style cell: two parallel branch groups off one input, each
	// ending in a concat feeding a convolution (the pattern SERENITY's graph
	// rewriting targets), merged by a residual add.
	b := serenity.NewBuilder("quickstart")
	in := b.Input(serenity.Shape{1, 32, 32, 8})
	skip := b.PointwiseConv(in, 8)
	var groups []int
	for g := 0; g < 2; g++ {
		var branches []int
		for i := 0; i < 3; i++ {
			branches = append(branches, b.DepthwiseConv(in, 3+2*(i%2), 1, serenity.PadSame))
		}
		groups = append(groups, b.PointwiseConv(b.Concat(branches...), 8))
	}
	b.ReLU(b.Add(skip, groups[0], groups[1]))
	g := b.Graph()

	res, err := serenity.Schedule(g, serenity.DefaultOptions())
	if err != nil {
		panic(err)
	}
	fmt.Printf("network: %s (%d nodes, %d after rewriting)\n", g.Name, g.NumNodes(), res.Graph.NumNodes())
	fmt.Printf("baseline peak (Kahn order): %.1f KB\n", float64(res.BaselinePeak)/1024)
	fmt.Printf("SERENITY peak (sum of live): %.1f KB\n", float64(res.Peak)/1024)
	fmt.Printf("SERENITY arena (allocated): %.1f KB\n", float64(res.ArenaSize)/1024)
	fmt.Printf("reduction: %.2fx\n", float64(res.BaselinePeak)/float64(res.Peak))
	fmt.Printf("rewrites applied: %d, partitions: %v\n", res.RewriteCount, res.PartitionSizes)
	for i, id := range res.Order[:4] {
		n := res.Graph.Nodes[id]
		fmt.Printf("step %d: %s (%s)\n", i, n.Name, n.Op)
	}
	// Output:
	// network: quickstart (14 nodes, 20 after rewriting)
	// baseline peak (Kahn order): 320.0 KB
	// SERENITY peak (sum of live): 128.0 KB
	// SERENITY arena (allocated): 128.0 KB
	// reduction: 2.50x
	// rewrites applied: 2, partitions: [19 1]
	// step 0: input_1 (Input)
	// step 1: pwconv_3#buf (Buffer)
	// step 2: dwconv_6 (DepthwiseConv)
	// step 3: pwconv_3#part2 (PartialConv)
}

// Example_edgeDeploy decides whether SwiftNet's cells fit the 250 KB
// activation memory of a SparkFun Edge class device — the paper's headline
// scenario (Section 2.2). A memory-oblivious schedule of Cell A does not fit;
// SERENITY's schedule does.
func Example_edgeDeploy() {
	const deviceBudget = 250 * 1024
	for _, c := range []struct {
		name  string
		build func() *serenity.Graph
	}{
		{"SwiftNet Cell A", serenity.SwiftNetCellA},
		{"SwiftNet Cell B", serenity.SwiftNetCellB},
		{"SwiftNet Cell C", serenity.SwiftNetCellC},
		{"SwiftNet (full)", serenity.SwiftNet},
	} {
		g := c.build()
		base, err := serenity.BaselineOrder(g)
		if err != nil {
			panic(err)
		}
		basePeak, err := serenity.PeakOf(g, base)
		if err != nil {
			panic(err)
		}
		opts := serenity.DefaultOptions()
		opts.MemoryBudget = deviceBudget
		res, err := serenity.Schedule(g, opts)
		var be *serenity.ErrBudgetExceeded
		if err != nil && !errors.As(err, &be) {
			panic(err)
		}
		fmt.Printf("%s: baseline %.1f KB fits=%t, SERENITY arena %.1f KB fits=%t\n",
			c.name, float64(basePeak)/1024, basePeak <= deviceBudget, float64(res.ArenaSize)/1024, be == nil)
	}
	// Output:
	// SwiftNet Cell A: baseline 257.1 KB fits=false, SERENITY arena 121.0 KB fits=true
	// SwiftNet Cell B: baseline 52.9 KB fits=true, SERENITY arena 30.2 KB fits=true
	// SwiftNet Cell C: baseline 13.5 KB fits=true, SERENITY arena 7.2 KB fits=true
	// SwiftNet (full): baseline 257.1 KB fits=false, SERENITY arena 121.0 KB fits=true
}

// Example_memoryHierarchy measures the off-chip traffic a schedule induces on
// a device with a small on-chip SRAM (the paper's Figure 11 scenario): for
// SwiftNet Cell A, the memory-oblivious order keeps spilling at 128 KB while
// SERENITY's schedule fits entirely on-chip.
func Example_memoryHierarchy() {
	g := serenity.SwiftNetCellA()
	baseline, err := serenity.BaselineOrder(g)
	if err != nil {
		panic(err)
	}
	res, err := serenity.Schedule(g, serenity.DefaultOptions())
	if err != nil {
		panic(err)
	}
	for _, kb := range []int64{32, 64, 128, 256} {
		base, err := serenity.SimulateTraffic(g, baseline, kb*1024)
		if err != nil {
			panic(err)
		}
		// SERENITY's schedule indexes the rewritten graph.
		ser, err := serenity.SimulateTraffic(res.Graph, res.Order, kb*1024)
		if err != nil {
			panic(err)
		}
		fmt.Printf("SRAM %d KB: baseline %.1f KB, SERENITY %.1f KB off-chip\n",
			kb, float64(base.Total())/1024, float64(ser.Total())/1024)
	}
	// Output:
	// SRAM 32 KB: baseline 1603.2 KB, SERENITY 1089.0 KB off-chip
	// SRAM 64 KB: baseline 1603.2 KB, SERENITY 1421.8 KB off-chip
	// SRAM 128 KB: baseline 484.0 KB, SERENITY 0.0 KB off-chip
	// SRAM 256 KB: baseline 0.0 KB, SERENITY 0.0 KB off-chip
}

// Example_rewriteGains isolates the contribution of identity graph rewriting
// (Section 3.3), mirroring the Figure 12 analysis: each network with
// concat->conv patterns is scheduled with and without rewriting.
func Example_rewriteGains() {
	for _, n := range []struct {
		name  string
		build func() *serenity.Graph
	}{
		{"DARTS normal cell", serenity.DARTSNormalCell},
		{"SwiftNet Cell A", serenity.SwiftNetCellA},
		{"SwiftNet Cell B", serenity.SwiftNetCellB},
		{"SwiftNet Cell C", serenity.SwiftNetCellC},
	} {
		g := n.build()
		noRW := serenity.DefaultOptions()
		noRW.Rewrite = false
		plain, err := serenity.Schedule(g, noRW)
		if err != nil {
			panic(err)
		}
		full, err := serenity.Schedule(g, serenity.DefaultOptions())
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: DP %.1f KB, DP+GR %.1f KB (%.1f%% less, %d rewrites)\n",
			n.name, float64(plain.Peak)/1024, float64(full.Peak)/1024,
			100*(1-float64(full.Peak)/float64(plain.Peak)), full.RewriteCount)
	}
	// Output:
	// DARTS normal cell: DP 1176.0 KB, DP+GR 882.0 KB (25.0% less, 1 rewrites)
	// SwiftNet Cell A: DP 196.6 KB, DP+GR 121.0 KB (38.5% less, 3 rewrites)
	// SwiftNet Cell B: DP 41.6 KB, DP+GR 30.2 KB (27.3% less, 3 rewrites)
	// SwiftNet Cell C: DP 11.2 KB, DP+GR 7.2 KB (36.4% less, 2 rewrites)
}

// Example_randwireSweep generates randomly wired cells over a range of
// Watts-Strogatz rewiring probabilities and measures how much a memory-aware
// schedule saves as wiring gets more chaotic: the paper's motivation that
// schedule choice matters more as regularity disappears.
func Example_randwireSweep() {
	for _, p := range []float64{0, 0.25, 0.5, 0.75, 1} {
		g := serenity.RandWireCell(fmt.Sprintf("ws(n=32,k=4,p=%.2f)", p), 32, 4, p, 42, 16, 16)
		res, err := serenity.Schedule(g, serenity.DefaultOptions())
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: %d nodes, baseline %.1f KB, SERENITY %.1f KB, %.2fx\n", g.Name, g.NumNodes(),
			float64(res.BaselinePeak)/1024, float64(res.Peak)/1024, float64(res.BaselinePeak)/float64(res.Peak))
	}
	// Output:
	// ws(n=32,k=4,p=0.00): 65 nodes, baseline 80.0 KB, SERENITY 80.0 KB, 1.00x
	// ws(n=32,k=4,p=0.25): 56 nodes, baseline 192.0 KB, SERENITY 192.0 KB, 1.00x
	// ws(n=32,k=4,p=0.50): 57 nodes, baseline 272.0 KB, SERENITY 256.0 KB, 1.06x
	// ws(n=32,k=4,p=0.75): 57 nodes, baseline 288.0 KB, SERENITY 224.0 KB, 1.29x
	// ws(n=32,k=4,p=1.00): 55 nodes, baseline 320.0 KB, SERENITY 240.0 KB, 1.33x
}

// Example_parallelCompile schedules a stacked multi-segment RandWire network
// sequentially and on the per-segment worker pool: the results are
// bit-identical at any Parallelism, because each segment's exact order is a
// pure function of the segment. The pool is the only fan-out — a segment's
// search is single-threaded — so the gain needs several segments and several
// cores. A context deadline shows cancellation reaching into the DP search.
func Example_parallelCompile() {
	g := models.StackedRandWire("parallel_demo", 3, models.WSConfig{
		Nodes: 40, K: 6, P: 0.9, Seed: 5, HW: 16, Channel: 8,
	})

	opts := serenity.DefaultOptions()
	seq, err := serenity.Schedule(g, opts)
	if err != nil {
		panic(err)
	}
	opts.Parallelism = 4
	par, err := serenity.Schedule(g, opts)
	if err != nil {
		panic(err)
	}
	fmt.Println("segments:", len(seq.PartitionSizes))
	fmt.Println("bit-identical:", slices.Equal(seq.Order, par.Order) && seq.Peak == par.Peak && seq.ArenaSize == par.ArenaSize)

	// The exact DP on the whole graph, unpartitioned and unbudgeted, takes
	// far longer than 2ms: the deadline aborts it mid-search.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	_, err = serenity.ScheduleContext(ctx, g, serenity.Options{})
	fmt.Println("2ms deadline aborted the search:", errors.Is(err, context.DeadlineExceeded))
	// Output:
	// segments: 9
	// bit-identical: true
	// 2ms deadline aborted the search: true
}

// ExampleBestEffort shows the degradable compile contract: when the exact DP
// cannot finish — the context's deadline expires, memory runs short or, as
// here, a valve stops it (no exact search of this cell fits eight frontier
// states, however fast the machine) — the best-effort strategy returns a
// valid heuristic schedule tagged as such instead of an error.
func ExampleBestEffort() {
	g := serenity.RandWireCell("rw", 48, 8, 0.9, 10, 16, 8)

	opts := serenity.DefaultOptions()
	opts.Strategy = serenity.StrategyBestEffort
	opts.MaxStates = 8

	res, err := serenity.Schedule(g, opts)
	if err != nil {
		panic(err) // best-effort degrades rather than failing
	}
	fmt.Println("quality:", res.Quality)
	fmt.Println("valid schedule:", len(res.Order) == res.Graph.NumNodes())
	// Output:
	// quality: heuristic
	// valid schedule: true
}

// ExampleBestEffort_compare compiles one randomly wired cell three ways —
// exact, best-effort under a valve no exact search of it can pass, and pure
// greedy — and reads the best-effort Result for the segments that degraded.
// The degraded answer is the greedy heuristic's order, valid and close to the
// optimum.
func ExampleBestEffort_compare() {
	g := serenity.RandWireCell("rw-valve", 48, 8, 0.9, 10, 16, 8)
	opts := serenity.DefaultOptions()
	exact, err := serenity.Schedule(g, opts)
	if err != nil {
		panic(err)
	}
	fmt.Printf("exact: peak %.1f KB, quality %s\n", float64(exact.Peak)/1024, exact.Quality)

	opts.Strategy = serenity.StrategyBestEffort
	opts.MaxStates = 8
	be, err := serenity.Schedule(g, opts)
	if err != nil {
		panic(err) // does not happen: best-effort degrades instead
	}
	fmt.Printf("best-effort: peak %.1f KB, quality %s, fallbacks %d\n", float64(be.Peak)/1024, be.Quality, be.Fallbacks)
	for i, q := range be.SegmentQuality {
		if q != serenity.QualityOptimal {
			fmt.Printf("segment %d (%d nodes) degraded to %s\n", i, be.PartitionSizes[i], q)
		}
	}

	opts.Strategy = serenity.StrategyGreedy
	greedy, err := serenity.Schedule(g, opts)
	if err != nil {
		panic(err)
	}
	fmt.Printf("greedy: peak %.1f KB, quality %s\n", float64(greedy.Peak)/1024, greedy.Quality)
	fmt.Printf("degraded / optimal: %.2fx\n", float64(be.Peak)/float64(exact.Peak))
	// Output:
	// exact: peak 240.0 KB, quality optimal
	// best-effort: peak 256.0 KB, quality heuristic, fallbacks 1
	// segment 1 (87 nodes) degraded to heuristic
	// greedy: peak 256.0 KB, quality heuristic
	// degraded / optimal: 1.07x
}

// ExampleOptions_Validate shows the fast-fail contract for nonsensical
// option combinations.
func ExampleOptions_Validate() {
	opts := serenity.DefaultOptions()
	opts.Parallelism = -4
	fmt.Println(opts.Validate())
	// Output:
	// serenity: negative Parallelism -4 (0 or 1 means sequential)
}

// ExamplePipeline assembles the composable form explicitly: an exact
// searcher and the TF-Lite best-fit arena planner; the Result reports each
// segment's outcome.
func ExamplePipeline() {
	b := serenity.NewBuilder("net")
	in := b.Input(serenity.Shape{1, 16, 16, 4})
	x := b.Conv(in, 8, 3, 1, serenity.PadSame)
	y := b.Conv(in, 8, 3, 1, serenity.PadSame)
	b.Concat(x, y)

	p := &serenity.Pipeline{
		Searcher:  serenity.ExactDP{AdaptiveBudget: true},
		Allocator: serenity.ArenaBestFit{},
		Rewrite:   true,
		Partition: true,
	}
	res, err := p.Run(context.Background(), b.Graph())
	if err != nil {
		panic(err)
	}
	fmt.Println("quality:", res.Quality)
	fmt.Println("segments searched:", len(res.SegmentQuality))
	// Output:
	// quality: optimal
	// segments searched: 1
}
