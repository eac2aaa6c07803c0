package serenity_test

import (
	"context"
	"fmt"

	serenity "github.com/serenity-ml/serenity"
)

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
