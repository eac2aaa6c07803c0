// Command serenity schedules a dataflow graph for minimum peak activation
// memory. It reads a graph in the JSON IR format (see internal/graph),
// runs the full SERENITY pipeline, and prints the schedule and footprint.
//
//	serenity -in model.json [-budget 256KiB] [-dot out.dot] [-no-rewrite]
//	         [-strategy exact|greedy|best-effort] [-deadline 200ms]
//
// With -builtin NAME it schedules one of the bundled benchmark networks
// (darts, swiftnet, swiftnet-a, swiftnet-b, swiftnet-c, randwire) instead of
// reading a file.
//
// The store subcommand inspects and maintains a persistent schedule artifact
// store (the directory serenityd -store-dir writes):
//
//	serenity store ls     -dir DIR          list artifacts (key, nodes, quality, size)
//	serenity store verify -dir DIR          re-checksum and decode every record; nonzero exit on damage
//	serenity store gc     -dir DIR          compact the data file, reclaiming dead space
//	serenity store export -dir DIR -o F     write the live artifacts as a portable store file
//	serenity store import -dir DIR -in F    merge an exported file, keeping established records (fleet pre-warming)
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	serenity "github.com/serenity-ml/serenity"
	"github.com/serenity-ml/serenity/internal/bytesize"
	"github.com/serenity-ml/serenity/internal/models"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "store" {
		if err := storeMain(os.Args[2:], os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "serenity store:", err)
			os.Exit(1)
		}
		return
	}
	in := flag.String("in", "", "input graph (JSON IR); '-' for stdin")
	builtin := flag.String("builtin", "", "schedule a bundled network (darts|swiftnet|swiftnet-a|swiftnet-b|swiftnet-c|randwire)")
	budget := flag.String("budget", "", "device memory budget, e.g. 250KiB or 262144")
	dotOut := flag.String("dot", "", "write the (rewritten) graph as Graphviz DOT to this file")
	noRewrite := flag.Bool("no-rewrite", false, "disable identity graph rewriting")
	noPartition := flag.Bool("no-partition", false, "disable divide-and-conquer")
	stepTimeout := flag.Duration("timeout", time.Second, "adaptive soft budgeting step timeout T: a per-level safety valve; exceeding it fails the search")
	strategy := flag.String("strategy", "exact", "search strategy (exact|greedy|best-effort)")
	deadline := flag.Duration("deadline", 0, "compile deadline; with -strategy best-effort the search degrades instead of failing")
	quiet := flag.Bool("quiet", false, "print only the summary line")
	flag.Parse()

	if err := run(*in, *builtin, *budget, *dotOut, *noRewrite, *noPartition, *stepTimeout, *strategy, *deadline, *quiet); err != nil {
		fmt.Fprintln(os.Stderr, "serenity:", err)
		os.Exit(1)
	}
}

func run(in, builtin, budget, dotOut string, noRewrite, noPartition bool, stepTimeout time.Duration, strategy string, deadline time.Duration, quiet bool) error {
	g, err := loadGraph(in, builtin)
	if err != nil {
		return err
	}

	opts := serenity.DefaultOptions()
	opts.Rewrite = !noRewrite
	opts.Partition = !noPartition
	opts.StepTimeout = stepTimeout
	opts.Strategy, err = serenity.ParseStrategy(strategy)
	if err != nil {
		return err
	}
	if budget != "" {
		b, err := bytesize.Parse(budget)
		if err != nil {
			return err
		}
		opts.MemoryBudget = b
	}
	if err := opts.Validate(); err != nil {
		return err
	}

	ctx := context.Background()
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	res, err := serenity.ScheduleContext(ctx, g, opts)
	var be *serenity.ErrBudgetExceeded
	if err != nil {
		if e, ok := err.(*serenity.ErrBudgetExceeded); ok {
			be = e
		} else {
			return err
		}
	}

	fmt.Printf("graph=%s nodes=%d baseline=%.1fKB peak=%.1fKB arena=%.1fKB reduction=%.2fx rewrites=%d partitions=%v quality=%s fallbacks=%d time=%s\n",
		g.Name, g.NumNodes(),
		float64(res.BaselinePeak)/1024, float64(res.Peak)/1024, float64(res.ArenaSize)/1024,
		float64(res.BaselinePeak)/float64(res.Peak),
		res.RewriteCount, res.PartitionSizes, res.Quality, res.Fallbacks,
		res.SchedulingTime.Round(time.Millisecond))
	if !quiet {
		fmt.Println("schedule:")
		for i, id := range res.Order {
			n := res.Graph.Nodes[id]
			fmt.Printf("  %3d: %-24s %-14s %v\n", i, n.Name, n.Op, n.Shape)
		}
	}
	if dotOut != "" {
		f, err := os.Create(dotOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := res.Graph.WriteDOT(f); err != nil {
			return err
		}
	}
	if be != nil {
		return be
	}
	return nil
}

func loadGraph(in, builtin string) (*serenity.Graph, error) {
	if builtin != "" {
		return models.ByName(builtin, models.WSConfig{Nodes: 32, K: 4, P: 0.75, Seed: 101, HW: 32, Channel: 16})
	}
	if in == "" {
		return nil, fmt.Errorf("provide -in FILE or -builtin NAME")
	}
	f := os.Stdin
	if in != "-" {
		var err error
		f, err = os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
	}
	return serenity.ReadGraphJSON(f)
}
