package dp_test

// The safe-move rule's own certificate. The differential and canonical suites
// already compare every instance against the unrestricted oracle; the graphs
// here are drawn to sit where the rule's two conditions are subtle — tensors
// of mixed sizes (so "allocates the least" is a real test), zero-byte alias
// nodes and shared buffers from identity graph rewriting (a safe node that
// allocates nothing; a root the model frees although one of its views is a
// graph output), roots with several consumers (freed only by the last) and
// several sinks — and small enough that brute force has the last word.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/serenity-ml/serenity/internal/dp"
	"github.com/serenity-ml/serenity/internal/graph"
	"github.com/serenity-ml/serenity/internal/rewrite"
	"github.com/serenity-ml/serenity/internal/sched"
)

// randomRewritableDAG grows a small NHWC graph of ReLUs, pointwise convs of
// random width, Adds and concat → conv sites (the pattern rewrite.RewriteAll
// partitions). Operands are drawn from every earlier node, so multi-consumer
// tensors and several sinks fall out on their own.
func randomRewritableDAG(rng *rand.Rand, nodes int) *graph.Graph {
	b := graph.NewBuilder("safe")
	widths := []int{1, 2, 3, 4, 6, 8}
	width := func() int { return widths[rng.Intn(len(widths))] }
	ids := []int{b.Input(graph.Shape{1, 2, 2, width()})}
	pick := func() int { return ids[rng.Intn(len(ids))] }
	for b.Graph().NumNodes() < nodes {
		x, y := pick(), pick()
		switch rng.Intn(4) {
		case 0:
			ids = append(ids, b.ReLU(x))
		case 1:
			ids = append(ids, b.PointwiseConv(x, width()))
		case 2:
			if x != y && b.Graph().Nodes[x].Shape.Equal(b.Graph().Nodes[y].Shape) {
				ids = append(ids, b.Add(x, y))
			}
		case 3:
			if x == y {
				continue
			}
			// The concat itself is never offered as an operand: a concat with
			// one consumer is what the rewrite matches.
			if c := b.Concat(x, y); rng.Intn(2) == 0 {
				ids = append(ids, b.PointwiseConv(c, width()))
			} else {
				ids = append(ids, b.DepthwiseConv(c, 3, 1, graph.PadSame))
			}
		}
	}
	return b.Graph()
}

// checkSafeMoveInstance draws one graph, rewrites it, and holds the DP and
// the capped search to brute force on both (whichever fit its node limit), and
// to the unrestricted oracle and the canonical contract. It reports whether
// the rewrite fired and how many states took a safe move.
func checkSafeMoveInstance(t *testing.T, name string, rng *rand.Rand, nodes int) (rewritten bool, forced int64) {
	t.Helper()
	built := randomRewritableDAG(rng, nodes)
	aliased, apps, err := rewrite.RewriteAll(built, rewrite.DefaultRules(), 0)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, g := range []*graph.Graph{built, aliased} {
		m := sched.NewMemModel(g)
		ar := assertCanonical(t, name+"/"+g.Name, m)
		if m.MustPeak(ar.Order) != ar.Peak {
			t.Fatalf("%s/%s: order %v simulates to %d, reported %d", name, g.Name, ar.Order, m.MustPeak(ar.Order), ar.Peak)
		}
		if g.NumNodes() <= sched.BruteForceLimit {
			if _, want, err := sched.BruteForce(m); err != nil || ar.Peak != want {
				t.Fatalf("%s/%s: DP peak %d, brute force %d (%v)", name, g.Name, ar.Peak, want, err)
			}
		}
		forced += ar.StatesForced
	}
	return len(apps) > 0, forced
}

func TestSafeMovePreservesOptimum(t *testing.T) {
	iters := 300
	if testing.Short() || raceEnabled {
		iters = 60
	}
	rng := rand.New(rand.NewSource(25))
	var aliased int
	var forced int64
	for i := 0; i < iters; i++ {
		rw, f := checkSafeMoveInstance(t, fmt.Sprintf("iter%d", i), rng, 4+rng.Intn(5))
		forced += f
		if rw {
			aliased++
		}
	}
	if aliased < iters/4 || forced == 0 {
		t.Fatalf("%d of %d graphs were rewritten and %d states took a safe move: the generator misses its cases", aliased, iters, forced)
	}
}

// FuzzSafeMoveOptimum is the same certificate over whatever graphs the fuzzer
// draws.
func FuzzSafeMoveOptimum(f *testing.F) {
	f.Add(int64(1), uint8(5))
	f.Add(int64(25), uint8(8))
	f.Add(int64(-7), uint8(9))
	f.Fuzz(func(t *testing.T, seed int64, nodes uint8) {
		if nodes < 2 || nodes > 9 {
			t.Skip("brute force has the last word only on small graphs")
		}
		checkSafeMoveInstance(t, "fuzz", rand.New(rand.NewSource(seed)), int(nodes))
	})
}

// TestSafeMoveNeedsMinAlloc is the graph that makes condition (i) necessary.
// Every schedule passes through {x, p, q, t}, where u and v are ready, p is
// held only for u and q only for v:
//
//	x(1) ─ p(10) ─┬──────── u(10) ─┐
//	  │           t(1) ─┬─┘        out(1)
//	  └─── q(8) ──┴─────┴── v(1) ──┘
//
// u frees p — as much as it allocates, condition (ii) — but allocates on top
// of q, which v would have freed for one byte: u first peaks at 29 units, v
// first at 22. A rule that took any node that "frees at least what it
// allocates" would take u (the smaller id) and lose the optimum.
func TestSafeMoveNeedsMinAlloc(t *testing.T) {
	g := graph.New("needs-min-alloc")
	unit := func(n int) graph.Shape { return graph.Shape{n} }
	x := g.AddNode(graph.OpInput, "x", unit(1))
	p := g.AddNode(graph.OpReLU, "p", unit(10), x)
	q := g.AddNode(graph.OpReLU, "q", unit(8), x)
	tn := g.AddNode(graph.OpAdd, "t", unit(1), p, q)
	u := g.AddNode(graph.OpAdd, "u", unit(10), p, tn)
	v := g.AddNode(graph.OpAdd, "v", unit(1), q, tn)
	out := g.AddNode(graph.OpAdd, "out", unit(1), u, v)
	m := sched.NewMemModel(g)
	const word = 4 // float32

	at := graph.NewBitset(g.NumNodes())
	for _, id := range []int{x, p, q, tn} {
		at.Set(id)
	}
	if freed := m.StepDealloc(at, u); freed < m.Alloc[u] || m.Alloc[u] <= m.Alloc[v] {
		t.Fatalf("u frees %d of its %d bytes and v allocates %d: the graph no longer sets the trap", freed, m.Alloc[u], m.Alloc[v])
	}
	if got := m.MustPeak(sched.Schedule{x, p, q, tn, u, v, out}); got != 29*word {
		t.Fatalf("u first peaks at %d, want %d", got, 29*word)
	}
	_, want, err := sched.BruteForce(m)
	if err != nil || want != 22*word {
		t.Fatalf("brute force peak %d (%v), want %d", want, err, 22*word)
	}
	got := dp.Optimal(m)
	if got.Peak != want || slices.Index(got.Order, v) > slices.Index(got.Order, u) {
		t.Fatalf("DP peak %d order %v, want %d with v before u", got.Peak, got.Order, want)
	}
}
