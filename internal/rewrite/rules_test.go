package rewrite

import (
	"slices"
	"testing"

	"github.com/serenity-ml/serenity/internal/graph"
)

func nestedConcatGraph() *graph.Graph {
	b := graph.NewBuilder("nested")
	in := b.Input(graph.Shape{1, 8, 8, 4})
	x1 := b.Conv(in, 4, 3, 1, graph.PadSame)
	x2 := b.Conv(in, 6, 3, 1, graph.PadSame)
	x3 := b.Conv(in, 8, 3, 1, graph.PadSame)
	inner := b.Concat(x1, x2)
	outer := b.Concat(inner, x3)
	y := b.Conv(outer, 8, 3, 1, graph.PadSame)
	b.ReLU(y)
	return b.Graph()
}

// TestRewriteAllFixpoint rewrites a nested concat under the paper's rule: the
// outer concat → conv partitions over its two branches, the inner concat
// stays a materialized branch, and the second pass finds nothing to do.
func TestRewriteAllFixpoint(t *testing.T) {
	g := nestedConcatGraph()
	out, apps, err := RewriteAll(g, DefaultRules(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := []RuleApplication{{Rule: "concat-partitioning", Sites: 1}}; !slices.Equal(apps, want) {
		t.Fatalf("apps = %+v, want %+v", apps, want)
	}
	var partials, concats int
	for _, n := range out.Nodes {
		switch n.Op {
		case graph.OpPartialConv:
			partials++
		case graph.OpConcat:
			concats++
		}
	}
	if partials != 2 || concats != 1 {
		t.Errorf("partials = %d, concats = %d, want 2 and the inner concat", partials, concats)
	}
}

func TestRewriteAllNoRulesFire(t *testing.T) {
	b := graph.NewBuilder("plain")
	in := b.Input(graph.Shape{1, 4, 4, 2})
	b.Conv(in, 4, 3, 1, graph.PadSame)
	g := b.Graph()
	out, apps, err := RewriteAll(g, DefaultRules(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(apps) != 0 {
		t.Errorf("apps = %+v, want none", apps)
	}
	if out != g {
		t.Error("graph replaced although nothing fired")
	}
}

func TestRuleNames(t *testing.T) {
	names := map[string]bool{}
	for _, r := range DefaultRules() {
		if r.Name() == "" {
			t.Error("empty rule name")
		}
		if names[r.Name()] {
			t.Errorf("duplicate rule name %s", r.Name())
		}
		names[r.Name()] = true
	}
	if len(DefaultRules()) != 1 {
		t.Error("default rules should be the paper's partitioning only")
	}
}
