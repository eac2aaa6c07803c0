package models

import (
	"context"
	"testing"

	"github.com/serenity-ml/serenity/internal/dp"
	"github.com/serenity-ml/serenity/internal/graph"
	"github.com/serenity-ml/serenity/internal/partition"
	"github.com/serenity-ml/serenity/internal/rewrite"
	"github.com/serenity-ml/serenity/internal/sched"
)

func TestAllBenchmarkCellsValid(t *testing.T) {
	for _, c := range BenchmarkCells() {
		g := c.Build()
		if err := g.Validate(); err != nil {
			t.Errorf("%s/%s: %v", c.Network, c.Cell, err)
		}
		if g.NumNodes() < 15 {
			t.Errorf("%s/%s: suspiciously small (%d nodes)", c.Network, c.Cell, g.NumNodes())
		}
	}
}

func TestBenchmarkCellsAreDeterministic(t *testing.T) {
	for _, c := range BenchmarkCells() {
		g1, g2 := c.Build(), c.Build()
		if g1.NumNodes() != g2.NumNodes() || g1.NumEdges() != g2.NumEdges() {
			t.Errorf("%s/%s: non-deterministic build", c.Network, c.Cell)
		}
		for i := range g1.Nodes {
			if g1.Nodes[i].Op != g2.Nodes[i].Op || !g1.Nodes[i].Shape.Equal(g2.Nodes[i].Shape) {
				t.Errorf("%s/%s: node %d differs across builds", c.Network, c.Cell, i)
				break
			}
		}
	}
}

// TestSwiftNetTable2Statistics pins the structural numbers of Table 2.
func TestSwiftNetTable2Statistics(t *testing.T) {
	g := SwiftNet()
	if g.NumNodes() != 62 {
		t.Fatalf("SwiftNet nodes = %d, want 62", g.NumNodes())
	}
	p, err := partition.Split(g)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{21, 19, 22}
	sizes := p.Sizes()
	if len(sizes) != 3 {
		t.Fatalf("partition sizes = %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("partition sizes = %v, want %v", sizes, want)
		}
	}

	rw, matches, err := rewrite.Rewrite(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 8 {
		t.Errorf("rewrite matches = %d, want 8 (3+3+2 concat groups)", len(matches))
	}
	// Table 2 reports the rewritten partition as {33, 28, 29} (the table's
	// "92" total is inconsistent with its own partition, which sums to 90).
	if rw.NumNodes() != 90 {
		t.Fatalf("rewritten nodes = %d, want 90", rw.NumNodes())
	}
	p2, err := partition.Split(rw)
	if err != nil {
		t.Fatal(err)
	}
	want2 := []int{33, 28, 29}
	sizes2 := p2.Sizes()
	if len(sizes2) != 3 {
		t.Fatalf("rewritten partition = %v, want %v", sizes2, want2)
	}
	for i := range want2 {
		if sizes2[i] != want2[i] {
			t.Fatalf("rewritten partition = %v, want %v", sizes2, want2)
		}
	}
}

func TestSwiftNetCellNodeCounts(t *testing.T) {
	if n := SwiftNetCellA().NumNodes(); n != 21 {
		t.Errorf("Cell A nodes = %d, want 21", n)
	}
	if n := SwiftNetCellB().NumNodes(); n != 20 {
		t.Errorf("Cell B nodes = %d, want 20", n)
	}
	if n := SwiftNetCellC().NumNodes(); n != 23 {
		t.Errorf("Cell C nodes = %d, want 23", n)
	}
}

func TestRandWireDeterministicPerSeed(t *testing.T) {
	a1 := RandWireCIFAR10CellA()
	a2 := RandWireCIFAR10CellA()
	if a1.NumEdges() != a2.NumEdges() {
		t.Error("same seed produced different wiring")
	}
	b := RandWireCIFAR10CellB()
	if a1.NumEdges() == b.NumEdges() && a1.NumNodes() == b.NumNodes() {
		// Different seeds and sizes could coincide, but both is unlikely;
		// check the structure actually differs.
		same := true
		if a1.NumNodes() == b.NumNodes() {
			for i := range a1.Nodes {
				if len(a1.Nodes[i].Preds) != len(b.Nodes[i].Preds) {
					same = false
					break
				}
			}
		}
		if same {
			t.Error("different seeds produced identical wiring")
		}
	}
}

func TestRandWireHasNoRewriteMatches(t *testing.T) {
	// RandWire aggregates with weighted sums, not concats: Figure 10 shows
	// zero graph-rewriting gain for RandWire, which our generators preserve.
	for _, c := range BenchmarkCells() {
		if c.Network != "RandWire" {
			continue
		}
		if ms := rewrite.FindMatches(c.Build()); len(ms) != 0 {
			t.Errorf("%s %s: unexpected rewrite matches %d", c.Network, c.Cell, len(ms))
		}
	}
}

func TestDARTSAndSwiftNetHaveRewriteMatches(t *testing.T) {
	if ms := rewrite.FindMatches(DARTSNormalCell()); len(ms) != 1 {
		t.Errorf("DARTS matches = %d, want 1", len(ms))
	}
	for name, n := range map[string]int{"A": 3, "B": 3, "C": 2} {
		var matches int
		switch name {
		case "A":
			matches = len(rewrite.FindMatches(SwiftNetCellA()))
		case "B":
			matches = len(rewrite.FindMatches(SwiftNetCellB()))
		case "C":
			matches = len(rewrite.FindMatches(SwiftNetCellC()))
		}
		if matches != n {
			t.Errorf("SwiftNet cell %s matches = %d, want %d", name, matches, n)
		}
	}
}

// capped runs the production exact search on g — one DP run at dp.Cap's
// budget — and fails unless it finds a solution.
func capped(t *testing.T, g *graph.Graph) *dp.Result {
	t.Helper()
	m := sched.NewMemModel(g)
	c, err := dp.Cap(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	r := dp.Schedule(m, dp.Options{Budget: c.Tau})
	if r.Flag != dp.FlagSolution {
		t.Fatalf("%s: %v", g.Name, r.Flag)
	}
	return r
}

// TestDPBeatsOrMatchesBaselinesOnAllCells is Figure 10's direction on every
// benchmark cell.
func TestDPBeatsOrMatchesBaselinesOnAllCells(t *testing.T) {
	for _, c := range BenchmarkCells() {
		g := c.Build()
		m := sched.NewMemModel(g)
		ar := capped(t, g)
		kahn, _ := sched.KahnFIFO(g)
		if kp := m.MustPeak(kahn); kp < ar.Peak {
			t.Errorf("%s/%s: Kahn %d beats DP %d", c.Network, c.Cell, kp, ar.Peak)
		}
		dfs, _ := sched.DFSEmission(g)
		if dp_ := m.MustPeak(dfs); dp_ < ar.Peak {
			t.Errorf("%s/%s: DFS %d beats DP %d", c.Network, c.Cell, dp_, ar.Peak)
		}
	}
}

// TestRewriteNeverHurtsOptimalPeak checks the graph-rewriting direction on
// every benchmark cell (Figure 10's second bar).
func TestRewriteNeverHurtsOptimalPeak(t *testing.T) {
	for _, c := range BenchmarkCells() {
		g := c.Build()
		rw, _, err := rewrite.Rewrite(g)
		if err != nil {
			t.Fatal(err)
		}
		before, after := capped(t, g), capped(t, rw)
		if after.Peak > before.Peak {
			t.Errorf("%s/%s: rewrite increased optimal peak %d -> %d",
				c.Network, c.Cell, before.Peak, after.Peak)
		}
	}
}

func TestMACsAndWeightsPlausible(t *testing.T) {
	specs := Table1Specs()
	if len(specs) != 4 {
		t.Fatalf("Table 1 rows = %d, want 4", len(specs))
	}
	for _, s := range specs {
		if s.MACs <= 0 || s.Weights <= 0 {
			t.Errorf("%s: non-positive MACs/weights (%d, %d)", s.Network, s.MACs, s.Weights)
		}
		// Same order of magnitude as the paper (substituted generators
		// cannot match exactly; see DESIGN.md).
		if s.MACs > s.PaperMACs*40 || s.MACs < s.PaperMACs/40 {
			t.Errorf("%s: MACs %d implausibly far from paper's %d", s.Network, s.MACs, s.PaperMACs)
		}
		if s.PaperTop1 == "" {
			t.Errorf("%s: missing cited accuracy", s.Network)
		}
	}
}

func TestWSEdgesProperties(t *testing.T) {
	cfg := WSConfig{Nodes: 32, K: 4, P: 0.75, Seed: 7, HW: 16, Channel: 8}
	edges := wsEdges(cfg)
	if len(edges) < cfg.Nodes || len(edges) > cfg.Nodes*cfg.K {
		t.Fatalf("edge count %d out of range", len(edges))
	}
	seen := map[[2]int]bool{}
	for _, e := range edges {
		if e[0] >= e[1] {
			t.Fatalf("edge %v not oriented low->high", e)
		}
		if e[1] >= cfg.Nodes {
			t.Fatalf("edge %v out of range", e)
		}
		if seen[e] {
			t.Fatalf("duplicate edge %v", e)
		}
		seen[e] = true
	}
}

func TestRandWireCellStructure(t *testing.T) {
	g := RandWireCIFAR10CellA()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Inputs()) != 1 {
		t.Errorf("inputs = %v", g.Inputs())
	}
	if len(g.Outputs()) != 1 {
		t.Errorf("outputs = %v", g.Outputs())
	}
}
