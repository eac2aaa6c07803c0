package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"github.com/serenity-ml/serenity/internal/graph"
	"github.com/serenity-ml/serenity/internal/partition"
	"github.com/serenity-ml/serenity/internal/rewrite"
	"github.com/serenity-ml/serenity/internal/sched"
)

// The paper golden's document; testdata/golden/gen.go holds the twin of
// these types and of paperGolden, and writes testdata/paper/cells.json.

type paperVariant struct {
	Nodes        int    `json:"nodes"`
	RewriteSites int    `json:"rewrite_sites"`
	Partitions   string `json:"partitions"`
	IdealBytes   int64  `json:"ideal_bytes"`
	ArenaBytes   int64  `json:"arena_bytes"`
	Order        string `json:"order"`
}

type paperTraffic struct {
	OnChipKB int64 `json:"onchip_kb"`
	Baseline int64 `json:"baseline_bytes"`
	Serenity int64 `json:"serenity_bytes"`
}

type paperCell struct {
	Network       string         `json:"network"`
	Dataset       string         `json:"dataset"`
	Cell          string         `json:"cell"`
	BaselineIdeal int64          `json:"baseline_ideal_bytes"`
	BaselineArena int64          `json:"baseline_arena_bytes"`
	BaselineOrder string         `json:"baseline_order"`
	DP            paperVariant   `json:"dp"`
	DPRewrite     paperVariant   `json:"dp_rewrite"`
	Belady        []paperTraffic `json:"belady_traffic"`
}

type paperTable2Row struct {
	Rewrite    bool   `json:"rewrite"`
	Algorithm  string `json:"algorithm"`
	Nodes      int    `json:"nodes"`
	Partitions string `json:"partitions"`
	PeakBytes  int64  `json:"peak_bytes,omitempty"` // absent on the algorithm-1 rows
}

type paperDoc struct {
	Cells          []paperCell      `json:"cells"`
	Fig3bOptimalKB float64          `json:"fig3b_optimal_kb"`
	Table2         []paperTable2Row `json:"table2"`
}

func paperGolden(cells []*CellResult, traffic []Fig11Row, fig3b *Fig3bResult, table2 []Table2Row) (*paperDoc, error) {
	doc := &paperDoc{Fig3bOptimalKB: fig3b.OptimalKB}
	variant := func(g *graph.Graph, sites int, ideal, arena int64, order sched.Schedule) (paperVariant, error) {
		part, err := partition.Split(g)
		if err != nil {
			return paperVariant{}, err
		}
		return paperVariant{g.NumNodes(), sites, fmt.Sprint(part.Sizes()), ideal, arena, fmt.Sprint(order)}, nil
	}
	for i, c := range cells {
		pc := paperCell{
			Network: c.Network, Dataset: c.Dataset, Cell: c.Cell,
			BaselineIdeal: c.BaselineIdeal, BaselineArena: c.BaselinePeak, BaselineOrder: fmt.Sprint(c.BaselineOrder),
		}
		_, matches, err := rewrite.Rewrite(c.Graph)
		if err != nil {
			return nil, err
		}
		if pc.DP, err = variant(c.Graph, 0, c.DPPeakIdeal, c.DPPeak, c.DPOrder); err != nil {
			return nil, err
		}
		if pc.DPRewrite, err = variant(c.RewrittenGraph, len(matches), c.DPGRPeakIdeal, c.DPGRPeak, c.DPGROrder); err != nil {
			return nil, err
		}
		for _, r := range traffic[4*i : 4*i+4] {
			pc.Belady = append(pc.Belady, paperTraffic{r.OnChipKB, r.BaselineTraffic, r.SerenityTraffic})
		}
		doc.Cells = append(doc.Cells, pc)
	}
	for _, r := range table2 {
		row := paperTable2Row{Rewrite: r.GraphRewriting, Algorithm: r.Algorithm, Nodes: r.Nodes, Partitions: fmt.Sprint(r.Partitions)}
		if r.Algorithm != "1" && r.Feasible {
			row.PeakBytes = r.Peak
		}
		doc.Table2 = append(doc.Table2, row)
	}
	return doc, nil
}

// TestPaperGolden pins what the reproduction measures — every peak, arena
// size, rewrite count, partition, order and Belady traffic figure behind
// Figures 3b, 10, 11, 15 and Table 2 — to testdata/paper/cells.json, byte for
// byte. The file was generated by the hand-rolled pipeline internal/bench
// carried before it was rebuilt on serenity.Schedule, so passing is also the
// proof that the two paths measure the same thing. Regenerate deliberately
// with `go run testdata/golden/gen.go` from the repository root.
func TestPaperGolden(t *testing.T) {
	const path = "../../testdata/paper/cells.json"
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var wantDoc paperDoc
	if err := json.Unmarshal(want, &wantDoc); err != nil {
		t.Fatal(err)
	}

	cells, err := MeasureAllCells(time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	traffic, err := Fig11(cells)
	if err != nil {
		t.Fatal(err)
	}
	fig3b, err := Fig3b(100, 2020)
	if err != nil {
		t.Fatal(err)
	}
	// The test's budgets are tighter than the generator's, so a 1+2 row may
	// be infeasible here (which TestTable2AblationDirections documents as
	// machine-dependent); such a row's peak is not compared.
	table2, err := Table2(Table2Options{PlainDPBudget: 200 * time.Millisecond, StepTimeout: time.Minute, MaxStates: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	doc, err := paperGolden(cells, traffic, fig3b, table2)
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.Table2) != len(wantDoc.Table2) {
		t.Fatalf("table 2 has %d rows, golden %d", len(doc.Table2), len(wantDoc.Table2))
	}
	for i, r := range table2 {
		if !r.Feasible {
			if r.Algorithm == "1+2+3" {
				t.Errorf("table 2 row %d (1+2+3) infeasible", i)
			}
			doc.Table2[i].PeakBytes = wantDoc.Table2[i].PeakBytes
		}
	}
	got, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	if bytes.Equal(got, want) {
		return
	}
	gotLines, wantLines := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("%s drifted at line %d:\n  measured %s\n  golden   %s", path, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("%s drifted: measured %d lines, golden %d", path, len(gotLines), len(wantLines))
}
