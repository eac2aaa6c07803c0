//go:build ignore

// Generates the golden JSON IR fixtures, the fingerprint manifest and the
// paper golden (testdata/paper/cells.json). Run from the repository root
// after an *intentional* wire-format or measured-result change:
//
//	go run testdata/golden/gen.go
//
// Committing regenerated fixtures is the explicit act that acknowledges the
// format changed; TestGoldenJSONRoundTrip failing means the change was not
// acknowledged.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	serenity "github.com/serenity-ml/serenity"
	"github.com/serenity-ml/serenity/internal/bench"
	"github.com/serenity-ml/serenity/internal/graph"
	"github.com/serenity-ml/serenity/internal/partition"
	"github.com/serenity-ml/serenity/internal/rewrite"
)

func main() {
	dir := filepath.Join("testdata", "golden")
	graphs := map[string]*serenity.Graph{
		"swiftnet_cell_a": serenity.SwiftNetCellA(),
		"randwire_small":  serenity.RandWireCell("randwire_small", 12, 4, 0.75, 5, 8, 4),
		"random_dag":      graph.RandomDAG(rand.New(rand.NewSource(3)), graph.RandomDAGConfig{Nodes: 8, EdgeProb: 0.4}),
	}
	// A rewritten graph covers the aliasing fields (Buffer/Partial ops,
	// alias_of, chan_offset, in_channels) that plain builder graphs lack.
	rw, _, err := rewrite.RewriteAll(serenity.SwiftNetCellA(), rewrite.DefaultRules(), 0)
	if err != nil {
		log.Fatal(err)
	}
	graphs["swiftnet_cell_a_rewritten"] = rw

	manifest, err := os.Create(filepath.Join(dir, "fingerprints.txt"))
	if err != nil {
		log.Fatal(err)
	}
	defer manifest.Close()
	names := []string{"random_dag", "randwire_small", "swiftnet_cell_a", "swiftnet_cell_a_rewritten"}
	// Segment fingerprints are the memo key format of serenity.SegmentMemo:
	// a silent change invalidates (or worse, aliases) every deployed memo,
	// so the manifest pins each golden graph's per-segment hashes.
	segManifest, err := os.Create(filepath.Join(dir, "segment_fingerprints.txt"))
	if err != nil {
		log.Fatal(err)
	}
	defer segManifest.Close()
	for _, name := range names {
		g := graphs[name]
		f, err := os.Create(filepath.Join(dir, name+".json"))
		if err != nil {
			log.Fatal(err)
		}
		if err := serenity.WriteGraphJSON(f, g); err != nil {
			log.Fatal(err)
		}
		f.Close()
		fmt.Fprintf(manifest, "%s %s\n", name, g.Fingerprint())
		p, err := partition.Split(g)
		if err != nil {
			log.Fatal(err)
		}
		for i, seg := range p.Segments {
			fmt.Fprintf(segManifest, "%s %d %s\n", name, i, seg.Fingerprint())
		}
	}
	// Store artifact fixture: a persistent schedule store (internal/store
	// format v1 + serenity artifact payload v1) populated by compiling
	// SwiftNet cells A and B exactly as serenityd -store-dir would. The
	// fixture pins the on-disk format end to end: TestGoldenStoreFixture
	// warm-starts from this committed directory and must reproduce the
	// pre-redesign schedule goldens with zero fresh searches, so any
	// incompatible change to the record framing, the artifact codec, the
	// segment fingerprints, or the MemoKey rendering fails the suite until
	// this fixture is regenerated — the explicit act of acknowledging a
	// format break. (store_v1_exact_v1_keys and store_v1_exact_v2_keys are
	// the fixture as it was before MemoKey became "exact|v2" and "exact|v3";
	// they are never regenerated, and TestGoldenStoreOldMemoKeysReadAsMiss
	// requires them to serve nothing.)
	storeDir := filepath.Join(dir, "store_v1")
	if err := os.RemoveAll(storeDir); err != nil {
		log.Fatal(err)
	}
	ss, err := serenity.OpenScheduleStore(storeDir, 0)
	if err != nil {
		log.Fatal(err)
	}
	opts := serenity.DefaultOptions()
	opts.StepTimeout = time.Minute
	pipe, err := serenity.NewPipeline(opts)
	if err != nil {
		log.Fatal(err)
	}
	pipe.SegmentMemo = serenity.NewSegmentMemo(256)
	pipe.Store = ss
	for _, g := range []*serenity.Graph{serenity.SwiftNetCellA(), serenity.SwiftNetCellB()} {
		if _, err := pipe.Run(context.Background(), g); err != nil {
			log.Fatal(err)
		}
	}
	if err := ss.Close(); err != nil {
		log.Fatal(err)
	}

	writePaperGolden()

	fmt.Println("golden fixtures regenerated")
}

// The paper golden: everything deterministic that internal/bench measures for
// Figures 3b, 10, 11, 13, 15 and Table 2 — bytes, counts and orders, never
// timings, and not whether Table 2's whole-graph DP rows (algorithm 1 alone)
// finish, which depends on the machine. internal/bench's TestPaperGolden
// rebuilds this document (paperGolden there is this function's twin) and
// fails on any drift, so a PR cannot trade optimality, a rewrite site or a
// partition away silently.

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

func paperGolden(cells []*bench.CellResult, traffic []bench.Fig11Row, fig3b *bench.Fig3bResult, table2 []bench.Table2Row) (*paperDoc, error) {
	doc := &paperDoc{Fig3bOptimalKB: fig3b.OptimalKB}
	variant := func(g *serenity.Graph, sites int, ideal, arena int64, order serenity.Order) (paperVariant, error) {
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

func writePaperGolden() {
	cells, err := bench.MeasureAllCells(time.Minute)
	if err != nil {
		log.Fatal(err)
	}
	traffic, err := bench.Fig11(cells)
	if err != nil {
		log.Fatal(err)
	}
	fig3b, err := bench.Fig3b(100, 2020)
	if err != nil {
		log.Fatal(err)
	}
	// Budgets far above what SwiftNet's segments need: a row that could be
	// feasible is, so every 1+2 and 1+2+3 peak is recorded.
	table2, err := bench.Table2(bench.Table2Options{PlainDPBudget: time.Minute, StepTimeout: time.Minute})
	if err != nil {
		log.Fatal(err)
	}
	doc, err := paperGolden(cells, traffic, fig3b, table2)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range doc.Table2 {
		if r.Algorithm != "1" && r.PeakBytes == 0 {
			log.Fatalf("table 2 row %s (rewrite=%t) infeasible under generous budgets", r.Algorithm, r.Rewrite)
		}
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join("testdata", "paper", "cells.json"), append(out, '\n'), 0o644); err != nil {
		log.Fatal(err)
	}
}
