//go:build ignore

// Generates the golden JSON IR fixtures and the fingerprint manifest. Run
// from the repository root after an *intentional* wire-format change:
//
//	go run testdata/golden/gen.go
//
// Committing regenerated fixtures is the explicit act that acknowledges the
// format changed; TestGoldenJSONRoundTrip failing means the change was not
// acknowledged.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	serenity "github.com/serenity-ml/serenity"
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
	// format break. (store_v1_exact_v1_keys is the fixture as it was before
	// MemoKey became "exact|v2"; it is never regenerated, and
	// TestGoldenStoreOldMemoKeysReadAsMiss requires it to serve nothing.)
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

	fmt.Println("golden fixtures regenerated")
}
