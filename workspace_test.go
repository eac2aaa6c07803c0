package serenity

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"github.com/serenity-ml/serenity/internal/models"
)

// recycleGraphs is a sequence that makes stale memory show: large then
// small, rewritable (SwiftNet and DARTS cells) then not (stacked RandWire),
// and the largest graph last again.
func recycleGraphs() []*Graph {
	big := models.StackedRandWire("big", 6, models.WSConfig{Nodes: 24, K: 4, P: 0.75, Seed: 3, HW: 16, Channel: 8})
	return []*Graph{
		big,
		SwiftNetCellA(),
		RandWireCell("small", 10, 4, 0.75, 5, 8, 4),
		DARTSNormalCell(),
		SwiftNetCellC(),
		models.StackedRandWire("mid", 3, models.WSConfig{Nodes: 16, K: 4, P: 0.75, Seed: 9, HW: 8, Channel: 4}),
		big,
	}
}

// failingSearcher fails every segment, so a Run ends in its search stage after
// the rewrite and the partition have filled the working set.
type failingSearcher struct{}

func (failingSearcher) Name() string { return "failing" }

func (failingSearcher) Search(context.Context, *MemModel) (SearchResult, error) {
	return SearchResult{}, errors.New("no schedule")
}

// stripTimings zeroes what differs between two runs of the same compilation.
func stripTimings(r *Result) Result {
	c := *r
	c.Stages, c.SchedulingTime = StageTimings{}, 0
	return c
}

// TestRecycledRunMatchesFresh decodes and compiles the sequence back to back
// in one Workspace, with a failed compilation between every pair, and holds
// each Result to a fresh Run on a freshly decoded graph: the Graph the
// Workspace returns must equal the fresh one node for node until the
// Workspace's next use, and the fields a caller keeps (Order, PartitionSizes,
// SegmentQuality) must survive every later compilation.
func TestRecycledRunMatchesFresh(t *testing.T) {
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	failing := *p
	failing.Searcher = failingSearcher{}
	ctx := context.Background()
	var ws Workspace
	type kept struct {
		order, sizes []int
		qualities    []Quality
	}
	var held, copies []kept
	for i, src := range recycleGraphs() {
		var buf bytes.Buffer
		if err := WriteGraphJSON(&buf, src); err != nil {
			t.Fatal(err)
		}
		fresh, err := ReadGraphJSON(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.Run(ctx, fresh)
		if err != nil {
			t.Fatal(err)
		}
		g, err := ws.DecodeGraph(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.RunIn(ctx, g, &ws)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(stripTimings(got), stripTimings(want)) {
			t.Fatalf("graph %d (%s): the recycled compilation differs from a fresh one", i, src.Name)
		}
		held = append(held, kept{got.Order, got.PartitionSizes, got.SegmentQuality})
		copies = append(copies, kept{slices.Clone(got.Order), slices.Clone(got.PartitionSizes), slices.Clone(got.SegmentQuality)})
		if _, err := failing.RunIn(ctx, g, &ws); err == nil {
			t.Fatalf("graph %d: a searcher that fails every segment compiled", i)
		}
	}
	if !reflect.DeepEqual(held, copies) {
		t.Fatal("a Result field the caller keeps changed under later compilations in the same Workspace")
	}
}

// TestWarmRunBytes pins what a warm all-hit compilation allocates on the
// graph TestWarmRunAllocationCeiling uses (six stacked WS(24) cells, 18
// segments), counted in bytes as well as objects: in a recycled Workspace,
// what is left is what the caller keeps or the memo walk needs — the Result,
// its order, sizes and qualities, the segment names and memo keys. Measured
// 92 allocations and ~10 KB; on a fresh Workspace, as Run compiles, 216 and
// ~168 KB. A stage that stops building in the Workspace fails here.
func TestWarmRunBytes(t *testing.T) {
	g := models.StackedRandWire("warm-stack", 6, models.WSConfig{Nodes: 24, K: 4, P: 0.75, Seed: 3, HW: 16, Channel: 8})
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p.SegmentMemo = NewSegmentMemo(64)
	ctx := context.Background()
	var ws Workspace
	if _, err := p.RunIn(ctx, g, &ws); err != nil {
		t.Fatal(err)
	}
	run := func() {
		res, err := p.RunIn(ctx, g, &ws)
		if err != nil || res.SegmentMemoHits != len(res.PartitionSizes) {
			t.Fatalf("warm run: %d of %d segments hit, err=%v", res.SegmentMemoHits, len(res.PartitionSizes), err)
		}
	}
	allocs := testing.AllocsPerRun(20, run)
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("warm RunIn: %.0f allocations, %d bytes; the Workspace keeps %d bytes", allocs, perRun, ws.Bytes())
	if allocs > 130 {
		t.Errorf("warm RunIn allocates %.0f objects, want at most 130", allocs)
	}
	if perRun > 16<<10 {
		t.Errorf("warm RunIn allocates %d bytes, want at most 16 KiB", perRun)
	}
}
