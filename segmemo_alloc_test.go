package serenity

import (
	"context"
	"testing"

	"github.com/serenity-ml/serenity/internal/models"
)

// TestMemoWarmPathZeroAlloc pins the tracing-off overhead contract: an
// untraced lookup that hits the in-memory tier performs zero heap
// allocations. The trace hooks in walkMemo are nil-guarded for exactly this —
// span and attribute construction must only happen when a live span rides
// the context.
func TestMemoWarmPathZeroAlloc(t *testing.T) {
	m := NewSegmentMemo(16)
	seg := whole(edgeless(3))
	ctx := context.Background()
	compute := func() (SearchResult, error) {
		return SearchResult{Order: []int{0, 1, 2}, Quality: QualityOptimal}, nil
	}
	if _, tier, err := walkMemo(ctx, m, nil, nil, testKey("k"), seg, noFanOut, compute); err != nil || tier != memoTierMiss {
		t.Fatalf("seeding the memo: tier=%v err=%v", tier, err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		_, tier, err := walkMemo(ctx, m, nil, nil, testKey("k"), seg, noFanOut, compute)
		if err != nil || tier != memoTierMemory {
			t.Fatalf("warm lookup: tier=%v err=%v", tier, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("untraced memo warm path allocates %.1f per op, want 0", allocs)
	}
}

// TestWarmRunAllocationCeiling bounds what an all-hit Run allocates on a
// warm-memo-shaped graph (six stacked WS(24) cells, 18 segments): one
// whole-graph memory model when nothing was rewritten, no model and no graph
// per segment — a memo hit needs the segment's node count and its key, which
// is hashed from the partition's view of the segment. Measured 51
// allocations; the ceiling is a quarter more. A slab-built graph and two
// strings per segment cost 216, building segments node by node 1682, and the
// per-tensor slices, node-ID maps and consumer sets before that 6019.
func TestWarmRunAllocationCeiling(t *testing.T) {
	g := models.StackedRandWire("warm-stack", 6, models.WSConfig{Nodes: 24, K: 4, P: 0.75, Seed: 3, HW: 16, Channel: 8})
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p.SegmentMemo = NewSegmentMemo(64)
	ctx := context.Background()
	if _, err := p.Run(ctx, g); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		res, err := p.Run(ctx, g)
		if err != nil || res.SegmentMemoHits != len(res.PartitionSizes) {
			t.Fatalf("warm run: %d of %d segments hit, err=%v", res.SegmentMemoHits, len(res.PartitionSizes), err)
		}
	})
	t.Logf("warm Run: %.0f allocations", allocs)
	if allocs > 62 {
		t.Fatalf("warm Run allocates %.0f per op, want at most 62", allocs)
	}
}

func TestMemoTierNames(t *testing.T) {
	want := map[memoTier]string{
		memoTierMemory: "memory",
		memoTierDisk:   "disk",
		memoTierPeer:   "peer",
		memoTierMiss:   "fresh",
	}
	for tier, name := range want {
		if got := tier.name(); got != name {
			t.Errorf("tier %d name = %q, want %q", tier, got, name)
		}
	}
}
