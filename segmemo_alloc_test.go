package serenity

import (
	"context"
	"testing"
)

// TestMemoWarmPathZeroAlloc pins the tracing-off overhead contract: an
// untraced lookup that hits the in-memory tier performs zero heap
// allocations. The trace hooks in walkMemo are nil-guarded for exactly this —
// span and attribute construction must only happen when a live span rides
// the context.
func TestMemoWarmPathZeroAlloc(t *testing.T) {
	m := NewSegmentMemo(16)
	ctx := context.Background()
	compute := func() (SearchResult, error) {
		return SearchResult{Order: []int{0, 1, 2}, Quality: QualityOptimal}, nil
	}
	if _, tier, err := walkMemo(ctx, m, nil, nil, "k", 3, compute); err != nil || tier != memoTierMiss {
		t.Fatalf("seeding the memo: tier=%v err=%v", tier, err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		_, tier, err := walkMemo(ctx, m, nil, nil, "k", 3, compute)
		if err != nil || tier != memoTierMemory {
			t.Fatalf("warm lookup: tier=%v err=%v", tier, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("untraced memo warm path allocates %.1f per op, want 0", allocs)
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
