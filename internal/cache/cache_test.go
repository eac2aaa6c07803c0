package cache

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestLRUBasics(t *testing.T) {
	c := New[int](2)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache returned a hit")
	}
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d,%v", v, ok)
	}
	c.Put("c", 3) // evicts b: a was touched more recently
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s missing after eviction of b", k)
		}
	}
	s := c.Stats()
	if s.Evictions != 1 || s.Len != 2 {
		t.Errorf("stats = %+v, want 1 eviction, len 2", s)
	}
	if s.Hits != 3 || s.Misses != 2 {
		t.Errorf("stats = %+v, want 3 hits / 2 misses", s)
	}
}

func TestPutRefreshesExisting(t *testing.T) {
	c := New[string](2)
	c.Put("k", "old")
	c.Put("k", "new")
	if c.Len() != 1 {
		t.Fatalf("len = %d after double Put", c.Len())
	}
	if v, _ := c.Get("k"); v != "new" {
		t.Errorf("Get = %q, want refreshed value", v)
	}
}

func TestCapacityFloor(t *testing.T) {
	c := New[int](0)
	c.Put("a", 1)
	c.Put("b", 2)
	if c.Len() != 1 {
		t.Errorf("len = %d, want capacity floor of 1", c.Len())
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[int](32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (w*31+i)%64)
				if v, ok := c.Get(k); ok && v != len(k) {
					t.Errorf("corrupted value %d for %s", v, k)
				}
				c.Put(k, len(k))
			}
		}(w)
	}
	wg.Wait()
	if got := c.Len(); got > 32 {
		t.Errorf("len = %d exceeds capacity", got)
	}
	s := c.Stats()
	if s.Hits+s.Misses != 8*500 {
		t.Errorf("hits+misses = %d, want %d", s.Hits+s.Misses, 8*500)
	}
}

// TestPutIfAbsentFirstWriterWins pins the conditional put: an absent key is
// stored, a held key keeps its value and hands it back, the refusal counts as
// neither hit nor miss, and of racing puts on one key exactly one is admitted.
func TestPutIfAbsentFirstWriterWins(t *testing.T) {
	c := New[int](4)
	if stands, wrote := c.PutIfAbsent("k", 1); !wrote || stands != 1 {
		t.Fatalf("PutIfAbsent on an absent key = (%d, %t), want (1, true)", stands, wrote)
	}
	if stands, wrote := c.PutIfAbsent("k", 2); wrote || stands != 1 {
		t.Fatalf("PutIfAbsent over a held key = (%d, %t), want (1, false)", stands, wrote)
	}
	if s := c.Stats(); s.Hits != 0 || s.Misses != 0 {
		t.Errorf("PutIfAbsent moved the hit/miss counters: %+v", s)
	}
	if v, _ := c.Get("k"); v != 1 {
		t.Errorf("refused PutIfAbsent changed the value to %d", v)
	}

	var wg sync.WaitGroup
	var won atomic.Int32
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, wrote := c.PutIfAbsent("contended", i); wrote {
				won.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if won.Load() != 1 {
		t.Errorf("%d racing first-writer-wins puts were admitted, want exactly 1", won.Load())
	}
}
