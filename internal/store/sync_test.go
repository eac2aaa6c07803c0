package store

// Tests for the anti-entropy building blocks: key digests, filtered
// export/import, and — most importantly — Export racing concurrent Puts,
// which is exactly the interleaving the fleet's sync loop produces when one
// node streams records to a peer while its own compile traffic keeps
// appending. Run under -race.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
)

func TestKeyHashDeterministicAndSpread(t *testing.T) {
	if KeyHash("a") != KeyHash("a") {
		t.Fatal("KeyHash is not deterministic")
	}
	seen := make(map[uint64]string)
	for i := 0; i < 4096; i++ {
		k := fmt.Sprintf("%064x|exact|a=true|t=1000000000|s=0", i)
		h := KeyHash(k)
		if prev, dup := seen[h]; dup {
			t.Fatalf("KeyHash collision between %q and %q", prev, k)
		}
		seen[h] = k
	}
}

func TestHasDoesNotPerturbRecencyOrCounters(t *testing.T) {
	s := openT(t, t.TempDir(), 0)
	if err := s.Put("old", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("new", []byte("2")); err != nil {
		t.Fatal(err)
	}
	if !s.Has("old") || s.Has("absent") {
		t.Fatal("Has answered membership wrongly")
	}
	st := s.Stats()
	if st.Hits != 0 || st.Misses != 0 {
		t.Errorf("Has moved the lookup counters: %+v", st)
	}
	// "old" must still be the LRU tail: probing it with Has must not have
	// refreshed its recency the way Get would.
	entries := s.Entries()
	if entries[len(entries)-1].Key != "old" {
		t.Errorf("Has refreshed recency; LRU order now %v", entries)
	}
}

func TestKeyHashesMatchEntries(t *testing.T) {
	s := openT(t, t.TempDir(), 0)
	want := make(map[uint64]bool)
	for i := 0; i < 32; i++ {
		k := fmt.Sprintf("key-%d", i)
		if err := s.Put(k, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		want[KeyHash(k)] = true
	}
	got := s.KeyHashes()
	if len(got) != len(want) {
		t.Fatalf("KeyHashes returned %d hashes, want %d", len(got), len(want))
	}
	for _, h := range got {
		if !want[h] {
			t.Fatalf("KeyHashes returned unexpected hash %x", h)
		}
	}
}

func TestExportFilteredStreamsOnlyKeptRecords(t *testing.T) {
	src := openT(t, t.TempDir(), 0)
	for i := 0; i < 10; i++ {
		if err := src.Put(fmt.Sprintf("k%02d", i), bytes.Repeat([]byte{byte(i)}, 8)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	keep := func(key string) bool { return key == "k03" || key == "k07" }
	if err := src.ExportFiltered(&buf, keep); err != nil {
		t.Fatal(err)
	}
	dst := openT(t, t.TempDir(), 0)
	added, corrupt, err := dst.Import(&buf)
	if err != nil || corrupt != 0 {
		t.Fatalf("Import: added=%d corrupt=%d err=%v", added, corrupt, err)
	}
	if added != 2 || !dst.Has("k03") || !dst.Has("k07") || dst.Has("k00") {
		t.Fatalf("filtered export delivered the wrong records: added=%d entries=%v", added, dst.Entries())
	}
}

func TestImportFilteredSkipsRejectedWithoutCountingCorrupt(t *testing.T) {
	src := openT(t, t.TempDir(), 0)
	for i := 0; i < 6; i++ {
		if err := src.Put(fmt.Sprintf("k%d", i), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := src.Export(&buf); err != nil {
		t.Fatal(err)
	}
	dst := openT(t, t.TempDir(), 0)
	if err := dst.Put("k1", []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	accept := func(key string, payload []byte) bool { return key != "k2" }
	absent := func(_ []byte, exists bool) bool { return !exists }
	added, corrupt, err := dst.ImportFiltered(&buf, accept, absent)
	if err != nil {
		t.Fatal(err)
	}
	if added != 4 || corrupt != 0 || dst.Has("k2") {
		t.Fatalf("ImportFiltered added=%d corrupt=%d k2=%t, want 4, 0 and the rejected record absent", added, corrupt, dst.Has("k2"))
	}
	// The pre-existing record must keep its established payload: skip-existing
	// is the fleet's first-writer-wins rule.
	got, ok := dst.Get("k1")
	if !ok || !bytes.Equal(got, []byte{0xFF}) {
		t.Fatalf("ImportFiltered clobbered an existing record: %x", got)
	}
}

// TestExportRacesConcurrentPuts hammers Export (and the digest/Has helpers
// the sync loop calls between exports) from one side while writer goroutines
// append, supersede, and read on the other — the exact interleaving a
// serenityd node serving peer sync under live compile traffic sees. Every
// exported stream must stand alone: a fresh store importing it may see any
// prefix of the writes, but never a corrupt record and never a torn stream.
func TestExportRacesConcurrentPuts(t *testing.T) {
	src := openT(t, t.TempDir(), 0)
	const (
		writers       = 4
		putsPerWriter = 200
		exports       = 25
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < putsPerWriter; i++ {
				// Half the keys collide across writers so Export also races
				// supersede bookkeeping, not just appends.
				key := fmt.Sprintf("k%d", (w*putsPerWriter+i)%(writers*putsPerWriter/2))
				if err := src.Put(key, bytes.Repeat([]byte{byte(i)}, 1+i%64)); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				if i%16 == 0 {
					src.Get(key)
					src.Has(key)
				}
			}
		}(w)
	}
	importDir := t.TempDir()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < exports; i++ {
			var buf bytes.Buffer
			if err := src.Export(&buf); err != nil {
				t.Errorf("Export during writes: %v", err)
				return
			}
			src.KeyHashes()
			dst, err := Open(fmt.Sprintf("%s/imp%d", importDir, i), 0)
			if err != nil {
				t.Errorf("Open import target: %v", err)
				return
			}
			_, corrupt, err := dst.Import(bytes.NewReader(buf.Bytes()))
			if err != nil || corrupt != 0 {
				t.Errorf("export %d produced a damaged stream: corrupt=%d err=%v", i, corrupt, err)
			}
			dst.Close()
		}
	}()
	wg.Wait()
	<-done
	if st := src.Stats(); st.CorruptRecords != 0 {
		t.Errorf("source store counted %d corrupt records under the race", st.CorruptRecords)
	}
}
