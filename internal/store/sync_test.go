package store

// Tests for the anti-entropy building blocks: key digests, filtered
// export/import, and — most importantly — Export racing concurrent writes,
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

func TestKeyHashesMatchEntries(t *testing.T) {
	s := openT(t, t.TempDir(), 0)
	want := make(map[uint64]bool)
	for i := 0; i < 32; i++ {
		k := fmt.Sprintf("key-%d", i)
		put(t, s, k, []byte{byte(i)})
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

func TestExportStreamsOnlyKeptRecords(t *testing.T) {
	src := openT(t, t.TempDir(), 0)
	for i := 0; i < 10; i++ {
		put(t, src, fmt.Sprintf("k%02d", i), bytes.Repeat([]byte{byte(i)}, 8))
	}
	var buf bytes.Buffer
	keep := func(key string) bool { return key == "k03" || key == "k07" }
	if err := src.Export(&buf, keep); err != nil {
		t.Fatal(err)
	}
	dst := openT(t, t.TempDir(), 0)
	added, corrupt, err := dst.Import(&buf, nil)
	if err != nil || corrupt != 0 {
		t.Fatalf("Import: added=%d corrupt=%d err=%v", added, corrupt, err)
	}
	_, has03 := dst.Get("k03")
	_, has07 := dst.Get("k07")
	_, has00 := dst.Get("k00")
	if added != 2 || !has03 || !has07 || has00 {
		t.Fatalf("filtered export delivered the wrong records: added=%d entries=%v", added, dst.Entries())
	}
}

func TestImportSkipsRejectedWithoutCountingCorrupt(t *testing.T) {
	src := openT(t, t.TempDir(), 0)
	for i := 0; i < 6; i++ {
		put(t, src, fmt.Sprintf("k%d", i), []byte{byte(i)})
	}
	var buf bytes.Buffer
	if err := src.Export(&buf, nil); err != nil {
		t.Fatal(err)
	}
	dst := openT(t, t.TempDir(), 0)
	put(t, dst, "k1", []byte{0xFF})
	accept := func(key string, payload []byte) bool { return key != "k2" }
	added, corrupt, err := dst.Import(&buf, accept)
	if err != nil {
		t.Fatal(err)
	}
	_, has2 := dst.Get("k2")
	if added != 4 || corrupt != 0 || has2 {
		t.Fatalf("Import added=%d corrupt=%d k2=%t, want 4, 0 and the rejected record absent", added, corrupt, has2)
	}
	// The pre-existing record must keep its established payload: skip-existing
	// is the fleet's first-writer-wins rule.
	got, ok := dst.Get("k1")
	if !ok || !bytes.Equal(got, []byte{0xFF}) {
		t.Fatalf("Import clobbered an existing record: %x", got)
	}
}

// TestExportRacesConcurrentPuts hammers Export (and the digest the sync loop
// reads between exports) from one side while writer goroutines append, lose
// first-writer races, delete, and read on the other — the exact interleaving a
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
				// Half the keys collide across writers, and some are deleted
				// again, so Export also races the refusal and dead-space
				// bookkeeping, not just appends.
				key := fmt.Sprintf("k%d", (w*putsPerWriter+i)%(writers*putsPerWriter/2))
				if _, err := src.PutIfAbsent(key, bytes.Repeat([]byte{byte(i)}, 1+i%64)); err != nil {
					t.Errorf("PutIfAbsent: %v", err)
					return
				}
				if i%16 == 0 {
					src.Get(key)
					src.Delete(key)
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
			if err := src.Export(&buf, nil); err != nil {
				t.Errorf("Export during writes: %v", err)
				return
			}
			src.KeyHashes()
			dst, err := Open(fmt.Sprintf("%s/imp%d", importDir, i), 0)
			if err != nil {
				t.Errorf("Open import target: %v", err)
				return
			}
			_, corrupt, err := dst.Import(bytes.NewReader(buf.Bytes()), nil)
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
