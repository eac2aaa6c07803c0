package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreOpen is the corruption-robustness contract: whatever bytes sit in
// segments.dat, Open must return a working store — skipping or setting aside
// anything unreadable — and every subsequent operation must behave, never
// panic. Seeds cover a valid file, truncations, bit flips, and hostile
// length fields.
func FuzzStoreOpen(f *testing.F) {
	// A well-formed file with three records.
	valid := validStoreFile(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-3])             // torn tail
	f.Add(valid[:headerSize])               // header only
	f.Add([]byte{})                         // empty
	f.Add([]byte("not a store"))            // alien
	f.Add(bytes.Repeat([]byte{0xFF}, 1024)) // noise
	flipped := append([]byte(nil), valid...)
	flipped[headerSize+recHeaderSize+1] ^= 0x40
	f.Add(flipped) // CRC failure mid-file
	// Hostile lengths: a record header claiming a huge payload.
	hostile := append([]byte(nil), valid[:headerSize]...)
	hostile = append(hostile, encodeRecord("k", []byte("v"))...)
	hostile[headerSize+6] = 0xFF
	hostile[headerSize+7] = 0xFF
	hostile[headerSize+8] = 0xFF
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, data []byte) {
		syncWrites = false // fsync latency would reduce fuzzing to the seeds
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, DataFileName), data, 0o644); err != nil {
			t.Skip()
		}
		s, err := Open(dir, 1<<20)
		if err != nil {
			// Only genuine I/O errors may surface; corruption must not.
			t.Fatalf("Open failed on corrupt input: %v", err)
		}
		defer s.Close()
		// Every surviving entry must be fully readable.
		for _, e := range s.Entries() {
			if p, ok := s.Get(e.Key); ok && len(p) != e.PayloadLen {
				t.Fatalf("entry %q: payload %d bytes, index says %d", e.Key, len(p), e.PayloadLen)
			}
		}
		s.Delete("fuzz-probe") // the input may hold the probe's key already
		if wrote, err := s.PutIfAbsent("fuzz-probe", []byte("alive")); err != nil || !wrote {
			t.Fatalf("PutIfAbsent after corrupt open: wrote=%t err=%v", wrote, err)
		}
		if err := s.Compact(); err != nil {
			t.Fatalf("Compact after corrupt open: %v", err)
		}
		if got, ok := s.Get("fuzz-probe"); !ok || string(got) != "alive" {
			t.Fatalf("probe lost across compact (ok=%t)", ok)
		}
		s.Verify()
	})
}

// FuzzStoreReopen round-trips random workloads through close/reopen: every
// record written must come back bit-identical with zero corruption counted.
func FuzzStoreReopen(f *testing.F) {
	f.Add([]byte("seed"), 3)
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7}, 9)
	f.Fuzz(func(t *testing.T, blob []byte, n int) {
		syncWrites = false // fsync latency would reduce fuzzing to the seeds
		if n < 1 || n > 32 {
			t.Skip()
		}
		dir := t.TempDir()
		s, err := Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := map[string][]byte{}
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("key-%d", i%max(1, n-2)) // force some refused rewrites
			lo := i * len(blob) / n
			payload := append([]byte(nil), blob[lo:]...)
			wrote, err := s.PutIfAbsent(key, payload)
			if err != nil {
				t.Fatal(err)
			}
			if _, had := want[key]; wrote == had {
				t.Fatalf("key %q: wrote=%t with a record standing=%t; the first writer must win", key, wrote, had)
			}
			if wrote {
				want[key] = payload
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		s2, err := Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer s2.Close()
		if st := s2.Stats(); st.CorruptRecords != 0 || st.Entries != len(want) {
			t.Fatalf("reopen stats %+v, want %d clean entries", st, len(want))
		}
		for k, v := range want {
			got, ok := s2.Get(k)
			if !ok || !bytes.Equal(got, v) {
				t.Fatalf("key %q: got %x ok=%t, want %x", k, got, ok, v)
			}
		}
	})
}

func validStoreFile(f *testing.F) []byte {
	f.Helper()
	dir := f.TempDir()
	s, err := Open(dir, 0)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.PutIfAbsent(fmt.Sprintf("seed-%d", i), bytes.Repeat([]byte{byte(i + 1)}, 20)); err != nil {
			f.Fatal(err)
		}
	}
	s.Close()
	data, err := os.ReadFile(filepath.Join(dir, DataFileName))
	if err != nil {
		f.Fatal(err)
	}
	return data
}
