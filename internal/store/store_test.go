package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

func openT(t *testing.T, dir string, maxBytes int64) *Store {
	t.Helper()
	s, err := Open(dir, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// put is PutIfAbsent for keys the test knows to be absent.
func put(t *testing.T, s *Store, key string, payload []byte) {
	t.Helper()
	if wrote, err := s.PutIfAbsent(key, payload); err != nil || !wrote {
		t.Fatalf("PutIfAbsent(%q): wrote=%t err=%v", key, wrote, err)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 0)
	pairs := map[string][]byte{
		"alpha": []byte("one"),
		"beta":  {},
		"gamma": bytes.Repeat([]byte{0xAB}, 4096),
	}
	for k, v := range pairs {
		put(t, s, k, v)
	}
	for k, v := range pairs {
		got, ok := s.Get(k)
		if !ok {
			t.Fatalf("Get(%q) missed", k)
		}
		if !bytes.Equal(got, v) {
			t.Errorf("Get(%q) = %x, want %x", k, got, v)
		}
	}
	if _, ok := s.Get("absent"); ok {
		t.Error("Get on an absent key reported a hit")
	}
	st := s.Stats()
	if st.Entries != 3 || st.Writes != 3 {
		t.Errorf("stats %+v do not reconcile with the workload", st)
	}
}

func TestReopenRestoresEntries(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 0)
	for i := 0; i < 10; i++ {
		put(t, s, fmt.Sprintf("k%02d", i), []byte{byte(i)})
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// A second record for one key, as older builds appended on overwrite (and
	// as a write after a rotten record leaves): the later record must win
	// after reopen.
	f, err := os.OpenFile(filepath.Join(dir, DataFileName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(encodeRecord("k03", []byte("new"))); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s2 := openT(t, dir, 0)
	if st := s2.Stats(); st.Entries != 10 || st.CorruptRecords != 0 {
		t.Fatalf("reopen: stats %+v, want 10 clean entries", st)
	}
	got, ok := s2.Get("k03")
	if !ok || string(got) != "new" {
		t.Errorf("superseded key after reopen = %q, %t; want \"new\"", got, ok)
	}
}

func TestLRUEvictionByBytes(t *testing.T) {
	dir := t.TempDir()
	payload := bytes.Repeat([]byte{1}, 100)
	one := int64(len(encodeRecord("k0", payload)))
	s := openT(t, dir, 3*one)
	for i := 0; i < 5; i++ {
		put(t, s, fmt.Sprintf("k%d", i), payload)
	}
	st := s.Stats()
	if st.Entries != 3 || st.Evictions != 2 {
		t.Fatalf("stats %+v; want 3 live entries, 2 evictions", st)
	}
	for i, want := range []bool{false, false, true, true, true} {
		_, ok := s.Get(fmt.Sprintf("k%d", i))
		if ok != want {
			t.Errorf("k%d present=%t, want %t (LRU order violated)", i, ok, want)
		}
	}
	// Touch k2, insert another: k3 (now LRU) must go, k2 stay.
	s.Get("k2")
	put(t, s, "k5", payload)
	if _, ok := s.Get("k3"); ok {
		t.Error("k3 survived despite being least recently used")
	}
	if _, ok := s.Get("k2"); !ok {
		t.Error("recency refresh did not protect k2")
	}
}

func TestOversizedRecordRejected(t *testing.T) {
	s := openT(t, t.TempDir(), 64)
	if _, err := s.PutIfAbsent("key", bytes.Repeat([]byte{1}, 128)); err != ErrTooLarge {
		t.Fatalf("PutIfAbsent oversized = %v, want ErrTooLarge", err)
	}
	if st := s.Stats(); st.Writes != 0 || st.Entries != 0 {
		t.Errorf("oversized record left traces: %+v", st)
	}
}

func TestCompactReclaimsDeadSpace(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 0)
	for i := 0; i < 20; i++ {
		put(t, s, fmt.Sprintf("k%d", i), bytes.Repeat([]byte{byte(i)}, 64))
	}
	// Delete half the keys: half the file is dead.
	for i := 0; i < 10; i++ {
		if !s.Delete(fmt.Sprintf("k%d", i)) {
			t.Fatalf("Delete(k%d) found nothing", i)
		}
	}
	before := s.Stats()
	if before.DeadBytes == 0 {
		t.Fatal("deletes produced no dead bytes")
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.DeadBytes != 0 {
		t.Errorf("dead bytes after compact: %d", after.DeadBytes)
	}
	if after.FileBytes >= before.FileBytes {
		t.Errorf("file did not shrink: %d -> %d", before.FileBytes, after.FileBytes)
	}
	if after.Entries != 10 {
		t.Errorf("entries after compact: %d, want 10", after.Entries)
	}
	for i := 10; i < 20; i++ {
		got, ok := s.Get(fmt.Sprintf("k%d", i))
		if !ok || !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 64)) {
			t.Errorf("k%d wrong after compact (ok=%t)", i, ok)
		}
	}
	// And the compacted file must reopen cleanly with recency preserved.
	s.Close()
	s2 := openT(t, dir, 0)
	if st := s2.Stats(); st.Entries != 10 || st.CorruptRecords != 0 {
		t.Errorf("post-compact reopen stats %+v", st)
	}
}

// corruptAt flips one byte of the data file. An open store sees the flip on
// its next read of that record; Open sees it on its scan.
func corruptAt(t *testing.T, dir string, off int64) {
	t.Helper()
	path := filepath.Join(dir, DataFileName)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

func TestOpenSkipsCRCCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 0)
	var offs []int64
	for i := 0; i < 3; i++ {
		offs = append(offs, s.Stats().FileBytes)
		put(t, s, fmt.Sprintf("k%d", i), bytes.Repeat([]byte{byte(i)}, 32))
	}
	s.Close()
	// Flip a payload byte of the middle record: well-framed, bad CRC.
	corruptAt(t, dir, offs[1]+recHeaderSize+4)

	s2 := openT(t, dir, 0)
	st := s2.Stats()
	if st.CorruptRecords != 1 || st.Entries != 2 {
		t.Fatalf("stats %+v; want 1 corrupt, 2 survivors", st)
	}
	if _, ok := s2.Get("k1"); ok {
		t.Error("CRC-corrupt record served")
	}
	for _, k := range []string{"k0", "k2"} {
		if _, ok := s2.Get(k); !ok {
			t.Errorf("%s lost despite being intact", k)
		}
	}
}

func TestOpenTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 0)
	put(t, s, "whole", []byte("payload"))
	good := s.Stats().FileBytes
	put(t, s, "torn", bytes.Repeat([]byte{7}, 64))
	s.Close()
	// Simulate a crash mid-append: cut the last record in half.
	path := filepath.Join(dir, DataFileName)
	if err := os.Truncate(path, good+9); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir, 0)
	st := s2.Stats()
	if st.CorruptRecords != 1 || st.Entries != 1 {
		t.Fatalf("stats %+v; want the torn record counted and dropped", st)
	}
	if st.FileBytes != good {
		t.Errorf("file not truncated back to the last good record: %d != %d", st.FileBytes, good)
	}
	// Appends after the repair must be readable.
	put(t, s2, "after", []byte("repair"))
	s2.Close()
	s3 := openT(t, dir, 0)
	if got, ok := s3.Get("after"); !ok || string(got) != "repair" {
		t.Errorf("append after tail repair unreadable (ok=%t, %q)", ok, got)
	}
}

func TestOpenSetsAsideAlienHeader(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, DataFileName)
	if err := os.WriteFile(path, []byte("this is not an artifact store at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openT(t, dir, 0)
	if st := s.Stats(); st.CorruptRecords != 1 || st.Entries != 0 {
		t.Errorf("stats %+v; want the alien file counted once", st)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("alien file not set aside: %v", err)
	}
	put(t, s, "k", []byte("v"))
}

func TestGetReVerifiesCRC(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 0)
	put(t, s, "k", bytes.Repeat([]byte{3}, 32))
	// Rot a byte underneath the open store.
	path := filepath.Join(dir, DataFileName)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xEE}, headerSize+recHeaderSize+2); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, ok := s.Get("k"); ok {
		t.Fatal("bit-rotted record served to the caller")
	}
	if st := s.Stats(); st.CorruptRecords != 1 || st.Entries != 0 {
		t.Errorf("stats %+v after bit rot", st)
	}
}

func TestExportImport(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 0)
	for i := 0; i < 5; i++ {
		put(t, s, fmt.Sprintf("k%d", i), bytes.Repeat([]byte{byte(i)}, 16))
	}
	var buf bytes.Buffer
	if err := s.Export(&buf, nil); err != nil {
		t.Fatal(err)
	}

	dst := openT(t, t.TempDir(), 0)
	put(t, dst, "k1", []byte("local"))
	added, corrupt, err := dst.Import(bytes.NewReader(buf.Bytes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if added != 4 || corrupt != 0 {
		t.Fatalf("import added %d (corrupt %d), want the 4 keys the store lacked", added, corrupt)
	}
	if st := dst.Stats(); st.Entries != 5 {
		t.Errorf("entries after import: %d", st.Entries)
	}
	// First writer wins: the established record keeps its bytes.
	if got, ok := dst.Get("k1"); !ok || string(got) != "local" {
		t.Errorf("import replaced the established record with %q", got)
	}

	// A stream with a bad header must be refused outright.
	if _, _, err := dst.Import(bytes.NewReader([]byte("garbage")), nil); err == nil {
		t.Error("import accepted a non-store stream")
	}
	// A valid stream with a corrupt record imports the rest.
	raw := buf.Bytes()
	flip := make([]byte, len(raw))
	copy(flip, raw)
	flip[headerSize+recHeaderSize+3] ^= 0x55
	dst2 := openT(t, t.TempDir(), 0)
	added, corrupt, err = dst2.Import(bytes.NewReader(flip), nil)
	if err != nil {
		t.Fatal(err)
	}
	if added != 4 || corrupt != 1 {
		t.Errorf("tolerant import: added %d corrupt %d, want 4/1", added, corrupt)
	}
}

func TestVerifyDropsRottenRecords(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 0)
	var offs []int64
	for i := 0; i < 4; i++ {
		offs = append(offs, s.Stats().FileBytes)
		put(t, s, fmt.Sprintf("k%d", i), bytes.Repeat([]byte{byte(i)}, 24))
	}
	path := filepath.Join(dir, DataFileName)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xEE}, offs[2]+recHeaderSize+1); err != nil {
		t.Fatal(err)
	}
	f.Close()
	ok, corrupt := s.Verify()
	if ok != 3 || corrupt != 1 {
		t.Errorf("Verify = %d ok, %d corrupt; want 3/1", ok, corrupt)
	}
	if st := s.Stats(); st.Entries != 3 {
		t.Errorf("entries after Verify: %d", st.Entries)
	}
}

// TestRottenLiveRecordOnEveryReadPath flips one payload byte of a live record
// underneath an open store and runs each path that re-reads indexed records.
// Every path counts the record corrupt exactly once and never hands its bytes
// on; Get, PutIfAbsent and Verify drop it from the index, Compact leaves it out of
// the rewrite, and an export skips it but leaves the index alone.
func TestRottenLiveRecordOnEveryReadPath(t *testing.T) {
	keysOf := func(s *Store) []string {
		var out []string
		for _, e := range s.Entries() {
			out = append(out, e.Key)
		}
		sort.Strings(out)
		return out
	}
	cases := []struct {
		name string
		// run exercises one path and returns the keys that survived it: the
		// store's own for the in-place paths, the exported stream's for export.
		run         func(t *testing.T, s *Store) []string
		wantEntries int
		wantKeys    string
	}{
		{"get", func(t *testing.T, s *Store) []string {
			var hit []string
			for _, k := range []string{"k0", "k1", "k2"} {
				if _, ok := s.Get(k); ok {
					hit = append(hit, k)
				}
			}
			return hit
		}, 2, "[k0 k2]"},
		{"putif", func(t *testing.T, s *Store) []string {
			if wrote, err := s.PutIfAbsent("k1", []byte("fresh")); err != nil || !wrote {
				t.Fatalf("PutIfAbsent over a rotten record: wrote=%t err=%v; a record failing its CRC reads as absent", wrote, err)
			}
			if got, _ := s.Get("k1"); string(got) != "fresh" {
				t.Errorf("k1 after PutIfAbsent = %q, want the fresh payload", got)
			}
			return keysOf(s)
		}, 3, "[k0 k1 k2]"},
		{"verify", func(t *testing.T, s *Store) []string {
			if ok, corrupt := s.Verify(); ok != 2 || corrupt != 1 {
				t.Errorf("Verify = %d ok, %d corrupt; want 2/1", ok, corrupt)
			}
			return keysOf(s)
		}, 2, "[k0 k2]"},
		{"compact", func(t *testing.T, s *Store) []string {
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
			return keysOf(s)
		}, 2, "[k0 k2]"},
		{"export", func(t *testing.T, s *Store) []string {
			var buf bytes.Buffer
			if err := s.Export(&buf, nil); err != nil {
				t.Fatal(err)
			}
			dst := openT(t, t.TempDir(), 0)
			if _, corrupt, err := dst.Import(&buf, nil); err != nil || corrupt != 0 {
				t.Fatalf("importing the export: corrupt=%d err=%v; the rotten record must not be streamed", corrupt, err)
			}
			return keysOf(dst)
		}, 3, "[k0 k2]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openT(t, dir, 0)
			var offs []int64
			for i := 0; i < 3; i++ {
				offs = append(offs, s.Stats().FileBytes)
				put(t, s, fmt.Sprintf("k%d", i), bytes.Repeat([]byte{byte(i)}, 24))
			}
			corruptAt(t, dir, offs[1]+recHeaderSize+int64(len("k1"))+3)
			if got := fmt.Sprint(tc.run(t, s)); got != tc.wantKeys {
				t.Errorf("surviving keys %s, want %s", got, tc.wantKeys)
			}
			if st := s.Stats(); st.CorruptRecords != 1 || st.Entries != tc.wantEntries {
				t.Errorf("stats %+v; want 1 corrupt record and %d entries", st, tc.wantEntries)
			}
		})
	}
}

// TestClosedStoreOperations walks every exported method over a closed store:
// Stats keeps its final counters, lookups find nothing, and writes and
// streams fail with ErrClosed. In particular Verify must not read the
// released file and drop every live record as corrupt.
func TestClosedStoreOperations(t *testing.T) {
	src := openT(t, t.TempDir(), 0)
	put(t, src, "k2", []byte("v"))
	var stream bytes.Buffer
	if err := src.Export(&stream, nil); err != nil {
		t.Fatal(err)
	}
	src.Close()

	s := openT(t, t.TempDir(), 0)
	put(t, s, "k", []byte("v"))
	final := s.Stats()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
	if _, err := s.PutIfAbsent("k2", []byte("v")); err != ErrClosed {
		t.Errorf("PutIfAbsent on closed store: %v, want ErrClosed", err)
	}
	if _, ok := s.Get("k"); ok {
		t.Error("Get on closed store reported a hit")
	}
	if err := s.Compact(); err != ErrClosed {
		t.Errorf("Compact on closed store: %v, want ErrClosed", err)
	}
	if err := s.Export(io.Discard, nil); err != ErrClosed {
		t.Errorf("Export on closed store: %v, want ErrClosed", err)
	}
	if added, _, err := s.Import(&stream, nil); added != 0 || err != ErrClosed {
		t.Errorf("Import on closed store: added %d, %v, want ErrClosed", added, err)
	}
	if h := s.KeyHashes(); len(h) != 0 {
		t.Errorf("KeyHashes on closed store: %v", h)
	}
	if e := s.Entries(); len(e) != 0 {
		t.Errorf("Entries on closed store: %v", e)
	}
	if ok, corrupt := s.Verify(); ok != 0 || corrupt != 0 {
		t.Errorf("Verify on closed store: %d ok, %d corrupt, want nothing read", ok, corrupt)
	}
	if s.Delete("k") {
		t.Error("Delete on closed store reported a removal")
	}
	if st := s.Stats(); st != final {
		t.Errorf("closed store's stats moved: %+v -> %+v", final, st)
	}
}

func TestOpenReadOnly(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 0)
	put(t, s, "k", []byte("v"))
	good := s.Stats().FileBytes
	put(t, s, "torn", bytes.Repeat([]byte{9}, 64))
	s.Close()
	path := filepath.Join(dir, DataFileName)
	// Tear the tail: read-only must report it but leave the bytes alone.
	if err := os.Truncate(path, good+5); err != nil {
		t.Fatal(err)
	}

	ro, err := OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	if got, ok := ro.Get("k"); !ok || string(got) != "v" {
		t.Errorf("read-only Get = %q, %t", got, ok)
	}
	if st := ro.Stats(); st.CorruptRecords != 1 || st.Entries != 1 {
		t.Errorf("read-only stats %+v; want the torn tail counted, one survivor", st)
	}
	if _, err := ro.PutIfAbsent("k2", []byte("v")); err != ErrReadOnly {
		t.Errorf("read-only PutIfAbsent: %v, want ErrReadOnly", err)
	}
	if err := ro.Compact(); err != ErrReadOnly {
		t.Errorf("read-only Compact: %v, want ErrReadOnly", err)
	}
	// The torn tail must still be on disk, untruncated.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != good+5 {
		t.Errorf("read-only open changed the file: %d bytes, want %d", fi.Size(), good+5)
	}

	// A directory without a data file must be an error, and nothing may be
	// created as a side effect.
	empty := t.TempDir()
	if _, err := OpenReadOnly(empty); err == nil {
		t.Error("OpenReadOnly manufactured a store in an empty directory")
	}
	if _, err := os.Stat(filepath.Join(empty, DataFileName)); !os.IsNotExist(err) {
		t.Errorf("OpenReadOnly created %s: %v", DataFileName, err)
	}
	// An unreadable header is reported, not set aside.
	alien := t.TempDir()
	if err := os.WriteFile(filepath.Join(alien, DataFileName), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	ro2, err := OpenReadOnly(alien)
	if err != nil {
		t.Fatal(err)
	}
	defer ro2.Close()
	if st := ro2.Stats(); st.CorruptRecords != 1 || st.Entries != 0 {
		t.Errorf("read-only alien header: stats %+v", st)
	}
	if _, err := os.Stat(filepath.Join(alien, DataFileName+".corrupt")); !os.IsNotExist(err) {
		t.Error("read-only open set the alien file aside")
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open("", 0); err == nil {
		t.Error("Open accepted an empty directory")
	}
	if _, err := Open(t.TempDir(), -1); err == nil {
		t.Error("Open accepted negative MaxBytes")
	}
}

func TestRejectedVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, 0)
	put(t, s, "k", []byte("v"))
	s.Close()
	// Bump the on-disk version: a future-format file must be set aside, not
	// misread.
	path := filepath.Join(dir, DataFileName)
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var v [4]byte
	binary.LittleEndian.PutUint32(v[:], FormatVersion+1)
	if _, err := f.WriteAt(v[:], 8); err != nil {
		t.Fatal(err)
	}
	f.Close()
	s2 := openT(t, dir, 0)
	if st := s2.Stats(); st.Entries != 0 || st.CorruptRecords != 1 {
		t.Errorf("future-version file: stats %+v, want set-aside", st)
	}
}

// TestPutIfDecidesUnderTheLock pins the store's one write: a put over a
// standing record writes nothing and perturbs neither its bytes nor its
// recency, an import decides under the same lock, and — the point of the
// primitive — racing first-writer-wins puts and an import on one key admit
// exactly one.
func TestPutIfDecidesUnderTheLock(t *testing.T) {
	s := openT(t, t.TempDir(), 0)
	put(t, s, "k", []byte("first"))
	put(t, s, "newer", []byte("2"))
	if wrote, err := s.PutIfAbsent("k", []byte("second")); err != nil || wrote {
		t.Fatalf("PutIfAbsent over an existing key: wrote=%t err=%v", wrote, err)
	}
	if st := s.Stats(); st.Writes != 2 {
		t.Errorf("stats after a refused PutIfAbsent: %+v, want 2 writes", st)
	}
	// "k" must still be the LRU tail: the refused put must not have refreshed
	// its recency the way Get would.
	if entries := s.Entries(); entries[len(entries)-1].Key != "k" {
		t.Errorf("a refused put refreshed recency; LRU order now %v", entries)
	}
	if got, _ := s.Get("k"); string(got) != "first" {
		t.Errorf("refused PutIfAbsent changed the record to %q", got)
	}

	// An import writes through PutIfAbsent, so it decides under the lock too:
	// a writer landing after the import screened the record (simulated from
	// inside accept) but before its append is not overwritten.
	src := openT(t, t.TempDir(), 0)
	for _, key := range []string{"late", "contended"} {
		put(t, src, key, []byte("peer twin"))
	}
	var stream bytes.Buffer
	if err := src.Export(&stream, func(key string) bool { return key == "late" }); err != nil {
		t.Fatal(err)
	}
	landsFirst := func(key string, _ []byte) bool {
		if wrote, err := s.PutIfAbsent(key, []byte("local")); err != nil || !wrote {
			t.Errorf("mid-merge writer: wrote=%t err=%v", wrote, err)
		}
		return true
	}
	if added, _, err := s.Import(&stream, landsFirst); err != nil || added != 0 {
		t.Errorf("import over a record that landed mid-merge: added=%d err=%v, want 0 added", added, err)
	}
	if got, _ := s.Get("late"); string(got) != "local" {
		t.Errorf("import overwrote the record that landed mid-merge with %q", got)
	}

	const writers = 16
	var wg sync.WaitGroup
	var won atomic.Int64
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if wrote, err := s.PutIfAbsent("contended", []byte{byte(i)}); err != nil {
				t.Error(err)
			} else if wrote {
				won.Add(1)
			}
		}(i)
	}
	stream.Reset()
	if err := src.Export(&stream, func(key string) bool { return key == "contended" }); err != nil {
		t.Fatal(err)
	}
	added, _, err := s.Import(&stream, nil)
	if err != nil {
		t.Error(err)
	}
	wg.Wait()
	if won.Load()+int64(added) != 1 {
		t.Errorf("%d of %d racing first-writer-wins puts and %d import were admitted, want exactly 1 in total", won.Load(), writers, added)
	}
}
