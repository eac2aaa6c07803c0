// Package store implements the on-disk schedule artifact store: a
// content-addressed, crash-tolerant byte store that persists per-segment
// search results across process restarts, so a redeployed or recovered
// serenityd warm-starts from the corpus its predecessor paid for instead of
// re-running every DP under live traffic.
//
// # Layout
//
// A store is one directory holding a single append-only data file
// (segments.dat) in artifact format version 1:
//
//	header:  8-byte magic "SRNSTOR\x01" | uint32 LE format version
//	record:  uint32 LE record magic | uint16 LE key length |
//	         uint32 LE payload length | key | payload |
//	         uint32 LE CRC-32 (IEEE) over key||payload
//
// Keys are the caller's content addresses (serenity uses
// Segment.Fingerprint()+"|"+MemoKey(), both golden-pinned); payloads are
// opaque bytes — the store never interprets them. A key names one answer, so
// the only write is PutIfAbsent: the first record for a key stands until it is
// deleted, evicted or found rotten. Open still lets a later record for a key
// supersede an earlier one: files written by older builds hold such pairs, and
// so does a file where a write followed a rotten record.
//
// # Durability and corruption
//
// Appends go straight to the data file; rewrites (Compact, and salvaging a
// store whose header is unreadable) build a temp file in the same directory
// and atomically rename it over segments.dat, so a crash at any moment leaves
// either the old file or the new one, never a half-rewritten hybrid. Open
// scans the file record by record: a record with a bad checksum is skipped, a
// torn append (truncated tail, bad framing) truncates the file back to the
// last well-formed record, and an unreadable header sets the whole file aside
// as segments.dat.corrupt and starts fresh. Every skipped record increments
// the corrupt-records counter; no input, however mangled, makes Open panic.
//
// # Bounds
//
// The store is size-bounded: when the live records exceed MaxBytes the least
// recently used entries are evicted from the index (their file space becomes
// dead until the next Compact). Get refreshes recency; Compact rewrites only
// live records, preserving recency order across a reopen.
package store

import (
	"bufio"
	"container/list"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// FormatVersion is the artifact format this package reads and writes. Bump it
// only with a migration plan: Open rejects files written by other versions
// (they are set aside, not misread).
const FormatVersion = 1

// DataFileName is the store's single data file inside its directory.
const DataFileName = "segments.dat"

// fileMagic opens every data file; the trailing byte doubles as a
// format-era discriminator so truncating the version word cannot alias an
// old-era file into a new one.
var fileMagic = [8]byte{'S', 'R', 'N', 'S', 'T', 'O', 'R', 1}

// recMagic frames every record ("SREC" little-endian).
const recMagic uint32 = 0x43455253

const (
	headerSize    = 12 // fileMagic + uint32 version
	recHeaderSize = 10 // recMagic + keyLen + payloadLen
	recTrailerLen = 4  // CRC-32

	// MaxKeyLen and MaxPayloadLen bound one record; Open treats larger
	// claimed lengths as corruption rather than allocating them.
	MaxKeyLen     = 1 << 12
	MaxPayloadLen = 1 << 26
)

// ErrTooLarge is returned by PutIfAbsent when a single record cannot fit the
// store's byte bound at all.
var ErrTooLarge = errors.New("store: record exceeds the store's MaxBytes")

// syncWrites gates the fsync calls on rewrite and close. Always true outside
// tests; the fuzz harness disables it because per-exec fsync latency would
// reduce fuzzing to running the seed corpus.
var syncWrites = true

func maybeSync(f *os.File) error {
	if !syncWrites {
		return nil
	}
	return f.Sync()
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("store: closed")

// KeyHash is the 64-bit digest of one record key used by the fleet's
// anti-entropy exchange: peers compare sets of key hashes instead of shipping
// full key lists, so the hash must be identical on every node. FNV-1a with a
// splitmix64 finalizer — the finalizer matters because raw FNV of the short
// structured keys serenity uses (hex fingerprint + strategy discriminator)
// clusters in the low bits.
func KeyHash(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// ErrReadOnly is returned by mutating operations on a store opened with
// OpenReadOnly.
var ErrReadOnly = errors.New("store: opened read-only")

// Stats is a snapshot of the store's counters. CorruptRecords counts records
// dropped for failing validation — at Open, on a Get re-check, during Compact
// or Import — over the store's lifetime. Lookup hits and misses are the
// caller's to count: only it can tell a payload it cannot use from a good one.
type Stats struct {
	Writes         int64
	Evictions      int64
	CorruptRecords int64
	// LiveBytes is the file space occupied by indexed (retrievable) records,
	// headers included; DeadBytes the space held by deleted, evicted,
	// superseded or corrupt records that Compact would reclaim; FileBytes the
	// data file's current size.
	LiveBytes int64
	DeadBytes int64
	FileBytes int64
	Entries   int
}

// Entry describes one live record, for listings.
type Entry struct {
	Key        string
	PayloadLen int
	// Size is the record's total on-disk footprint, framing included.
	Size int64
}

// rec locates one live record in the data file.
type rec struct {
	key        string
	off        int64 // record start
	size       int64 // total bytes including framing
	payloadLen int
}

// Store is the on-disk artifact store. It is safe for concurrent use.
type Store struct {
	mu       sync.Mutex
	dir      string
	path     string
	f        *os.File
	size     int64 // current append offset
	maxBytes int64 // 0 = unbounded

	ll    *list.List // front = most recently used; values are *rec
	items map[string]*list.Element

	liveBytes int64
	deadBytes int64

	writes, evictions, corrupt int64
	closed                     bool
	readOnly                   bool
}

// Open opens (creating if needed) the store in dir, bounded to maxBytes of
// live records (0 = unbounded). The data file is scanned and validated record
// by record; corrupt or truncated records are skipped and counted, never
// fatal. The returned store must be closed to release the file handle.
//
// Open may repair the file in place (truncating torn tails, setting aside an
// unreadable file), so it must not race a live writer on the same directory;
// use OpenReadOnly for inspection tooling.
func Open(dir string, maxBytes int64) (*Store, error) {
	return open(dir, maxBytes, false)
}

// OpenReadOnly opens an existing store without modifying anything on disk:
// no file creation, no tail truncation, no setting-aside of corrupt files —
// corruption is still skipped and counted, the bytes are just left alone. A
// missing data file is an error (inspecting a mistyped directory must not
// manufacture an empty store). Mutating operations (PutIfAbsent, Compact,
// Import) return ErrReadOnly. Safe to run against a directory a live
// serenityd is appending to: at worst the scan sees a mid-append tail and
// counts it as one corrupt record.
func OpenReadOnly(dir string) (*Store, error) {
	return open(dir, 0, true)
}

func open(dir string, maxBytes int64, readOnly bool) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if maxBytes < 0 {
		return nil, fmt.Errorf("store: negative MaxBytes %d", maxBytes)
	}
	if !readOnly {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	s := &Store{
		dir:      dir,
		path:     filepath.Join(dir, DataFileName),
		maxBytes: maxBytes,
		readOnly: readOnly,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.evictLocked()
	s.mu.Unlock()
	return s, nil
}

// load opens the data file and rebuilds the index, handling every corruption
// mode without failing: only genuine I/O errors propagate.
func (s *Store) load() error {
	flags, perm := os.O_RDWR|os.O_CREATE, os.FileMode(0o644)
	if s.readOnly {
		flags, perm = os.O_RDONLY, 0
	}
	f, err := os.OpenFile(s.path, flags, perm)
	if err != nil {
		return err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	if fi.Size() == 0 {
		if s.readOnly {
			// An empty file holds nothing to index and nothing to write.
			s.f = f
			return nil
		}
		if err := writeHeader(f); err != nil {
			f.Close()
			return err
		}
		s.f, s.size = f, headerSize
		return nil
	}

	var hdr [headerSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil || !validHeader(hdr) {
		// The header itself is unreadable: nothing in the file can be
		// trusted. Read-only inspection leaves the evidence in place; a
		// writable store sets it aside for post-mortem and starts fresh.
		s.corrupt++
		if s.readOnly {
			s.f = f
			return nil
		}
		f.Close()
		if err := os.Rename(s.path, s.path+".corrupt"); err != nil {
			return fmt.Errorf("store: setting aside corrupt data file: %w", err)
		}
		return s.createFresh()
	}

	_, corrupt, dead, truncated := s.scanFile(f, fi.Size())
	s.corrupt += corrupt
	s.deadBytes += dead
	if truncated < fi.Size() && !s.readOnly {
		// A torn append (or unframeable garbage) follows the last good
		// record; cut it off so future appends restore a clean stream.
		if err := f.Truncate(truncated); err != nil {
			f.Close()
			return err
		}
	}
	s.f, s.size = f, truncated
	return nil
}

// createFresh atomically replaces the data file with an empty one (header
// only) via temp-file+rename.
func (s *Store) createFresh() error {
	tmp, err := os.CreateTemp(s.dir, DataFileName+".tmp-*")
	if err != nil {
		return err
	}
	if err := writeHeader(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := maybeSync(tmp); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), s.path); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	s.f, s.size = tmp, headerSize
	return nil
}

func writeHeader(w io.Writer) error {
	var hdr [headerSize]byte
	copy(hdr[:8], fileMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:], FormatVersion)
	_, err := w.Write(hdr[:])
	return err
}

func validHeader(hdr [headerSize]byte) bool {
	return [8]byte(hdr[:8]) == fileMagic &&
		binary.LittleEndian.Uint32(hdr[8:]) == FormatVersion
}

// scanFile indexes every well-formed record from the already-positioned file
// (reader just past the header). It returns the number of live records, the
// corrupt records skipped, dead bytes from CRC-failed and superseded records,
// and the offset of the first byte that could not be framed (the truncation
// point; == fileSize when the whole file framed cleanly).
func (s *Store) scanFile(f *os.File, fileSize int64) (good, corrupt, dead int64, truncated int64) {
	br := bufio.NewReaderSize(f, 1<<16)
	off := int64(headerSize)
	for {
		key, payload, recSize, ok, fatal := readRecord(br, fileSize-off)
		if fatal {
			// Unframeable bytes: everything from off onward is lost. Count
			// the torn tail as one corrupt record if any bytes remain.
			if off < fileSize {
				corrupt++
			}
			return good, corrupt, dead, off
		}
		if !ok {
			// Well-framed but CRC-failed: skip it, keep scanning.
			corrupt++
			dead += recSize
			off += recSize
			continue
		}
		if el, exists := s.items[key]; exists {
			// A later append supersedes the earlier record.
			old := el.Value.(*rec)
			dead += old.size
			s.liveBytes -= old.size
			s.ll.Remove(el)
			delete(s.items, key)
		}
		r := &rec{key: key, off: off, size: recSize, payloadLen: len(payload)}
		s.items[key] = s.ll.PushFront(r)
		s.liveBytes += recSize
		good++
		off += recSize
		if off == fileSize {
			return good, corrupt, dead, off
		}
	}
}

// readRecord decodes one record from br, which has at most remain bytes
// left. ok=false,fatal=false means a well-framed record failed its CRC (skip
// it; recSize is valid). fatal=true means framing itself is broken —
// truncated tail, bad magic, or an implausible length — and scanning must
// stop.
func readRecord(br *bufio.Reader, remain int64) (key string, payload []byte, recSize int64, ok, fatal bool) {
	if remain == 0 {
		return "", nil, 0, false, true
	}
	var hdr [recHeaderSize]byte
	if remain < recHeaderSize {
		return "", nil, 0, false, true
	}
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return "", nil, 0, false, true
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != recMagic {
		return "", nil, 0, false, true
	}
	keyLen := int(binary.LittleEndian.Uint16(hdr[4:]))
	payloadLen := int(binary.LittleEndian.Uint32(hdr[6:]))
	if keyLen == 0 || keyLen > MaxKeyLen || payloadLen > MaxPayloadLen {
		return "", nil, 0, false, true
	}
	recSize = recHeaderSize + int64(keyLen) + int64(payloadLen) + recTrailerLen
	if recSize > remain {
		return "", nil, 0, false, true
	}
	buf := make([]byte, keyLen+payloadLen+recTrailerLen)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", nil, 0, false, true
	}
	body := buf[:keyLen+payloadLen]
	want := binary.LittleEndian.Uint32(buf[keyLen+payloadLen:])
	if crc32.ChecksumIEEE(body) != want {
		return "", nil, recSize, false, false
	}
	return string(body[:keyLen]), body[keyLen:], recSize, true, false
}

// encodeRecord renders one record into a fresh buffer.
func encodeRecord(key string, payload []byte) []byte {
	buf := make([]byte, recHeaderSize+len(key)+len(payload)+recTrailerLen)
	binary.LittleEndian.PutUint32(buf[0:], recMagic)
	binary.LittleEndian.PutUint16(buf[4:], uint16(len(key)))
	binary.LittleEndian.PutUint32(buf[6:], uint32(len(payload)))
	copy(buf[recHeaderSize:], key)
	copy(buf[recHeaderSize+len(key):], payload)
	crc := crc32.ChecksumIEEE(buf[recHeaderSize : recHeaderSize+len(key)+len(payload)])
	binary.LittleEndian.PutUint32(buf[recHeaderSize+len(key)+len(payload):], crc)
	return buf
}

// Get returns the payload stored for key, refreshing its recency. The
// record's CRC is re-verified on every read: silent bit rot surfaces as a
// counted corrupt record and a miss, never as bad bytes handed to the caller.
// The returned slice is the caller's to keep.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false
	}
	el, exists := s.items[key]
	if !exists {
		return nil, false
	}
	payload, ok := s.readLocked(el)
	if !ok {
		return nil, false
	}
	s.ll.MoveToFront(el)
	return payload, true
}

// rawLocked reads one indexed record's on-disk bytes, framing included, and
// reports whether the read succeeded and the CRC matched. It changes nothing:
// what a bad record costs (dropped from the index, skipped, counted) is each
// caller's call.
func (s *Store) rawLocked(r *rec) ([]byte, bool) {
	buf := make([]byte, r.size)
	if _, err := s.f.ReadAt(buf, r.off); err != nil {
		return nil, false
	}
	body := buf[recHeaderSize : recHeaderSize+len(r.key)+r.payloadLen]
	return buf, crc32.ChecksumIEEE(body) == binary.LittleEndian.Uint32(buf[len(buf)-recTrailerLen:])
}

// readLocked reads and CRC-verifies one indexed record, returning a copy of
// its payload. A record that fails either step is dropped from the index and
// counted corrupt. Recency is the caller's call.
func (s *Store) readLocked(el *list.Element) ([]byte, bool) {
	r := el.Value.(*rec)
	raw, ok := s.rawLocked(r)
	if !ok {
		s.dropLocked(el, r)
		s.corrupt++
		return nil, false
	}
	end := recHeaderSize + len(r.key) + r.payloadLen
	return raw[recHeaderSize+len(r.key) : end : end], true
}

// PutIfAbsent appends a record for key unless one already stands, and reports
// whether it wrote. The check and the append happen under the store's lock, so
// no other writer can land between them: the first writer wins. A standing
// record that no longer passes its CRC is dropped, counted corrupt, and reads
// as absent. The check leaves recency alone. After a write, least recently used
// entries are evicted if the live set exceeds the byte bound.
func (s *Store) PutIfAbsent(key string, payload []byte) (bool, error) {
	if key == "" || len(key) > MaxKeyLen {
		return false, fmt.Errorf("store: key length %d out of range (1..%d)", len(key), MaxKeyLen)
	}
	if len(payload) > MaxPayloadLen {
		return false, fmt.Errorf("store: payload length %d exceeds %d", len(payload), MaxPayloadLen)
	}
	buf := encodeRecord(key, payload)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, ErrClosed
	}
	if s.readOnly {
		return false, ErrReadOnly
	}
	if s.maxBytes > 0 && int64(len(buf)) > s.maxBytes {
		return false, ErrTooLarge
	}
	if el, exists := s.items[key]; exists {
		if _, ok := s.readLocked(el); ok {
			return false, nil
		}
	}
	if _, err := s.f.WriteAt(buf, s.size); err != nil {
		// A torn append leaves unframeable bytes at the tail; cut them off so
		// the in-memory offset and the file agree again.
		_ = s.f.Truncate(s.size)
		return false, err
	}
	r := &rec{key: key, off: s.size, size: int64(len(buf)), payloadLen: len(payload)}
	s.size += r.size
	s.items[key] = s.ll.PushFront(r)
	s.liveBytes += r.size
	s.writes++
	s.evictLocked()
	return true, nil
}

// KeyHashes returns the KeyHash of every live key, unordered. This is the
// compact digest two peers exchange during anti-entropy: comparing hash sets
// costs 8 bytes per record instead of shipping every key, and the requester
// then pulls only the records whose hashes it lacks. A closed store has none.
func (s *Store) KeyHashes() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	out := make([]uint64, 0, len(s.items))
	for key := range s.items {
		out = append(out, KeyHash(key))
	}
	return out
}

// Delete removes key from the live set (its file space becomes dead until
// Compact) and reports whether it was present. A closed store deletes
// nothing.
func (s *Store) Delete(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, exists := s.items[key]
	if !exists || s.closed {
		return false
	}
	s.dropLocked(el, el.Value.(*rec))
	return true
}

// dropLocked removes one entry from the index, accounting its space as dead.
func (s *Store) dropLocked(el *list.Element, r *rec) {
	s.ll.Remove(el)
	delete(s.items, r.key)
	s.liveBytes -= r.size
	s.deadBytes += r.size
}

// evictLocked enforces the byte bound on live records.
func (s *Store) evictLocked() {
	if s.maxBytes <= 0 {
		return
	}
	for s.liveBytes > s.maxBytes && s.ll.Len() > 0 {
		el := s.ll.Back()
		s.dropLocked(el, el.Value.(*rec))
		s.evictions++
	}
}

// Compact rewrites the data file with only the live records, reclaiming dead
// space from deleted, evicted, superseded and corrupt records. The new file is
// built in a temp file and atomically renamed over the old one; a crash
// mid-compact leaves the previous file intact. Recency order survives the
// rewrite.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.readOnly {
		return ErrReadOnly
	}
	tmp, err := os.CreateTemp(s.dir, DataFileName+".tmp-*")
	if err != nil {
		return err
	}
	cleanup := func() {
		tmp.Close()
		os.Remove(tmp.Name())
	}
	w := bufio.NewWriterSize(tmp, 1<<16)
	if err := writeHeader(w); err != nil {
		cleanup()
		return err
	}
	// Oldest-first, so a future Open (which scans in file order, refreshing
	// recency as it goes) reconstructs the same LRU order.
	type placed struct {
		r   *rec
		off int64
		sz  int64
	}
	var kept []placed
	off := int64(headerSize)
	for el := s.ll.Back(); el != nil; el = el.Prev() {
		r := el.Value.(*rec)
		raw, ok := s.rawLocked(r)
		if !ok {
			s.corrupt++
			continue
		}
		if _, err := w.Write(raw); err != nil {
			cleanup()
			return err
		}
		kept = append(kept, placed{r: r, off: off, sz: r.size})
		off += r.size
	}
	if err := w.Flush(); err != nil {
		cleanup()
		return err
	}
	if err := maybeSync(tmp); err != nil {
		cleanup()
		return err
	}
	if err := os.Rename(tmp.Name(), s.path); err != nil {
		cleanup()
		return err
	}
	// The rename made tmp the store's data file; swap handles and rebuild
	// the index against the new offsets.
	s.f.Close()
	s.f = tmp
	s.size = off
	s.ll = list.New()
	s.items = make(map[string]*list.Element, len(kept))
	s.liveBytes, s.deadBytes = 0, 0
	for _, p := range kept { // kept is oldest-first; PushFront restores MRU order
		p.r.off, p.r.size = p.off, p.sz
		s.items[p.r.key] = s.ll.PushFront(p.r)
		s.liveBytes += p.sz
	}
	return nil
}

// Close syncs and releases the data file. Afterwards Stats keeps answering
// with the final counters; Get, KeyHashes, Entries, Delete and Verify find
// nothing; PutIfAbsent, Compact and Export return ErrClosed, and so does
// Import at the first record it would add.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if !s.readOnly {
		err = maybeSync(s.f)
	}
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Writes:         s.writes,
		Evictions:      s.evictions,
		CorruptRecords: s.corrupt,
		LiveBytes:      s.liveBytes,
		DeadBytes:      s.deadBytes,
		FileBytes:      s.size,
		Entries:        s.ll.Len(),
	}
}

// Entries lists the live records, most recently used first. A closed store
// lists none.
func (s *Store) Entries() []Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	out := make([]Entry, 0, s.ll.Len())
	for el := s.ll.Front(); el != nil; el = el.Next() {
		r := el.Value.(*rec)
		out = append(out, Entry{Key: r.key, PayloadLen: r.payloadLen, Size: r.size})
	}
	return out
}

// Verify re-reads every live record and checks its CRC, dropping (and
// counting) any that fail. It returns the number that verified and the number
// dropped; a closed store reads nothing, so it verifies and drops none.
func (s *Store) Verify() (ok, corrupt int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, 0
	}
	var next *list.Element
	for el := s.ll.Front(); el != nil; el = next {
		next = el.Next()
		r := el.Value.(*rec)
		if _, good := s.rawLocked(r); good {
			ok++
			continue
		}
		s.dropLocked(el, r)
		s.corrupt++
		corrupt++
	}
	return ok, corrupt
}

// Export streams the live records whose key keep accepts (nil keeps
// everything) to w in the data-file format (header included), least recently
// used first, so importing the stream reproduces the recency order. The result
// is a valid store file on its own: fleet pre-warming is copying one node's
// export into another node's store, and the fleet's anti-entropy responder
// streams exactly the records a peer's digest reported missing.
func (s *Store) Export(w io.Writer, keep func(key string) bool) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	bw := bufio.NewWriterSize(w, 1<<16)
	if err := writeHeader(bw); err != nil {
		return err
	}
	for el := s.ll.Back(); el != nil; el = el.Prev() {
		r := el.Value.(*rec)
		if keep != nil && !keep(r.key) {
			continue
		}
		raw, ok := s.rawLocked(r)
		if !ok {
			s.corrupt++
			continue
		}
		if _, err := bw.Write(raw); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Import merges records from r (a store data file or Export stream) into the
// store through PutIfAbsent: a key the store already holds keeps its record,
// and imports respect the byte bound. accept screens each record by its own
// content, outside the store's lock (nil admits everything); a record it
// rejects is skipped without being counted. Corrupt records are skipped and
// counted; a torn tail stops the import without failing it. Only a missing or
// alien header makes Import return an error.
func (s *Store) Import(r io.Reader, accept func(key string, payload []byte) bool) (added int, corrupt int64, err error) {
	br := bufio.NewReaderSize(r, 1<<16)
	var hdr [headerSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, 0, fmt.Errorf("store: import stream too short for a header: %w", err)
	}
	if !validHeader(hdr) {
		return 0, 0, errors.New("store: import stream is not an artifact store (bad magic or format version)")
	}
	for {
		key, payload, _, ok, fatal := readRecord(br, MaxPayloadLen+MaxKeyLen+recHeaderSize+recTrailerLen)
		if fatal {
			break
		}
		if !ok {
			corrupt++
			continue
		}
		if accept != nil && !accept(key, payload) {
			continue
		}
		wrote, err := s.PutIfAbsent(key, payload)
		if err != nil {
			if errors.Is(err, ErrTooLarge) {
				continue // one oversized record should not abort the merge
			}
			return added, corrupt, err
		}
		if wrote {
			added++
		}
	}
	s.mu.Lock()
	s.corrupt += corrupt
	s.mu.Unlock()
	return added, corrupt, nil
}
