package serenity

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/serenity-ml/serenity/internal/store"
)

// ArtifactVersion is the version byte of the per-segment artifact payload —
// the binary encoding of one SearchResult inside the on-disk schedule store.
// It is pinned by the golden fixture in testdata/golden; bump it only with a
// migration plan (old payloads are rejected on decode and recomputed, never
// misread).
const ArtifactVersion = 1

// Artifact payload v1, little-endian:
//
//	byte  0      payload version (ArtifactVersion)
//	byte  1      quality: 0 = optimal, 1 = heuristic
//	bytes 2-9    StatesExplored (uint64)
//	bytes 10-17  MaxFrontier (uint64)
//	bytes 18-21  len(Order) (uint32)
//	bytes 22-    Order entries (uint32 each)
const artifactHeaderLen = 22

// MarshalSegmentArtifact encodes one segment's SearchResult as a schedule
// store payload. Degraded results are not encodable: persisting a
// deadline-fallback would pin one overloaded moment's heuristic schedule for
// every future process, the same poison the in-memory SegmentMemo refuses.
func MarshalSegmentArtifact(sr SearchResult) ([]byte, error) {
	if sr.FellBack {
		return nil, errors.New("serenity: degraded (fallback) results are never persisted")
	}
	var quality byte
	switch sr.Quality {
	case QualityOptimal:
		quality = 0
	case QualityHeuristic:
		quality = 1
	default:
		return nil, fmt.Errorf("serenity: unknown quality %q", sr.Quality)
	}
	if sr.StatesExplored < 0 || sr.MaxFrontier < 0 {
		return nil, fmt.Errorf("serenity: negative accounting (states=%d frontier=%d)", sr.StatesExplored, sr.MaxFrontier)
	}
	buf := make([]byte, artifactHeaderLen+4*len(sr.Order))
	buf[0] = ArtifactVersion
	buf[1] = quality
	binary.LittleEndian.PutUint64(buf[2:], uint64(sr.StatesExplored))
	binary.LittleEndian.PutUint64(buf[10:], uint64(sr.MaxFrontier))
	binary.LittleEndian.PutUint32(buf[18:], uint32(len(sr.Order)))
	for i, id := range sr.Order {
		if id < 0 || int64(id) > 1<<31-1 {
			return nil, fmt.Errorf("serenity: order entry %d out of encodable range", id)
		}
		binary.LittleEndian.PutUint32(buf[artifactHeaderLen+4*i:], uint32(id))
	}
	return buf, nil
}

// UnmarshalSegmentArtifact decodes a schedule store payload. Any deviation —
// wrong version, impossible lengths, unknown quality, an order that is not a
// permutation of 0..len-1 — is an error, never a panic; callers treat a
// failed decode as a cache miss and recompute. It is the one artifact check
// every writer and reader runs: the store tooling, the fleet's receivers and
// the memo hierarchy's loads.
func UnmarshalSegmentArtifact(b []byte) (SearchResult, error) {
	if len(b) < artifactHeaderLen {
		return SearchResult{}, fmt.Errorf("serenity: artifact payload %d bytes, header needs %d", len(b), artifactHeaderLen)
	}
	if b[0] != ArtifactVersion {
		return SearchResult{}, fmt.Errorf("serenity: artifact version %d, this build reads %d", b[0], ArtifactVersion)
	}
	var sr SearchResult
	switch b[1] {
	case 0:
		sr.Quality = QualityOptimal
	case 1:
		sr.Quality = QualityHeuristic
	default:
		return SearchResult{}, fmt.Errorf("serenity: unknown artifact quality byte %d", b[1])
	}
	states := binary.LittleEndian.Uint64(b[2:])
	frontier := binary.LittleEndian.Uint64(b[10:])
	if states > 1<<62 || frontier > 1<<31 {
		return SearchResult{}, fmt.Errorf("serenity: implausible artifact accounting (states=%d frontier=%d)", states, frontier)
	}
	sr.StatesExplored = int64(states)
	sr.MaxFrontier = int(frontier)
	n := binary.LittleEndian.Uint32(b[18:])
	if int64(len(b)-artifactHeaderLen) != 4*int64(n) {
		return SearchResult{}, fmt.Errorf("serenity: artifact claims %d order entries in %d payload bytes", n, len(b))
	}
	sr.Order = make(Order, n)
	seen := make([]bool, n)
	for i := range sr.Order {
		id := binary.LittleEndian.Uint32(b[artifactHeaderLen+4*i:])
		if id >= n || seen[id] {
			return SearchResult{}, fmt.Errorf("serenity: order entry %d at position %d breaks the permutation of 0..%d", id, i, n-1)
		}
		seen[id] = true
		sr.Order[i] = int(id)
	}
	return sr, nil
}

// decodeArtifact is the checkpoint every payload passes before the memo
// hierarchy trusts it, whether it was loaded from disk or fetched from a
// peer: decode (which enforces the version and the shape; the encoding
// cannot carry a degraded result) plus fits, the segment's order check
// (Segment.Fits). Every caller treats a failure the same way — as a miss — so
// it reports only whether the payload passed.
func decodeArtifact(payload []byte, fits func(Order) bool) (SearchResult, bool) {
	sr, err := UnmarshalSegmentArtifact(payload)
	if err != nil || !fits(sr.Order) {
		return SearchResult{}, false
	}
	return sr, true
}

// StoreStats is a snapshot of a ScheduleStore's counters. Hits and Misses
// count tier-2 (disk) lookups only — lookups that reached the store because
// the in-memory tier missed. CorruptRecords includes both byte-level CRC
// failures and payloads that failed artifact validation on load or import.
type StoreStats struct {
	Hits           int64
	Misses         int64
	Writes         int64
	DroppedWrites  int64
	Evictions      int64
	CorruptRecords int64
	// LiveBytes is the space held by retrievable artifacts; DeadBytes the
	// reclaimable space a Compact would free; FileBytes the data file size.
	LiveBytes int64
	DeadBytes int64
	FileBytes int64
	Entries   int
}

// ScheduleStore is the persistent tier of the segment memo hierarchy: a
// content-addressed, on-disk store of per-segment search results
// (internal/store format v1), keyed exactly like the SegmentMemo —
// Segment.Fingerprint() + "|" + Searcher.MemoKey(). Both halves of the key
// are golden-pinned (testdata/golden), which is what makes them safe to
// persist: every process, today's or next deploy's, derives the same address
// for the same sub-problem.
//
// Assign it to Pipeline.Store and the hierarchy's one walk (walkMemo)
// consults it after the SegmentMemo — or first, on a Pipeline without one:
// disk hits are promoted to memory, and fresh or peer-fetched results are
// written through asynchronously (the DP's caller never waits on the disk).
// Degraded (FellBack) results are never persisted — the artifact encoding
// refuses them. Every write here — write-behind, a peer's replica, an
// anti-entropy or offline import — is the byte store's one write, an atomic
// put-if-absent: a key names one canonical result, so the first record stands.
//
// Artifacts are re-validated on every load: CRC at the byte layer, then
// version, shape, and a check that the order is a topological order of the
// segment's graph here. A record that fails any check is dropped and counted, and the
// pipeline recomputes — a corrupted store degrades to cold performance,
// never to a wrong or crashing compilation.
//
// A ScheduleStore is safe for concurrent use by any number of Pipelines;
// serenityd holds one per process (-store-dir). Close it on shutdown to
// flush the write-behind queue.
type ScheduleStore struct {
	st *store.Store

	// mu is read-held by every data operation (get, putAsync, PutArtifact,
	// ImportMissing, Flush, Compact, Stats) and write-held only by Close,
	// which makes "closed store drops lookups and writes silently" a real
	// invariant: once Close holds the write lock no operation can be
	// mid-flight against the inner store, and every later operation
	// observes closed and returns inert.
	mu         sync.RWMutex
	writeCh    chan storeWrite
	closed     bool
	finalStats store.Stats // inner-store counters, snapshotted by Close
	wg         sync.WaitGroup

	decodeErrs atomic.Int64
	hits       atomic.Int64
	misses     atomic.Int64
	dropped    atomic.Int64
}

type storeWrite struct {
	key     string
	payload []byte
	flushed chan struct{} // non-nil marks a flush barrier, not a write
}

// storeWriteQueue bounds the write-behind queue; at ~4 bytes per scheduled
// node a full queue is still well under a megabyte of pending artifacts.
const storeWriteQueue = 256

// OpenScheduleStore opens (creating if needed) the schedule artifact store
// in dir, bounding the live artifacts to maxBytes (0 = unbounded). Corrupt
// or truncated records in an existing store are skipped and counted, never
// fatal; the caller owns the store and must Close it.
func OpenScheduleStore(dir string, maxBytes int64) (*ScheduleStore, error) {
	st, err := store.Open(dir, maxBytes)
	if err != nil {
		return nil, err
	}
	ss := &ScheduleStore{
		st:      st,
		writeCh: make(chan storeWrite, storeWriteQueue),
	}
	ss.wg.Add(1)
	go ss.writer()
	return ss, nil
}

// writer is the write-behind goroutine: it drains the queue into the store
// so search workers never block on disk.
func (ss *ScheduleStore) writer() {
	defer ss.wg.Done()
	for w := range ss.writeCh {
		if w.flushed != nil {
			close(w.flushed)
			continue
		}
		// The put can only fail on I/O trouble or an oversized record; either
		// way the result is recomputable, so a failed write-behind costs a
		// future cold search, nothing more. Put-if-absent, because a peer's
		// replica or an import may have landed the key while this write sat in
		// the queue.
		_, _ = ss.st.PutIfAbsent(w.key, w.payload)
	}
}

// get loads and validates the artifact for key. fits is the segment's order
// check: a payload whose order fails it is deleted, counted corrupt and
// reported as a miss, so the recomputed result can take its key. A closed
// store answers false without counting a miss — nothing was looked up, and
// shutdown must not skew the hit-rate accounting the caller prints
// afterwards.
func (ss *ScheduleStore) get(key string, fits func(Order) bool) (SearchResult, bool) {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	if ss.closed {
		return SearchResult{}, false
	}
	payload, ok := ss.st.Get(key)
	if !ok {
		ss.misses.Add(1)
		return SearchResult{}, false
	}
	sr, ok := decodeArtifact(payload, fits)
	if !ok {
		ss.st.Delete(key)
		ss.decodeErrs.Add(1)
		ss.misses.Add(1)
		return SearchResult{}, false
	}
	ss.hits.Add(1)
	return sr, true
}

// putAsync enqueues a write-through of an encoded artifact without blocking:
// if the queue is full the write is dropped and counted — the artifact is
// recomputable, and the hot path must never wait on disk.
func (ss *ScheduleStore) putAsync(key string, payload []byte) {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	if ss.closed {
		return
	}
	select {
	case ss.writeCh <- storeWrite{key: key, payload: payload}:
	default:
		ss.dropped.Add(1)
	}
}

// Flush blocks until every write enqueued before the call has reached the
// store file. Flushing a closed store is a no-op: Close already drained the
// queue.
func (ss *ScheduleStore) Flush() {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	if ss.closed {
		return
	}
	barrier := storeWrite{flushed: make(chan struct{})}
	ss.writeCh <- barrier // blocking: a flush must not be droppable
	<-barrier.flushed
}

// Compact flushes pending writes and rewrites the data file with only the
// live artifacts, reclaiming space from deleted, evicted, superseded and
// corrupt records. Compacting a closed store is a no-op, like every other operation
// after Close. The flush barrier is inlined rather than calling Flush: a
// second read-lock acquisition could deadlock against a Close queued between
// the two.
func (ss *ScheduleStore) Compact() error {
	ss.mu.RLock()
	defer ss.mu.RUnlock()
	if ss.closed {
		return nil
	}
	barrier := storeWrite{flushed: make(chan struct{})}
	ss.writeCh <- barrier
	<-barrier.flushed
	return ss.st.Compact()
}

// Close drains the write-behind queue, syncs, and releases the store. A
// closed store drops lookups and writes silently, so Pipelines holding it
// keep working (cold) during shutdown; Stats keeps answering with the
// final pre-close counters.
func (ss *ScheduleStore) Close() error {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if ss.closed {
		return nil
	}
	ss.closed = true
	close(ss.writeCh)
	ss.wg.Wait()
	ss.finalStats = ss.st.Stats()
	return ss.st.Close()
}

// Stats returns a snapshot of the store's counters. Lookup accounting
// (hits/misses) is kept at this layer — the raw byte store can't tell a
// semantically invalid payload from a valid one — while write, eviction, and
// size accounting come from the file layer. After Close, the file-layer
// numbers are the snapshot Close took; the lookup counters stop moving
// because a closed store declines lookups.
func (ss *ScheduleStore) Stats() StoreStats {
	ss.mu.RLock()
	raw := ss.finalStats
	if !ss.closed {
		raw = ss.st.Stats()
	}
	ss.mu.RUnlock()
	return StoreStats{
		Hits:           ss.hits.Load(),
		Misses:         ss.misses.Load(),
		Writes:         raw.Writes,
		DroppedWrites:  ss.dropped.Load(),
		Evictions:      raw.Evictions,
		CorruptRecords: raw.CorruptRecords + ss.decodeErrs.Load(),
		LiveBytes:      raw.LiveBytes,
		DeadBytes:      raw.DeadBytes,
		FileBytes:      raw.FileBytes,
		Entries:        raw.Entries,
	}
}
