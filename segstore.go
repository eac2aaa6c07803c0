package serenity

import (
	"encoding/binary"
	"errors"
	"fmt"
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
// written through inside the walk's flight, one append of a few hundred
// bytes, as a disk lookup is one read. Degraded (FellBack) results are never
// persisted — the artifact encoding refuses them. Every write here — a
// walk's, a peer's replica, an anti-entropy or offline import — is the byte
// store's one write, an atomic put-if-absent: a key names one canonical
// result, so the first record stands.
//
// Artifacts are re-validated on every load: CRC at the byte layer, then
// version, shape, and a check that the order is a topological order of the
// segment's graph here. A record that fails any check is dropped and counted, and the
// pipeline recomputes — a corrupted store degrades to cold performance,
// never to a wrong or crashing compilation.
//
// A ScheduleStore is safe for concurrent use by any number of Pipelines;
// serenityd holds one per process (-store-dir). Close it on shutdown to sync
// and release the file. A closed store is inert: lookups miss, writes are
// dropped, and Stats keeps answering with the final counters. Whether it is
// closed is decided by the byte store's own lock; closed here only keeps a
// lookup after Close out of the miss count.
type ScheduleStore struct {
	st     *store.Store
	closed atomic.Bool

	decodeErrs atomic.Int64
	hits       atomic.Int64
	misses     atomic.Int64
}

// OpenScheduleStore opens (creating if needed) the schedule artifact store
// in dir, bounding the live artifacts to maxBytes (0 = unbounded). Corrupt
// or truncated records in an existing store are skipped and counted, never
// fatal; the caller owns the store and must Close it.
func OpenScheduleStore(dir string, maxBytes int64) (*ScheduleStore, error) {
	st, err := store.Open(dir, maxBytes)
	if err != nil {
		return nil, err
	}
	return &ScheduleStore{st: st}, nil
}

// get loads and validates the artifact for key. fits is the segment's order
// check: a payload whose order fails it is deleted, counted corrupt and
// reported as a miss, so the recomputed result can take its key. A closed
// store answers false without counting a miss — nothing was looked up, and
// shutdown must not skew the hit-rate accounting the caller prints
// afterwards.
func (ss *ScheduleStore) get(key string, fits func(Order) bool) (SearchResult, bool) {
	if ss.closed.Load() {
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

// put writes an encoded artifact through, put-if-absent, because a peer's
// replica or an import may have landed the key first. Its error is dropped:
// a write can only fail on I/O trouble, an oversized record or a closed
// store, and each costs a future cold search, nothing more.
func (ss *ScheduleStore) put(key string, payload []byte) {
	_, _ = ss.st.PutIfAbsent(key, payload)
}

// Flush waits for nothing: every write reaches the store file before the
// walk that made it returns. It is kept only for benchmark/replay.go, its
// one remaining caller.
func (ss *ScheduleStore) Flush() {}

// Compact rewrites the data file with only the live artifacts, reclaiming
// space from deleted, evicted, superseded and corrupt records. On a closed
// store it returns store.ErrClosed.
func (ss *ScheduleStore) Compact() error {
	return ss.st.Compact()
}

// Close syncs and releases the store. A closed store drops lookups and
// writes silently, so Pipelines holding it keep working (cold) during
// shutdown.
func (ss *ScheduleStore) Close() error {
	ss.closed.Store(true)
	return ss.st.Close()
}

// Stats returns a snapshot of the store's counters. Lookup accounting
// (hits/misses) is kept at this layer — the raw byte store can't tell a
// semantically invalid payload from a valid one — while write, eviction, and
// size accounting come from the file layer. After Close both stop moving:
// a closed store declines lookups and writes.
func (ss *ScheduleStore) Stats() StoreStats {
	raw := ss.st.Stats()
	return StoreStats{
		Hits:           ss.hits.Load(),
		Misses:         ss.misses.Load(),
		Writes:         raw.Writes,
		Evictions:      raw.Evictions,
		CorruptRecords: raw.CorruptRecords + ss.decodeErrs.Load(),
		LiveBytes:      raw.LiveBytes,
		DeadBytes:      raw.DeadBytes,
		FileBytes:      raw.FileBytes,
		Entries:        raw.Entries,
	}
}
