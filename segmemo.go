package serenity

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"sync/atomic"

	"github.com/serenity-ml/serenity/internal/cache"
	"github.com/serenity-ml/serenity/internal/partition"
	"github.com/serenity-ml/serenity/internal/trace"
)

// MemoKeyer is implemented by Searchers whose per-segment results may be
// shared through a SegmentMemo. MemoKey returns a discriminator covering
// every searcher option that can change a result; two searchers with equal
// MemoKeys must produce interchangeable results for structurally identical
// segments. The built-in strategies (ExactDP, GreedyMemory, BestEffort) all
// implement it. A Searcher that does not — or whose MemoKey returns "" —
// opts out: the Pipeline bypasses the memo entirely for it, which is the
// safe default for stateful or nondeterministic custom searchers.
type MemoKeyer interface {
	MemoKey() string
}

// SegmentMemo is a cross-request, segment-level schedule memo: a bounded LRU
// from a segment's fingerprint and the Searcher's MemoKey to the SearchResult
// of that sub-problem, with singleflight coalescing so
// concurrent compilations of the same segment share one search instead of
// racing duplicate DP runs.
//
// The divide-and-conquer stage (Section 3.2) makes segments independent
// sub-problems, so a result computed inside one graph is valid verbatim
// inside any other graph containing a structurally identical segment — the
// common case for NAS-style networks that stack a repeated cell. Install one
// memo on every Pipeline that should share work (serenityd holds a single
// process-wide memo across all requests; see -segment-memo-size).
//
// Two rules keep sharing sound:
//
//   - Degraded results are never stored. A SearchResult with FellBack set
//     reflects this moment's deadline pressure, not the sub-problem; caching
//     it would deny every later compilation the exact answer a quieter run
//     could produce (the same policy serenityd applies to whole responses).
//     Degraded results ARE still shared with concurrent waiters of the same
//     in-flight search, which is honest: they asked while the pressure was on.
//   - Results are immutable. Hits return the stored SearchResult unchanged
//     (StatesExplored included, so a warm Result reconciles bit for bit with
//     the cold run that populated the memo); callers must not mutate Order.
//
// A SegmentMemo is the memory tier of the memo hierarchy and the one tier a
// Pipeline cannot do without: a ScheduleStore (Pipeline.Store) and a PeerTier
// (Pipeline.Peers) sit beneath it, and one walk (walkMemo) consults memory →
// disk → peer → fresh search inside the memo's flight, filling every tier
// above the one that answered. All tiers share the memo's keys and its poison
// rule, so everything documented here holds across process restarts and
// across the fleet too.
//
// A SegmentMemo is safe for concurrent use by any number of Pipelines.
type SegmentMemo struct {
	store *cache.LRU[memoKey, SearchResult]
	group cache.Group[memoLoad]

	// lookups counts resolved lookups by the tier that answered them
	// (memoTierMiss: this caller ran the search); errors counts the rest.
	lookups [numMemoTiers]atomic.Int64
	errors  atomic.Int64
}

// memoKey is a segment's key in the memo hierarchy: its fingerprint digest
// (partition.Segment.Sum) and the Searcher's MemoKey. The memory tier looks
// it up as a value; String renders it for the tiers a key crosses a boundary
// to reach — the disk store, the fleet and the flight — and for traces.
type memoKey struct {
	sum  [sha256.Size]byte
	disc string
}

// String is the key as the store and the fleet address it:
// Segment.Fingerprint() + "|" + MemoKey(), golden-pinned.
func (k memoKey) String() string {
	var buf [2*sha256.Size + 32]byte
	return string(append(append(hex.AppendEncode(buf[:0], k.sum[:]), '|'), k.disc...))
}

// memoTier names one level of the memo hierarchy, in walk order; a lookup
// reports the tier that answered it.
type memoTier int

const (
	// memoTierMemory: served from the in-memory store, or shared from a
	// concurrent in-flight lookup (whatever tier the flight's leader used).
	memoTierMemory memoTier = iota
	// memoTierDisk: loaded and validated from the persistent ScheduleStore.
	memoTierDisk
	// memoTierPeer: fetched from the key's fleet owner and validated; the
	// segment's DP ran once somewhere in the fleet, just not here.
	memoTierPeer
	// memoTierMiss: no tier had it; this caller ran the search.
	memoTierMiss
	numMemoTiers
)

// name renders the tier for the segment span's memo_tier. The miss tier
// reads "fresh": the caller ran the search itself.
func (t memoTier) name() string {
	switch t {
	case memoTierMemory:
		return "memory"
	case memoTierDisk:
		return "disk"
	case memoTierPeer:
		return "peer"
	}
	return "fresh"
}

// memoSpanNames are the trace spans the walk opens around each tier's lookup.
var memoSpanNames = [numMemoTiers]string{
	memoTierMemory: "memo.memory",
	memoTierDisk:   "memo.disk",
	memoTierPeer:   "memo.peer",
}

// endTierSpan closes one tier's lookup span. Nil-guarded so an untraced
// lookup constructs no attribute — the warm path stays allocation-free.
func endTierSpan(sp *trace.SpanHandle, hit bool) {
	if sp != nil {
		sp.Annotate(trace.Bool("hit", hit))
		sp.End()
	}
}

// memoLoad is a flight's outcome: the result plus which tier the leader got
// it from, so followers and the leader account hits truthfully.
type memoLoad struct {
	sr   SearchResult
	tier memoTier
}

// NewSegmentMemo returns a memo holding at most capacity segment results;
// capacity < 1 is raised to 1.
func NewSegmentMemo(capacity int) *SegmentMemo {
	return &SegmentMemo{store: cache.NewLRU[memoKey, SearchResult](capacity)}
}

// Cap returns the most segment results the memo holds.
func (m *SegmentMemo) Cap() int { return m.store.Cap() }

// SegmentMemoStats is a snapshot of a memo's counters. Every memoized segment
// search resolves as exactly one Hit (served from the store, or shared from a
// concurrent in-flight search), one Miss (this caller ran the searcher to
// completion), or one Error (the lookup returned an error instead of a
// result: the caller's context ended while waiting, the searcher failed, or
// a shared flight's leader failed), so Hits+Misses+Errors equals the total
// memoized segment searches across all Pipelines sharing the memo.
type SegmentMemoStats struct {
	Hits   int64
	Misses int64
	// DiskHits is the subset of Hits answered by the persistent tier (a
	// ScheduleStore layered under this memo); PeerHits the subset answered
	// by the fleet tier (an artifact fetched from the key's owner and
	// validated). Hits - DiskHits - PeerHits were served from memory or a
	// shared in-flight search.
	DiskHits int64
	PeerHits int64
	// Errors counts lookups that resolved with an error — canceled waiters,
	// failed searches, and followers of a failed flight. An errored lookup is
	// neither a Hit nor a Miss: nothing was served and no result was stored.
	Errors  int64
	Entries int
}

// Stats returns a snapshot of the memo's counters.
func (m *SegmentMemo) Stats() SegmentMemoStats {
	disk, peer := m.lookups[memoTierDisk].Load(), m.lookups[memoTierPeer].Load()
	return SegmentMemoStats{
		Hits:     m.lookups[memoTierMemory].Load() + disk + peer,
		Misses:   m.lookups[memoTierMiss].Load(),
		DiskHits: disk,
		PeerHits: peer,
		Errors:   m.errors.Load(),
		Entries:  m.store.Len(),
	}
}

// settle stores sr under key unless the key already holds an entry, and
// returns the entry that stands. It is the memory tier's one write rule, the
// same first-writer-wins as the disk tier's one write (PutIfAbsent): only
// non-degraded results reach a tier and a key names one canonical order, so no
// later writer has anything better — it only differs in the search accounting, and
// hits must stay bit-identical to the run that populated the entry.
func (m *SegmentMemo) settle(key memoKey, sr SearchResult) (stands SearchResult, wrote bool) {
	return m.store.PutIfAbsent(key, sr)
}

// walkMemo is the memo hierarchy's one lookup: it returns the result for key,
// consulting the memory tier (memo, required), then the persistent tier
// (disk), then the fleet tier (peers) — both optional — then running compute.
// It alone owns the tier order and everything that hangs off it. The returned
// tier reports how the result arrived: anything but memoTierMiss means this
// caller ran no search. seg is the segment: a disk or peer artifact whose
// order is not a topological order of it (Segment.Fits) is a miss — a disk
// record is deleted and counted corrupt — and the walk goes on down to a
// fresh search, whose result then takes the key. fetching runs before the walk waits on a
// peer: the pipeline starts its helper goroutines there.
// A memory hit builds nothing; the key's string form exists only below it.
//
// Below the memory tier the walk runs inside the memo's singleflight:
// concurrent lookups of one cold key cost one disk read, at most one peer
// round trip, and one search, not N. Errors are never stored; context errors
// follow cache.Group's retry contract, except that a caller whose own
// deadline expires — even while it merely follows someone else's flight —
// gets its searcher's deadline behaviour (a degradable searcher's fallback),
// not the flight's wait error.
// Results reach the tiers inside the flight — before followers are
// released and before the flight is torn down — so a caller arriving as the
// leader finishes can never slip between the closed flight and the
// not-yet-written store and redo the search; and a new leader re-reads the
// memory tier first, so neither can a caller whose memory lookup missed just
// before another flight filled the key and closed.
//
// Whichever tier answers, every local tier above it is filled: a disk hit is
// promoted to memory; a peer artifact — validated exactly as a disk artifact
// is on load — goes to memory and is written through to disk (so the fleet
// corpus a node pulls survives its own restarts); a fresh result goes to
// both, and, when another member owns the key, is replicated toward the
// owner. The disk write is synchronous, on the walk's own goroutine inside
// the flight, as the disk read is: one put-if-absent append to the page
// cache. Replication is write-behind, because it waits on the network. Both
// carry the one payload the result was marshaled to. Degraded (FellBack)
// results reach no tier.
func walkMemo(ctx context.Context, memo *SegmentMemo, disk *ScheduleStore, peers PeerTier, key memoKey, seg *partition.Segment, fetching func(), compute func() (SearchResult, error)) (SearchResult, memoTier, error) {
	// The warm path stays allocation-free when the request is untraced:
	// FromContext on a bare context costs one nil check, Child of a nil span
	// is nil, and no attribute is constructed unless a live span is present.
	span := trace.FromContext(ctx)
	sp := span.Child(memoSpanNames[memoTierMemory])
	sr, ok := memo.store.Get(key)
	endTierSpan(sp, ok)
	if ok {
		memo.lookups[memoTierMemory].Add(1)
		return sr, memoTierMemory, nil
	}
	skey := key.String()
	// fill lands a result that arrived from tier `from` in every local tier
	// above it and returns the entry that stands (see settle). payload is
	// sr's encoding when the caller already holds it (a peer fetch).
	fill := func(from memoTier, sr SearchResult, payload []byte) SearchResult {
		sr, wrote := memo.settle(key, sr)
		if !wrote {
			payload = nil // an established entry stands; it is what flows down
		}
		toDisk := disk != nil && from > memoTierDisk
		toOwner := from == memoTierMiss && peers != nil && !peers.Owns(skey)
		if !toDisk && !toOwner {
			return sr
		}
		if payload == nil {
			var err error
			if payload, err = MarshalSegmentArtifact(sr); err != nil {
				return sr
			}
		}
		if toDisk {
			disk.put(skey, payload)
		}
		if toOwner {
			peers.Replicate(ctx, skey, payload)
		}
		return sr
	}
	fresh := func() (memoLoad, error) {
		sr, err := compute()
		if err == nil && !sr.FellBack {
			sr = fill(memoTierMiss, sr, nil)
		}
		return memoLoad{sr, memoTierMiss}, err
	}
	v, shared, err := memo.group.Do(ctx, skey, func() (memoLoad, error) {
		// A flight for key may have filled memory and closed between this
		// caller's miss above and its becoming the leader here.
		if sr, ok := memo.store.Get(key); ok {
			return memoLoad{sr, memoTierMemory}, nil
		}
		if disk != nil {
			sp := span.Child(memoSpanNames[memoTierDisk])
			sr, ok := disk.get(skey, seg.Fits)
			endTierSpan(sp, ok)
			if ok {
				return memoLoad{fill(memoTierDisk, sr, nil), memoTierDisk}, nil
			}
		}
		if peers != nil && !peers.Owns(skey) {
			fetching()
			// The owner sees this span as its parent: Fetch propagates the
			// traceparent, and the owner's serve span stitches under it.
			sp, fctx := span.Child(memoSpanNames[memoTierPeer]), ctx
			if sp != nil {
				fctx = trace.ContextWith(ctx, sp)
			}
			payload, ok := peers.Fetch(fctx, skey)
			var sr SearchResult
			if ok {
				sr, ok = decodeArtifact(payload, seg.Fits)
			}
			endTierSpan(sp, ok)
			if ok {
				return memoLoad{fill(memoTierPeer, sr, payload), memoTierPeer}, nil
			}
		}
		return fresh()
	})
	if err != nil && ctx.Err() == context.DeadlineExceeded {
		// This caller's own deadline ran out — possibly while it was only
		// following another caller's flight (a more patient request's, or a
		// background refinement's). Whether an expired deadline degrades or
		// fails is the searcher's contract, not the flight's, so ask it
		// directly: a degradable searcher answers with its fallback at once,
		// an exact one returns the deadline error it would have anyway.
		v, err = fresh()
	}
	if err != nil {
		// Neither a hit nor a miss: nothing was served and nothing ran to
		// completion for this caller. Counting it as either would break the
		// Hits+Misses+Errors == total-searches reconciliation under
		// cancellation storms.
		memo.errors.Add(1)
		return SearchResult{}, memoTierMiss, err
	}
	if shared {
		v.tier = memoTierMemory
	}
	memo.lookups[v.tier].Add(1)
	return v.sr, v.tier, nil
}
