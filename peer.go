package serenity

import (
	"context"
	"io"

	"github.com/serenity-ml/serenity/internal/store"
)

// PeerTier is the distributed tier of the segment memo hierarchy: a fleet of
// processes sharing one corpus of per-segment artifacts, so each distinct
// fingerprint pays its DP once globally. internal/fleet provides the
// implementation (consistent-hash ring + bounded HTTP client); the Pipeline
// only needs these three operations:
//
//   - Owns gates the fetch: only keys another member authoritatively owns are
//     worth a round trip (a single-node fleet owns everything, which disables
//     the tier by construction).
//   - Fetch asks the owner for the raw artifact payload. It must be cheap or
//     absent: every failure mode returns ok=false and the caller computes
//     locally, exactly as a fleetless Pipeline would.
//   - Replicate pushes a freshly computed non-owned artifact toward its
//     owner, asynchronously; the compile path never waits on it. ctx carries
//     only trace context (captured before the call returns) — the push
//     itself must not be canceled when the originating request ends.
//
// Payloads cross the wire in the MarshalSegmentArtifact encoding and pass
// the same checkpoint on arrival that disk artifacts pass on load
// (decodeArtifact: the order must be a topological order of the segment), so
// a confused peer degrades the fleet to local compute, never to a wrong
// schedule or a failed compilation.
type PeerTier interface {
	Owns(key string) bool
	Fetch(ctx context.Context, key string) ([]byte, bool)
	Replicate(ctx context.Context, key string, payload []byte)
}

// artifactSelfConsistent is the gate the replication and import receivers
// run: a plain decode, since they do not know the segment's graph (only a
// later lookup does).
func artifactSelfConsistent(payload []byte) bool {
	_, err := UnmarshalSegmentArtifact(payload)
	return err == nil
}

// The methods below adapt a ScheduleStore to the fleet's Store interface
// (internal/fleet.Server and Syncer), making the persistent tier double as
// the fleet-visible artifact corpus. On a closed store the byte store
// answers them: nothing is found, written or listed, and the streams
// return store.ErrClosed.

// GetArtifact returns the raw payload stored for key, bypassing the memo
// hierarchy's lookup accounting — peer traffic must not skew the disk-tier
// hit rate operators alert on.
func (ss *ScheduleStore) GetArtifact(key string) ([]byte, bool) {
	return ss.st.Get(key)
}

// PutArtifact stores a payload replicated from a peer, first-writer-wins: an
// existing record keeps its established bytes, so replication can never
// change an answer a client has already seen. Invalid payloads are refused.
// The write is the same synchronous put-if-absent a walk's write is.
func (ss *ScheduleStore) PutArtifact(key string, payload []byte) bool {
	if !artifactSelfConsistent(payload) {
		return false
	}
	wrote, err := ss.st.PutIfAbsent(key, payload)
	return wrote && err == nil
}

// KeyHashes returns the anti-entropy digest of the stored artifacts.
func (ss *ScheduleStore) KeyHashes() []uint64 {
	return ss.st.KeyHashes()
}

// ExportMissing streams at most max stored artifacts whose key-hash have
// lacks, as a self-contained store file, returning how many records it wrote.
func (ss *ScheduleStore) ExportMissing(w io.Writer, have map[uint64]bool, max int) (int, error) {
	n := 0
	err := ss.st.Export(w, func(key string) bool {
		if n < max && !have[store.KeyHash(key)] {
			n++
			return true
		}
		return false
	})
	return n, err
}

// ImportMissing merges a store stream — an anti-entropy round's, or an
// offline `serenity store import` — first-writer-wins: records for keys
// already present are skipped (decided under the store's own lock like
// PutArtifact, so a walk's write landing mid-merge is never overwritten by a
// peer's byte-different twin). Payloads that fail artifact validation are
// skipped and counted in CorruptRecords, as are records failing their CRC;
// a torn tail is tolerated exactly as a store Open tolerates it. Returns how
// many records were added.
func (ss *ScheduleStore) ImportMissing(r io.Reader) (int, error) {
	added, _, err := ss.st.Import(r, func(_ string, payload []byte) bool {
		if artifactSelfConsistent(payload) {
			return true
		}
		ss.decodeErrs.Add(1)
		return false
	})
	return added, err
}
