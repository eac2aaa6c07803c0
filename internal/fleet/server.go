package fleet

import (
	"encoding/binary"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"github.com/serenity-ml/serenity/internal/trace"
)

// Store is the slice of the artifact store the peer surface needs. The
// serenityd side adapts its schedule store to this; payloads are opaque bytes
// here — validation (artifact decode, permutation check, FellBack poison
// rule) lives with the implementations, so the fleet never has to understand
// schedules to move them.
type Store interface {
	// GetArtifact returns the raw payload stored for key.
	GetArtifact(key string) ([]byte, bool)
	// PutArtifact stores a replicated payload under key, first-writer-wins:
	// an existing record keeps its established bytes. It reports whether the
	// payload was accepted (false for invalid payloads or existing keys).
	PutArtifact(key string, payload []byte) bool
	// KeyHashes returns the store.KeyHash digest of every live key.
	KeyHashes() []uint64
	// ExportMissing streams at most max live records whose key-hash have
	// lacks, as a self-contained store file, and returns how many it wrote.
	ExportMissing(w io.Writer, have map[uint64]bool, max int) (int, error)
	// ImportMissing merges a store stream, skipping keys already present and
	// payloads that fail validation, and returns how many records it added.
	ImportMissing(r io.Reader) (added int, err error)
}

// Gate admits one peer request; ok=false sheds it with 429. The release func
// must be called when the request finishes. serenityd plugs its admission
// controller in here so peer traffic has its own lane — a peer fetch must
// never wait behind a long local DP, and peer floods must never starve
// interactive compiles.
type Gate func() (release func(), ok bool)

// ServerStats is a snapshot of the peer-facing counters.
type ServerStats struct {
	// SegmentHits/SegmentMisses count artifact GETs answered with a payload
	// vs. 404. ReplicasAccepted/ReplicasIgnored count artifact PUTs stored
	// vs. dropped (already present or invalid). SyncRecords counts records
	// streamed out to peers' anti-entropy pulls; Shed counts requests the
	// gate refused.
	SegmentHits      int64
	SegmentMisses    int64
	ReplicasAccepted int64
	ReplicasIgnored  int64
	SyncRecords      int64
	Shed             int64
}

// Server is serenityd's peer-facing HTTP surface: artifact get/put for the
// compile path's fetches and write-behind replication, and the one sync
// exchange of the anti-entropy loop, where a peer posts the digest of the keys
// it holds and this node streams back a capped batch of the records it lacks.
// Safe for concurrent use.
type Server struct {
	store  Store
	ring   atomic.Pointer[Ring]
	gate   Gate
	tracer atomic.Pointer[trace.Tracer]

	segHits, segMisses      atomic.Int64
	repAccepted, repIgnored atomic.Int64
	syncRecords, shed       atomic.Int64
}

// NewServer builds the peer surface over store and ring. gate may be nil
// (no admission control — tests and single-tenant drills).
func NewServer(store Store, ring *Ring, gate Gate) *Server {
	s := &Server{store: store, gate: gate}
	s.ring.Store(ring)
	return s
}

// UpdateRing swaps the membership this server belongs to — a join or leave
// took effect. The peer surface itself is membership-agnostic (it answers
// from the store whoever asks), so this only keeps the view consistent.
func (s *Server) UpdateRing(r *Ring) { s.ring.Store(r) }

// SetTracer installs the tracer recording this node's side of fleet
// requests. When a peer request carries a traceparent header, the handler
// records a remote child span under the caller's trace ID, so one trace
// stitches the caller's fetch span to the owner's serve span. Nil disables.
func (s *Server) SetTracer(t *trace.Tracer) { s.tracer.Store(t) }

// serveSpan records one handler's remote child span when the request was
// traced. It returns a done func taking the attributes known only at the
// end of the handler.
func (s *Server) serveSpan(r *http.Request, name string) func(attrs ...trace.Attr) {
	t := s.tracer.Load()
	if t == nil {
		return func(...trace.Attr) {}
	}
	tp := r.Header.Get(TraceparentHeader)
	if tp == "" {
		return func(...trace.Attr) {}
	}
	start := time.Now()
	return func(attrs ...trace.Attr) {
		t.RecordRemote(tp, name, start, time.Since(start), attrs...)
	}
}

// Stats returns a snapshot of the server's counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		SegmentHits:      s.segHits.Load(),
		SegmentMisses:    s.segMisses.Load(),
		ReplicasAccepted: s.repAccepted.Load(),
		ReplicasIgnored:  s.repIgnored.Load(),
		SyncRecords:      s.syncRecords.Load(),
		Shed:             s.shed.Load(),
	}
}

// Register mounts the peer endpoints on mux.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("GET "+segmentPathPrefix+"{key}", s.handleSegmentGet)
	mux.HandleFunc("PUT "+segmentPathPrefix+"{key}", s.handleSegmentPut)
	mux.HandleFunc("POST "+syncPath, s.handleSync)
	// The ping deliberately bypasses the gate: health probes must answer even
	// when the peer lane is saturated, or overload would read as death and
	// the fleet would route around a node that is merely busy.
	mux.HandleFunc("GET "+PingPath, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
}

// admit runs the gate; on shed it writes the 429 itself and returns ok=false.
func (s *Server) admit(w http.ResponseWriter) (func(), bool) {
	if s.gate == nil {
		return func() {}, true
	}
	release, ok := s.gate()
	if !ok {
		s.shed.Add(1)
		http.Error(w, "peer tier saturated", http.StatusTooManyRequests)
		return nil, false
	}
	return release, true
}

func (s *Server) handleSegmentGet(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	done := s.serveSpan(r, "peer.serve.segment")
	key := r.PathValue("key")
	payload, found := s.store.GetArtifact(key)
	done(trace.Str("key", key), trace.Bool("hit", found))
	if !found {
		s.segMisses.Add(1)
		http.Error(w, "unknown segment", http.StatusNotFound)
		return
	}
	s.segHits.Add(1)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Write(payload)
}

func (s *Server) handleSegmentPut(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	done := s.serveSpan(r, "peer.serve.replica")
	key := r.PathValue("key")
	payload, err := io.ReadAll(io.LimitReader(r.Body, maxArtifactBytes+1))
	if err != nil || len(payload) > maxArtifactBytes || len(payload) == 0 {
		done(trace.Str("key", key), trace.Bool("accepted", false))
		http.Error(w, "bad artifact body", http.StatusBadRequest)
		return
	}
	accepted := s.store.PutArtifact(key, payload)
	done(trace.Str("key", key), trace.Bool("accepted", accepted))
	if accepted {
		s.repAccepted.Add(1)
	} else {
		// Already present (first-writer-wins) or failed validation; either
		// way the replication achieved its goal or never could. 204 in both
		// cases — a replica push is idempotent fire-and-forget.
		s.repIgnored.Add(1)
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleSync answers one anti-entropy exchange: the body is the requester's
// digest, and the answer streams back at most the digest's cap of the records
// whose hashes it lacks.
func (s *Server) handleSync(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w)
	if !ok {
		return
	}
	defer release()
	done := s.serveSpan(r, "peer.serve.sync")
	max, have, err := readDigest(r.Body)
	if err != nil {
		done(trace.Int("records", 0))
		http.Error(w, "bad digest body", http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	n, _ := s.store.ExportMissing(w, have, max)
	done(trace.Int("records", int64(n)))
	s.syncRecords.Add(int64(n))
}

// Digest wire format: 4-byte magic "SDG2" | uint32 LE record cap | uint32 LE
// count | count × uint64 LE key-hashes: every key the requester holds, and
// how many records it takes per round. An older node's "SDG1" body (the
// hashes it wanted, not the ones it has) fails the magic check, so a
// mixed-version fleet fails the round instead of importing the wrong set.
var digestMagic = [4]byte{'S', 'D', 'G', '2'}

// maxDigestEntries bounds one digest at 2M keys (16 MiB) so an alien or
// malicious stream cannot balloon into an allocation incident.
const maxDigestEntries = 1 << 21

func encodeDigest(max int, hashes []uint64) []byte {
	buf := make([]byte, 12+8*len(hashes))
	copy(buf, digestMagic[:])
	binary.LittleEndian.PutUint32(buf[4:], uint32(max))
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(hashes)))
	for i, h := range hashes {
		binary.LittleEndian.PutUint64(buf[12+8*i:], h)
	}
	return buf
}

func readDigest(r io.Reader) (max int, have map[uint64]bool, err error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil || [4]byte(hdr[:4]) != digestMagic {
		return 0, nil, errAlien
	}
	count := binary.LittleEndian.Uint32(hdr[8:])
	if count > maxDigestEntries {
		return 0, nil, errAlien
	}
	buf := make([]byte, 8*count)
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, errAlien
	}
	have = make(map[uint64]bool, count)
	for i := 0; i < len(buf); i += 8 {
		have[binary.LittleEndian.Uint64(buf[i:])] = true
	}
	return int(binary.LittleEndian.Uint32(hdr[4:])), have, nil
}
