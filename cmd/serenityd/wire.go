package main

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"sync"

	serenity "github.com/serenity-ml/serenity"
	"github.com/serenity-ml/serenity/internal/jsonwire"
)

// The schedule endpoints' responses are appended by hand: a response carrying
// a rewritten graph is ~87 KB, and rendering it through encoding/json
// (reflection, a compaction pass over the nested graph, a re-indentation pass
// over the whole document) cost more CPU than the warm scheduler itself. The
// bytes are exactly what json.Encoder with SetIndent("", "  ") emitted, so
// clients and stored ETags see no difference; the struct tags on
// scheduleResponse and batchResponse remain the definition, and
// TestResponseEncoderCoversEveryField fails when a field is added to either
// without being taught here.

// appendScheduleResponse appends r as a JSON value nested depth levels deep
// (0 on the single endpoint, inside items[i].schedule on the batch one),
// without a trailing newline.
func appendScheduleResponse(dst []byte, r *scheduleResponse, depth int) []byte {
	d := depth + 1
	dst = append(dst, '{')
	dst = jsonwire.Key(dst, d, "graph", true)
	dst = jsonwire.String(dst, r.Graph)
	dst = jsonwire.Int(dst, d, "nodes", int64(r.Nodes), false)
	dst = jsonwire.Key(dst, d, "fingerprint", false)
	dst = jsonwire.String(dst, r.Fingerprint)
	dst = jsonwire.Key(dst, d, "order", false)
	dst = jsonwire.Ints(dst, r.Order, d)
	dst = jsonwire.Int(dst, d, "peak", r.Peak, false)
	dst = jsonwire.Int(dst, d, "arena_size", r.ArenaSize, false)
	dst = jsonwire.Int(dst, d, "baseline_peak", r.BaselinePeak, false)
	dst = jsonwire.Int(dst, d, "rewrites", int64(r.Rewrites), true)
	if len(r.PartitionSizes) > 0 {
		dst = jsonwire.Key(dst, d, "partition_sizes", false)
		dst = jsonwire.Ints(dst, r.PartitionSizes, d)
	}
	dst = jsonwire.Key(dst, d, "strategy", false)
	dst = jsonwire.String(dst, r.Strategy)
	dst = jsonwire.Key(dst, d, "quality", false)
	dst = jsonwire.String(dst, string(r.Quality))
	if len(r.SegmentQuality) > 0 {
		dst = jsonwire.Key(dst, d, "segment_quality", false)
		dst = appendQualities(dst, r.SegmentQuality, d)
	}
	dst = jsonwire.Int(dst, d, "fallbacks", int64(r.Fallbacks), true)
	dst = jsonwire.Int(dst, d, "states_explored", r.StatesExplored, false)
	dst = jsonwire.Int(dst, d, "segment_memo_hits", int64(r.SegmentMemoHits), true)
	dst = jsonwire.Int(dst, d, "segment_memo_disk_hits", int64(r.SegmentMemoDiskHits), true)
	dst = jsonwire.Int(dst, d, "segment_memo_peer_hits", int64(r.SegmentMemoPeerHits), true)
	dst = jsonwire.Int(dst, d, "max_frontier", int64(r.MaxFrontier), true)
	dst = jsonwire.Key(dst, d, "scheduling_ms", false)
	dst = jsonwire.Float(dst, r.SchedulingMS)
	dst = jsonwire.Key(dst, d, "stage_ms", false)
	dst = append(dst, '{')
	dst = jsonwire.Key(dst, d+1, "rewrite", true)
	dst = jsonwire.Float(dst, r.StageMS.Rewrite)
	dst = jsonwire.Key(dst, d+1, "partition", false)
	dst = jsonwire.Float(dst, r.StageMS.Partition)
	dst = jsonwire.Key(dst, d+1, "search", false)
	dst = jsonwire.Float(dst, r.StageMS.Search)
	dst = jsonwire.Key(dst, d+1, "alloc", false)
	dst = jsonwire.Float(dst, r.StageMS.Alloc)
	dst = jsonwire.Line(dst, d)
	dst = append(dst, '}')
	dst = jsonwire.Key(dst, d, "cached", false)
	dst = strconv.AppendBool(dst, r.Cached)
	dst = jsonwire.Int(dst, d, "refinements_queued", int64(r.RefinementsQueued), true)
	if r.RewrittenGraph != nil {
		dst = jsonwire.Key(dst, d, "rewritten_graph", false)
		dst = r.RewrittenGraph.AppendJSON(dst, d)
	}
	if r.Trace != nil {
		// The ?debug=trace subtree is a debugging surface and stays on
		// encoding/json, indented as a value at this depth. Its fields are
		// strings, integers, bools and string maps: Marshal cannot fail.
		sub, _ := json.MarshalIndent(r.Trace, strings.Repeat("  ", d), "  ")
		dst = jsonwire.Key(dst, d, "trace", false)
		dst = append(dst, sub...)
	}
	dst = jsonwire.Line(dst, depth)
	return append(dst, '}')
}

// appendBatchResponse appends the batch reply document.
func appendBatchResponse(dst []byte, r *batchResponse) []byte {
	dst = append(dst, '{')
	dst = jsonwire.Key(dst, 1, "items", true)
	switch {
	case r.Items == nil:
		dst = append(dst, "null"...)
	case len(r.Items) == 0:
		dst = append(dst, '[', ']')
	default:
		dst = append(dst, '[')
		for i := range r.Items {
			it := &r.Items[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = jsonwire.Line(dst, 2)
			dst = append(dst, '{')
			dst = jsonwire.Key(dst, 3, "index", true)
			dst = strconv.AppendInt(dst, int64(it.Index), 10)
			dst = jsonwire.Int(dst, 3, "status", int64(it.Status), false)
			if it.Error != "" {
				dst = jsonwire.Key(dst, 3, "error", false)
				dst = jsonwire.String(dst, it.Error)
			}
			if it.Schedule != nil {
				dst = jsonwire.Key(dst, 3, "schedule", false)
				dst = appendScheduleResponse(dst, it.Schedule, 3)
			}
			dst = jsonwire.Line(dst, 2)
			dst = append(dst, '}')
		}
		dst = jsonwire.Line(dst, 1)
		dst = append(dst, ']')
	}
	dst = jsonwire.Int(dst, 1, "scheduled", int64(r.Scheduled), false)
	dst = jsonwire.Int(dst, 1, "failed", int64(r.Failed), false)
	dst = jsonwire.Line(dst, 0)
	return append(dst, '}')
}

func appendQualities(dst []byte, qs []serenity.Quality, depth int) []byte {
	dst = append(dst, '[')
	for i, q := range qs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = jsonwire.Line(dst, depth+1)
		dst = jsonwire.String(dst, string(q))
	}
	dst = jsonwire.Line(dst, depth)
	return append(dst, ']')
}

// wireBufs recycles request-body and response buffers: without it a warm
// request allocates ~200 KB of them, most of what makes the garbage collector
// run. A buffer goes back once nothing reads it — a body after decoding (the
// graph decoders and json.RawMessage copy what they keep), a response after
// Write (an io.Writer must not retain its argument). One grown past
// maxBodyPresize is left to the collector, so a huge request pins nothing.
var wireBufs = sync.Pool{New: func() any { return new([]byte) }}

func getWireBuf() *[]byte { return wireBufs.Get().(*[]byte) }

// putWireBuf hands *bp back to the pool; the caller must not touch it again.
func putWireBuf(bp *[]byte) {
	if cap(*bp) > maxBodyPresize {
		return
	}
	*bp = (*bp)[:0]
	wireBufs.Put(bp)
}

// writeScheduleResponse answers 200 with r and its entity tag.
func writeScheduleResponse(w http.ResponseWriter, r *scheduleResponse) {
	w.Header().Set("ETag", r.etag)
	bp := getWireBuf()
	*bp = append(appendScheduleResponse(*bp, r, 0), '\n')
	writeBody(w, http.StatusOK, *bp)
	putWireBuf(bp)
}

func writeBatchResponse(w http.ResponseWriter, r *batchResponse) {
	bp := getWireBuf()
	*bp = append(appendBatchResponse(*bp, r), '\n')
	writeBody(w, http.StatusOK, *bp)
	putWireBuf(bp)
}

// writeBody sends one complete JSON document: length declared, one Write.
func writeBody(w http.ResponseWriter, code int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(code)
	_, _ = w.Write(body) // a failed write means the client is gone; nobody is left to tell
}
