package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"sync"
)

// Fingerprint returns a canonical structural hash of the graph: a hex-encoded
// SHA-256 over every node's operation, dtype, shape, predecessor list, and
// scheduling-relevant attributes, in ID order. Two graphs have equal
// fingerprints iff they are structurally identical inputs to the scheduler —
// names and debugging provenance (Attr.Seed) are deliberately excluded, since
// they cannot affect any schedule. The fingerprint is the cache key used by
// internal/cache and cmd/serenityd to recognize repeated compilations of the
// same topology.
func (g *Graph) Fingerprint() string {
	var hx [2 * sha256.Size]byte
	return string(g.AppendFingerprint(hx[:0]))
}

// AppendFingerprint appends the hex digits of Fingerprint to dst. Hashing
// allocates nothing: the writer and its digest are recycled.
func (g *Graph) AppendFingerprint(dst []byte) []byte {
	w := writers.Get().(*FingerprintWriter)
	defer writers.Put(w)
	w.Begin(len(g.Nodes))
	for _, nd := range g.Nodes {
		w.Node(nd, nil, 0)
	}
	return w.AppendHex(dst)
}

// FingerprintWriter is the one encoder behind Fingerprint. It streams a
// graph's words — the node count, then for every node in ID order its
// operation, dtype, shape, operands and scheduling attributes — through a
// fixed buffer into one SHA-256 digest. Graph.AppendFingerprint feeds it a
// graph's own nodes; a caller that hashes a subgraph without building it (a
// partition segment) feeds it the subgraph's nodes with their operands
// renumbered. The zero value is ready to use, and a writer is reusable:
// Begin starts over in the same digest.
type FingerprintWriter struct {
	h   hash.Hash
	n   int
	buf [512]byte
	sum [sha256.Size]byte
}

// writers recycles AppendFingerprint's writers, digests included.
var writers = sync.Pool{New: func() any { return new(FingerprintWriter) }}

// Begin starts the fingerprint of a graph of nodes nodes.
func (w *FingerprintWriter) Begin(nodes int) {
	if w.h == nil {
		w.h = sha256.New()
	}
	w.h.Reset()
	w.n = len(binary.LittleEndian.AppendUint64(w.buf[:0], uint64(nodes)))
}

// spill hashes the staged words; Node's word stays small enough to inline.
//
//go:noinline
func (w *FingerprintWriter) spill(b []byte) []byte {
	w.h.Write(b)
	return b[:0]
}

// Node writes nd's words. With ids nil its operands and a non-negative
// AliasOf are written as they are; otherwise each such node ID u is written
// as ids[u] - base, its ID in the subgraph being hashed.
func (w *FingerprintWriter) Node(nd *Node, ids []int, base int) {
	b := w.buf[:w.n]
	word := func(v int) {
		if len(b) == len(w.buf) {
			b = w.spill(b)
		}
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	id := func(u int) int {
		if ids == nil || u < 0 {
			return u
		}
		return ids[u] - base
	}
	word(int(nd.Op))
	word(int(nd.DType))
	word(len(nd.Shape))
	for _, d := range nd.Shape {
		word(d)
	}
	word(len(nd.Preds))
	for _, p := range nd.Preds {
		word(id(p))
	}
	a := nd.Attr
	word(a.KernelH)
	word(a.KernelW)
	word(a.StrideH)
	word(a.StrideW)
	word(int(a.Pad))
	word(a.Dilation)
	word(a.Axis)
	word(id(a.AliasOf))
	word(a.ChanOffset)
	word(a.InChannels)
	w.n = len(b)
}

// AppendHex ends the fingerprint and appends its hex digits to dst.
func (w *FingerprintWriter) AppendHex(dst []byte) []byte {
	w.n = len(w.spill(w.buf[:w.n]))
	return hex.AppendEncode(dst, w.h.Sum(w.sum[:0]))
}
