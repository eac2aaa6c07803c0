package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
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

// AppendFingerprint appends the hex digits of Fingerprint to dst. The words
// go through a fixed buffer on the stack into one SHA-256 digest, so hashing
// allocates nothing.
func (g *Graph) AppendFingerprint(dst []byte) []byte {
	h := sha256.New()
	var buf [512]byte
	n := 0
	wi := func(v int64) {
		if n == len(buf) {
			h.Write(buf[:])
			n = 0
		}
		binary.LittleEndian.PutUint64(buf[n:], uint64(v))
		n += 8
	}
	wi(int64(len(g.Nodes)))
	for _, nd := range g.Nodes {
		wi(int64(nd.Op))
		wi(int64(nd.DType))
		wi(int64(len(nd.Shape)))
		for _, d := range nd.Shape {
			wi(int64(d))
		}
		wi(int64(len(nd.Preds)))
		for _, p := range nd.Preds {
			wi(int64(p))
		}
		a := nd.Attr
		wi(int64(a.KernelH))
		wi(int64(a.KernelW))
		wi(int64(a.StrideH))
		wi(int64(a.StrideW))
		wi(int64(a.Pad))
		wi(int64(a.Dilation))
		wi(int64(a.Axis))
		wi(int64(a.AliasOf))
		wi(int64(a.ChanOffset))
		wi(int64(a.InChannels))
	}
	h.Write(buf[:n])
	var sum [sha256.Size]byte
	return hex.AppendEncode(dst, h.Sum(sum[:0]))
}
