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
	// Every word is appended to one buffer, sized for the fixed words of
	// each node, and hashed in a single call.
	words := 1
	for _, n := range g.Nodes {
		words += 14 + len(n.Shape) + len(n.Preds)
	}
	buf := make([]byte, 0, 8*words)
	wi := func(v int64) { buf = binary.LittleEndian.AppendUint64(buf, uint64(v)) }
	wi(int64(len(g.Nodes)))
	for _, n := range g.Nodes {
		wi(int64(n.Op))
		wi(int64(n.DType))
		wi(int64(len(n.Shape)))
		for _, d := range n.Shape {
			wi(int64(d))
		}
		wi(int64(len(n.Preds)))
		for _, p := range n.Preds {
			wi(int64(p))
		}
		a := n.Attr
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
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}
