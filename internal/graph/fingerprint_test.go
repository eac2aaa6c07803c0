package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"testing"
)

func fingerprintNet() *Graph {
	b := NewBuilder("fp")
	in := b.Input(Shape{1, 8, 8, 4})
	x := b.Conv(in, 8, 3, 1, PadSame)
	y := b.Conv(in, 8, 3, 1, PadSame)
	b.Concat(x, y)
	return b.Graph()
}

func TestFingerprintDeterministic(t *testing.T) {
	g := fingerprintNet()
	f1, f2 := g.Fingerprint(), g.Fingerprint()
	if f1 != f2 {
		t.Fatalf("fingerprint not deterministic: %s vs %s", f1, f2)
	}
	if len(f1) != 64 {
		t.Fatalf("fingerprint length %d, want 64 hex chars", len(f1))
	}
}

func TestFingerprintIgnoresNames(t *testing.T) {
	a, b := fingerprintNet(), fingerprintNet()
	b.Name = "renamed"
	for _, n := range b.Nodes {
		n.Name = "x" + n.Name
	}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("renaming nodes changed the structural fingerprint")
	}
	b.Nodes[1].Attr.Seed = 42
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("Attr.Seed changed the structural fingerprint")
	}
}

func TestFingerprintSensitiveToStructure(t *testing.T) {
	base := fingerprintNet().Fingerprint()
	mut := func(name string, f func(g *Graph)) {
		g := fingerprintNet()
		f(g)
		if g.Fingerprint() == base {
			t.Errorf("%s: fingerprint unchanged", name)
		}
	}
	mut("shape", func(g *Graph) { g.Nodes[1].Shape[3] = 16 })
	mut("dtype", func(g *Graph) { g.Nodes[1].DType = Int8 })
	mut("op", func(g *Graph) { g.Nodes[1].Op = OpMaxPool })
	mut("kernel", func(g *Graph) { g.Nodes[1].Attr.KernelH = 5 })
	mut("alias", func(g *Graph) { g.Nodes[3].Attr.AliasOf = 1 })
	mut("extra-node", func(g *Graph) { g.AddNode(OpReLU, "t", Shape{1, 8, 8, 16}, 3) })
	mut("extra-edge", func(g *Graph) { g.AddEdge(0, 3) })
}

func TestFingerprintRandomCollisionFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seen := map[string]bool{}
	for i := 0; i < 200; i++ {
		g := RandomDAG(rng, RandomDAGConfig{Nodes: 12, EdgeProb: 0.4})
		seen[g.Fingerprint()] = true
	}
	// Random graphs occasionally repeat topology+sizes; just require that
	// fingerprints distinguish the overwhelming majority.
	if len(seen) < 190 {
		t.Errorf("only %d distinct fingerprints over 200 random graphs", len(seen))
	}
}

// fingerprintReference is Fingerprint as first written: every word appended
// to one buffer, hashed in one call.
func fingerprintReference(g *Graph) string {
	var buf []byte
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
		for _, v := range []int{a.KernelH, a.KernelW, a.StrideH, a.StrideW, int(a.Pad), a.Dilation, a.Axis, a.AliasOf, a.ChanOffset, a.InChannels} {
			wi(int64(v))
		}
	}
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// TestFingerprintStreamsWithoutAllocating: the streamed hash equals the
// one-buffer hash on graphs whose words end on and around every offset of
// the stack buffer, and costs at most the digest and the returned string.
func TestFingerprintStreamsWithoutAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for nodes := 0; nodes < 120; nodes++ {
		g := RandomDAG(rng, RandomDAGConfig{Nodes: nodes, EdgeProb: 0.2})
		if got, want := g.Fingerprint(), fingerprintReference(g); got != want {
			t.Fatalf("%d nodes: fingerprint %s, reference %s", nodes, got, want)
		}
	}
	g := RandomDAG(rng, RandomDAGConfig{Nodes: 300, EdgeProb: 0.05})
	if allocs := testing.AllocsPerRun(20, func() { g.Fingerprint() }); allocs > 2 {
		t.Errorf("Fingerprint took %.0f allocations, want at most 2", allocs)
	}
}
