package models

import (
	"fmt"
	"math/rand"

	"github.com/serenity-ml/serenity/internal/graph"
)

// AdversarialWideGraph builds the memory drill's worst case: a shared stem
// fanning out into `branches` independent SepConv chains of about `depth`
// operations each, merged by a single Add before the output head.
//
// The shape is chosen to maximize the DP's frontier per node scheduled. A
// chain's head cannot free the stem while another head is pending, so it is
// never a safe move and the search branches on which heads have run: about
// 2^B signatures coexist, exponential in the branch count, while the graph
// itself stays small. (Inside a chain every tensor has the same size, each
// operation frees what it allocates and the DP takes it alone, so depth no
// longer multiplies the frontier: the (depth+1)^B interleavings of the chains
// collapse to forced moves.) And because every interior node lies on a
// stem→merge path, the graph has no internal articulation points:
// divide-and-conquer cannot cut it, so the whole frontier lands in ONE
// segment's search. That is the profile that drives a byte-accounted search
// into a tight MemLimit valve, which is what the OOM-chaos suite needs to
// provoke deterministically.
//
// The seed jitters each chain's depth by ±1, giving the drill distinct
// fingerprints (no memo reuse across passes) without changing the frontier
// profile; generation is deterministic per (seed, shape) so chaos runs
// replay bit-identically.
func AdversarialWideGraph(name string, branches, depth, hw, channels int, seed int64) *graph.Graph {
	if branches < 2 || depth < 1 || hw < 1 || channels < 1 {
		panic(fmt.Sprintf("models: bad adversarial config branches=%d depth=%d hw=%d channels=%d",
			branches, depth, hw, channels))
	}
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(name)
	shape := graph.Shape{1, hw, hw, channels}
	in := b.Input(shape)
	stem := b.PointwiseConv(in, channels)

	ends := make([]int, branches)
	for i := 0; i < branches; i++ {
		d := depth + rng.Intn(3) - 1 // depth-1, depth, or depth+1
		if d < 1 {
			d = 1
		}
		cur := stem
		for j := 0; j < d; j++ {
			cur = b.SepConv(cur, channels, 3, 1, graph.PadSame)
		}
		ends[i] = cur
	}
	merged := b.Add(ends...)
	b.PointwiseConv(merged, channels)
	return b.Graph()
}
