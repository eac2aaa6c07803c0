package serenity

import "github.com/serenity-ml/serenity/internal/models"

// Benchmark network generators re-exported from internal/models so library
// users can reproduce the paper's evaluation workloads. See that package for
// construction details and README's "Deviations from the paper" for why they
// are generated rather than the paper's artifacts.

// DARTSNormalCell returns the DARTS ImageNet normal cell.
func DARTSNormalCell() *Graph { return models.DARTSNormalCell() }

// SwiftNetCellA returns SwiftNet's Cell A (human presence detection).
func SwiftNetCellA() *Graph { return models.SwiftNetCellA() }

// SwiftNetCellB returns SwiftNet's Cell B.
func SwiftNetCellB() *Graph { return models.SwiftNetCellB() }

// SwiftNetCellC returns SwiftNet's Cell C.
func SwiftNetCellC() *Graph { return models.SwiftNetCellC() }

// SwiftNet returns the full 62-node SwiftNet graph.
func SwiftNet() *Graph { return models.SwiftNet() }

// RandWireCell generates a randomly wired cell from a Watts–Strogatz graph.
func RandWireCell(name string, nodes, k int, p float64, seed int64, hw, channels int) *Graph {
	return models.RandWireCell(name, models.WSConfig{
		Nodes: nodes, K: k, P: p, Seed: seed, HW: hw, Channel: channels,
	})
}

// AdversarialWideGraph generates the memory drill's worst case: `branches`
// independent convolution chains of about `depth` ops between one stem and
// one merge, so the DP frontier grows near 2^branches signatures (which chain
// heads have run; inside a chain every move is a safe one, taken alone) while
// partitioning cannot cut the graph. Deterministic per seed.
func AdversarialWideGraph(name string, branches, depth, hw, channels int, seed int64) *Graph {
	return models.AdversarialWideGraph(name, branches, depth, hw, channels, seed)
}
