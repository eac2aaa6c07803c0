package models

import (
	"fmt"
	"math/rand"

	"github.com/serenity-ml/serenity/internal/graph"
)

// RandWire (Xie et al. 2019) networks are built from randomly wired cells
// generated with the Watts–Strogatz WS(n, k, p) model: a ring of n nodes
// each connected to its k nearest neighbours, with every clockwise edge
// rewired to a uniform random target with probability p. Edges are oriented
// from lower to higher node index to form a DAG; each graph node aggregates
// its inputs with a weighted sum and applies a ReLU-SepConv-BN transform
// (modeled as Add + SepConv); sources hang off the cell input and sink
// outputs are averaged into the cell output.
//
// The index ordering of a WS ring has no memory locality — which is exactly
// why memory-oblivious emission orders do poorly on these cells (Figure 3).

// WSConfig parameterizes a Watts–Strogatz cell.
type WSConfig struct {
	Nodes   int     // ring size n
	K       int     // nearest neighbours (even)
	P       float64 // rewiring probability
	Seed    int64   // generator seed (cells are deterministic per seed)
	HW      int     // feature map side
	Channel int     // channels per node
}

// Validate reports why cfg draws no WS cell: the ring needs at least 4
// nodes, and K must be even and at least 2.
func (cfg WSConfig) Validate() error {
	if cfg.Nodes < 4 || cfg.K < 2 || cfg.K%2 != 0 {
		return fmt.Errorf("bad Watts-Strogatz config: %d nodes with k=%d (want at least 4 nodes and an even k >= 2)", cfg.Nodes, cfg.K)
	}
	return nil
}

// wsEdges generates the WS random graph as directed index pairs (u < v).
func wsEdges(cfg WSConfig) [][2]int {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := cfg.Nodes
	type edge struct{ u, v int }
	seen := map[edge]bool{}
	var edges []edge
	addEdge := func(a, b int) {
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		e := edge{a, b}
		if !seen[e] {
			seen[e] = true
			edges = append(edges, e)
		}
	}
	for i := 0; i < n; i++ {
		for j := 1; j <= cfg.K/2; j++ {
			target := (i + j) % n
			if rng.Float64() < cfg.P {
				// Rewire the clockwise edge to a uniform random node.
				target = rng.Intn(n)
				for target == i {
					target = rng.Intn(n)
				}
			}
			addEdge(i, target)
		}
	}
	out := make([][2]int, len(edges))
	for i, e := range edges {
		out[i] = [2]int{e.u, e.v}
	}
	return out
}

// RandWireCell builds one randomly wired cell. It panics on a cfg that
// fails Validate: check values from outside the program first.
func RandWireCell(name string, cfg WSConfig) *graph.Graph {
	if err := cfg.Validate(); err != nil {
		panic(fmt.Sprintf("models: %v: %+v", err, cfg))
	}
	edges := wsEdges(cfg)
	preds := make([][]int, cfg.Nodes)
	for _, e := range edges {
		preds[e[1]] = append(preds[e[1]], e[0])
	}

	b := graph.NewBuilder(name)
	shape := graph.Shape{1, cfg.HW, cfg.HW, cfg.Channel}
	in := b.Input(shape)
	stem := b.PointwiseConv(in, cfg.Channel)

	ids := make([]int, cfg.Nodes)
	for i := 0; i < cfg.Nodes; i++ {
		var src int
		switch len(preds[i]) {
		case 0:
			src = stem // source nodes consume the cell input
		case 1:
			src = ids[preds[i][0]]
		default:
			ops := make([]int, len(preds[i]))
			for j, p := range preds[i] {
				ops[j] = ids[p]
			}
			src = b.Add(ops...) // weighted-sum aggregation
		}
		ids[i] = b.SepConv(src, cfg.Channel, 3, 1, graph.PadSame)
	}

	// Average the sink nodes into the cell output.
	g := b.Graph()
	var sinks []int
	for _, id := range ids {
		if len(g.Nodes[id].Succs) == 0 {
			sinks = append(sinks, id)
		}
	}
	var out int
	if len(sinks) == 1 {
		out = sinks[0]
	} else {
		out = b.Add(sinks...)
	}
	b.PointwiseConv(out, cfg.Channel)
	return g
}

// The five RandWire benchmark cells (Figure 10's RandWire columns): two for
// CIFAR-10 and three for CIFAR-100, WS(32, 4, 0.75) as in the RandWire
// small-regime networks, at the resolutions of the corresponding stage.
func randWireConfigs() map[string]WSConfig {
	return map[string]WSConfig{
		"randwire_c10_a":  {Nodes: 32, K: 4, P: 0.75, Seed: 101, HW: 32, Channel: 16},
		"randwire_c10_b":  {Nodes: 32, K: 4, P: 0.75, Seed: 102, HW: 16, Channel: 32},
		"randwire_c100_a": {Nodes: 32, K: 4, P: 0.75, Seed: 201, HW: 32, Channel: 16},
		"randwire_c100_b": {Nodes: 32, K: 4, P: 0.75, Seed: 202, HW: 16, Channel: 32},
		"randwire_c100_c": {Nodes: 32, K: 4, P: 0.75, Seed: 203, HW: 8, Channel: 64},
	}
}

// RandWireCIFAR10CellA returns the first CIFAR-10 RandWire benchmark cell.
func RandWireCIFAR10CellA() *graph.Graph {
	return RandWireCell("randwire_c10_a", randWireConfigs()["randwire_c10_a"])
}

// RandWireCIFAR10CellB returns the second CIFAR-10 RandWire benchmark cell.
func RandWireCIFAR10CellB() *graph.Graph {
	return RandWireCell("randwire_c10_b", randWireConfigs()["randwire_c10_b"])
}

// RandWireCIFAR100CellA returns the first CIFAR-100 RandWire benchmark cell.
func RandWireCIFAR100CellA() *graph.Graph {
	return RandWireCell("randwire_c100_a", randWireConfigs()["randwire_c100_a"])
}

// RandWireCIFAR100CellB returns the second CIFAR-100 RandWire benchmark cell.
func RandWireCIFAR100CellB() *graph.Graph {
	return RandWireCell("randwire_c100_b", randWireConfigs()["randwire_c100_b"])
}

// RandWireCIFAR100CellC returns the third CIFAR-100 RandWire benchmark cell.
func RandWireCIFAR100CellC() *graph.Graph {
	return RandWireCell("randwire_c100_c", randWireConfigs()["randwire_c100_c"])
}
