package main

import (
	"bytes"
	"fmt"
	"math"

	serenity "github.com/serenity-ml/serenity"
)

// The generator is written against the public graph builder only, and draws
// every random choice from its own splitmix64 stream, so the request bodies
// of a seed are byte-identical on every Go version and on both sides of a
// parent/change comparison (pinned by TestGeneratorBodiesPinned).

// Generator constants. They are part of the benchmark's definition: changing
// one changes every workload's inputs and invalidates expected/ and results/.
const (
	wsK        = 4    // Watts–Strogatz nearest neighbours
	wsP        = 0.75 // Watts–Strogatz rewiring probability
	tensorSide = 16   // every tensor is 1×16×16×16
	tensorChan = 16
)

// rng is splitmix64: tiny, fast, and frozen here rather than in math/rand.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// exp returns an exponential variate of mean 1 (Poisson inter-arrival gaps).
func (r *rng) exp() float64 { return -math.Log(1 - r.float()) }

// shuffle permutes xs in place (Fisher–Yates).
func shuffle[T any](r *rng, xs []T) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// subSeed derives an independent stream seed from a parent seed and a path of
// small integers (workload, purpose, index), so adding a draw to one stream
// never shifts another.
func subSeed(seed uint64, path ...uint64) uint64 {
	r := rng{s: seed}
	for _, p := range path {
		r.s ^= p * 0xd6e8feb86659fd93
		r.next()
	}
	return r.next()
}

// cell is one randomly wired cell: WS(n, 4, 0.75) wiring from seed, and the
// aggregation of its sink nodes. A concat cell ends in concat → pointwise
// conv, the DARTS/SwiftNet shape internal/rewrite matches; an add cell ends in
// a weighted sum, the RandWire shape, which no rewrite applies to.
type cell struct {
	n      int
	seed   uint64
	concat bool
}

// newCell draws a cell's aggregation from its own seed, so a cell is fully
// named by (n, seed).
func newCell(n int, seed uint64) cell {
	r := rng{s: seed}
	return cell{n: n, seed: seed, concat: r.next()&1 == 0}
}

// wsPreds generates the Watts–Strogatz ring of c and returns each node's
// predecessor list. Edges run from the lower to the higher index, so the ring
// is a DAG whose index order has no memory locality.
func wsPreds(c cell) [][]int {
	r := rng{s: c.seed ^ 0x5bf03635d2d1a9c3}
	seen := map[[2]int]bool{}
	preds := make([][]int, c.n)
	for i := 0; i < c.n; i++ {
		for j := 1; j <= wsK/2; j++ {
			target := (i + j) % c.n
			if r.float() < wsP {
				target = r.intn(c.n)
				for target == i {
					target = r.intn(c.n)
				}
			}
			u, v := i, target
			if u > v {
				u, v = v, u
			}
			if !seen[[2]int{u, v}] {
				seen[[2]int{u, v}] = true
				preds[v] = append(preds[v], u)
			}
		}
	}
	return preds
}

// addCell appends c to b, reading the boundary tensor x, and returns the
// cell's single output tensor.
func addCell(b *serenity.Builder, x int, c cell) int {
	preds := wsPreds(c)
	ids := make([]int, c.n)
	used := make([]bool, c.n)
	for i := range ids {
		src := x // ring sources read the cell input
		switch len(preds[i]) {
		case 0:
		case 1:
			src = ids[preds[i][0]]
		default:
			ops := make([]int, len(preds[i]))
			for j, p := range preds[i] {
				ops[j] = ids[p]
			}
			src = b.Add(ops...)
		}
		for _, p := range preds[i] {
			used[p] = true
		}
		ids[i] = b.SepConv(src, tensorChan, 3, 1, serenity.PadSame)
	}
	var sinks []int
	for i, id := range ids {
		if !used[i] {
			sinks = append(sinks, id)
		}
	}
	switch {
	case len(sinks) == 1 && c.concat:
		return b.PointwiseConv(sinks[0], tensorChan)
	case len(sinks) == 1:
		return sinks[0]
	case c.concat:
		return b.PointwiseConv(b.Concat(sinks...), tensorChan)
	}
	return b.Add(sinks...)
}

// stack builds the graph that chains cells, each behind a 1×1 projection. The
// projections are single-tensor waists, so partition.Split cuts the graph into
// one search problem per cell, and a cell's segment fingerprint is the same in
// every graph that contains it.
func stack(name string, cells []cell) *serenity.Graph {
	b := serenity.NewBuilder(name)
	x := b.Input(serenity.Shape{1, tensorSide, tensorSide, tensorChan})
	for _, c := range cells {
		x = addCell(b, b.PointwiseConv(x, tensorChan), c)
	}
	return b.Graph()
}

// encode renders g as a /v1/schedule request body.
func encode(g *serenity.Graph) ([]byte, error) {
	var buf bytes.Buffer
	if err := serenity.WriteGraphJSON(&buf, g); err != nil {
		return nil, fmt.Errorf("encoding %s: %w", g.Name, err)
	}
	return buf.Bytes(), nil
}
