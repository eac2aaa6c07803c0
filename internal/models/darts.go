// Package models generates the irregularly wired benchmark networks of the
// paper's evaluation (Table 1): the DARTS ImageNet normal cell, SwiftNet's
// three cells for human-presence detection, and RandWire Watts–Strogatz
// cells for CIFAR-10/100. The paper's exact artifacts are not published, so
// these generators follow each source paper's published construction and
// match the structural statistics the paper reports (e.g. SwiftNet's 62
// nodes partitioning as {21,19,22}, 92 = {33,28,29} after rewriting); see
// README's "Deviations from the paper".
package models

import (
	"github.com/serenity-ml/serenity/internal/graph"
)

// DARTSNormalCell builds the learned DARTS (V2) normal cell for ImageNet,
// including the two 1×1 preprocessing convolutions and the next cell's 1×1
// preprocessing conv after the output concat (the concat→conv pair is what
// channel-wise rewriting targets). Genotype (Liu et al. 2019):
//
//	s2 = sep3(s0) + sep3(s1)
//	s3 = sep3(s0) + sep3(s1)
//	s4 = sep3(s1) + skip(s0)
//	s5 = skip(s0) + dil3(s2)
//	out = concat(s2, s3, s4, s5)
//
// The first normal cell has the highest peak footprint and the rest of the
// network stacks the same cell (paper Section 4.1), so this single cell is
// the scheduling benchmark.
func DARTSNormalCell() *graph.Graph {
	const (
		hw = 28 // feature map side at the first normal cell
		c  = 48 // cell channel count (the first ImageNet normal cell)
	)
	b := graph.NewBuilder("darts_normal")
	in0 := b.Input(graph.Shape{1, hw, hw, c}) // c_{k-2}
	in1 := b.Input(graph.Shape{1, hw, hw, c}) // c_{k-1}
	pre0 := b.PointwiseConv(in0, c)
	pre1 := b.PointwiseConv(in1, c)

	// DARTS sep_conv_3x3 is two stacked ReLU-SepConv-BN blocks.
	sep3 := func(x int) int {
		return b.SepConv(b.SepConv(x, c, 3, 1, graph.PadSame), c, 3, 1, graph.PadSame)
	}
	s2 := b.Add(sep3(pre0), sep3(pre1))
	s3 := b.Add(sep3(pre0), sep3(pre1))
	s4 := b.Add(sep3(pre1), b.Identity(pre0))
	s5 := b.Add(b.Identity(pre0), b.DilConv(s2, c, 3, 1, 2, graph.PadSame))

	out := b.Concat(s2, s3, s4, s5)
	b.PointwiseConv(out, c) // next cell's preprocessing: the rewrite target
	return b.Graph()
}
