package graph

import (
	"errors"
	"math/rand"
	"testing"
)

// validateRef is the reference Validate is held to: every structural
// check, then TopoOrder whatever the edges.
func validateRef(g *Graph) error {
	if err := g.Validate(); err != nil {
		return err
	}
	_, err := g.TopoOrder()
	return err
}

// mutateEdges gives a random DAG up to three AddEdge edges between random
// nodes (back edges, some of them closing a cycle; forward edges; self
// loops; repeated operands), and when mode asks, a repeated operand listed
// only once among its producer's succs, which TopoOrder reads as a cycle.
func mutateEdges(rng *rand.Rand, g *Graph, extra, mode uint8) {
	n := len(g.Nodes)
	for k := 0; k < int(extra%4); k++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	if mode&1 != 0 {
		v := g.Nodes[1+rng.Intn(n-1)]
		v.Preds = append(v.Preds, v.Preds[rng.Intn(len(v.Preds))])
	}
	if mode&2 != 0 {
		if v := g.Nodes[1+rng.Intn(n-1)]; len(v.Preds) > 0 {
			v.Attr.AliasOf = v.Preds[0]
		}
	}
}

// checkValidate compares Validate with validateRef on one mutated graph and
// returns whether the graph has an edge that does not run forward in ID
// order, and the verdict.
func checkValidate(t *testing.T, seed int64, extra, mode uint8) (backEdge bool, err error) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := RandomDAG(rng, RandomDAGConfig{Nodes: 2 + rng.Intn(24), EdgeProb: 0.2})
	mutateEdges(rng, g, extra, mode)
	got, want := g.Validate(), validateRef(g)
	switch {
	case (got == nil) != (want == nil):
		t.Fatalf("seed %d extra %d mode %d: Validate says %v, TopoOrder reference says %v", seed, extra, mode, got, want)
	case got != nil && got.Error() != want.Error():
		t.Fatalf("seed %d extra %d mode %d: Validate error %q, reference error %q", seed, extra, mode, got, want)
	}
	for id, n := range g.Nodes {
		for _, p := range n.Preds {
			backEdge = backEdge || p >= id
		}
	}
	return backEdge, got
}

// FuzzValidateDifferential holds Validate's one-pass acyclicity proof to
// TopoOrder: on random DAGs, with and without AddEdge back edges, cycles and
// repeated operands, the verdict and the error text are the reference's.
func FuzzValidateDifferential(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, uint8(seed), uint8(seed/4))
	}
	f.Fuzz(func(t *testing.T, seed int64, extra, mode uint8) { checkValidate(t, seed, extra, mode) })
}

// TestValidateMatchesTopoOrder runs the differential over enough seeds to
// reach every kind of graph it is meant for, and checks that it did.
func TestValidateMatchesTopoOrder(t *testing.T) {
	var acyclicBack, cyclic, repeatedCycle int
	for seed := int64(0); seed < 2000; seed++ {
		back, err := checkValidate(t, seed, uint8(seed), uint8(seed/4))
		switch cycle := errors.Is(err, ErrCycle); {
		case err == nil && back:
			acyclicBack++
		case cycle && back:
			cyclic++
		case cycle:
			repeatedCycle++
		}
	}
	if acyclicBack == 0 || cyclic == 0 || repeatedCycle == 0 {
		t.Errorf("coverage: %d acyclic graphs with back edges, %d cyclic, %d repeated operands read as cycles; want some of each",
			acyclicBack, cyclic, repeatedCycle)
	}
}
