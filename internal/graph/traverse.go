package graph

import (
	"errors"
	"fmt"

	"github.com/serenity-ml/serenity/internal/reuse"
)

// ErrCycle is returned when an operation requires a DAG but the graph
// contains a directed cycle.
var ErrCycle = errors.New("graph: not a DAG (cycle detected)")

// TopoOrder returns the node IDs in a deterministic topological order
// (Kahn's algorithm with a min-ID tie break). It returns ErrCycle if the
// graph is not a DAG.
func (g *Graph) TopoOrder() ([]int, error) {
	var t TopoScratch
	return t.Order(g)
}

// TopoScratch is TopoOrder's working memory, kept by a caller that orders one
// graph after another. The zero value is ready to use; it is not safe for
// concurrent use.
type TopoScratch struct{ indeg, heap, order []int }

// Order is TopoOrder in t's memory: the order it returns is valid until t's
// next use.
func (t *TopoScratch) Order(g *Graph) ([]int, error) {
	n := len(g.Nodes)
	t.indeg = g.IndegreesInto(t.indeg)
	indeg := t.indeg
	// Min-heap by node ID for determinism.
	heap := reuse.Empty(t.heap, n)
	push := func(v int) {
		heap = append(heap, v)
		for i := len(heap) - 1; i > 0; {
			p := (i - 1) / 2
			if heap[p] <= heap[i] {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() int {
		v := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			s := i
			if l < last && heap[l] < heap[s] {
				s = l
			}
			if r < last && heap[r] < heap[s] {
				s = r
			}
			if s == i {
				break
			}
			heap[i], heap[s] = heap[s], heap[i]
			i = s
		}
		return v
	}
	for id, d := range indeg {
		if d == 0 {
			push(id)
		}
	}
	order := reuse.Empty(t.order, n)
	for len(heap) > 0 {
		v := pop()
		order = append(order, v)
		for _, s := range g.Nodes[v].Succs {
			indeg[s]--
			if indeg[s] == 0 {
				push(s)
			}
		}
	}
	t.heap, t.order = heap, order
	if len(order) != n {
		return nil, ErrCycle
	}
	return order, nil
}

// Bytes is the heap t keeps for reuse.
func (t *TopoScratch) Bytes() int { return 8 * (cap(t.indeg) + cap(t.heap) + cap(t.order)) }

// ZeroIndegree computes the zero-indegree set z of the paper: the nodes not
// in scheduled whose predecessors are all in scheduled. scheduled must be a
// downward-closed set for the result to be meaningful.
func (g *Graph) ZeroIndegree(scheduled *Bitset) *Bitset {
	z := NewBitset(len(g.Nodes))
	for _, n := range g.Nodes {
		if scheduled.Has(n.ID) {
			continue
		}
		ready := true
		for _, p := range n.Preds {
			if !scheduled.Has(p) {
				ready = false
				break
			}
		}
		if ready {
			z.Set(n.ID)
		}
	}
	return z
}

// Validate checks structural invariants: edge symmetry, acyclicity,
// in-range alias targets with no alias cycles, Buffer aliasing rules, and
// positive shapes. It returns the first violation found.
//
// Acyclicity is proved in the edge pass when it can be: if every pred is
// lower than its node, every edge runs forward in ID order and TopoOrder
// would take the nodes in that order. A pred that repeats is left to
// TopoOrder, because a hand-built graph may list such an edge fewer times
// among the succs, which TopoOrder reports as a cycle. Decoded, Slab-built
// and AddNode-built graphs list preds in order, so only a graph given a back
// edge by AddEdge, or an operand used twice, pays for TopoOrder.
func (g *Graph) Validate() error {
	forward := true
	for id, n := range g.Nodes {
		if n.ID != id {
			return fmt.Errorf("graph %q: node at index %d has ID %d", g.Name, id, n.ID)
		}
		for _, d := range n.Shape {
			if d <= 0 {
				return fmt.Errorf("graph %q: node %d (%s) has non-positive shape %v", g.Name, id, n.Name, n.Shape)
			}
		}
		for i, p := range n.Preds {
			if p < 0 || p >= len(g.Nodes) {
				return fmt.Errorf("graph %q: node %d has out-of-range pred %d", g.Name, id, p)
			}
			if !contains(g.Nodes[p].Succs, id) {
				return fmt.Errorf("graph %q: edge %d->%d missing reverse link", g.Name, p, id)
			}
			forward = forward && p < id && !contains(n.Preds[:i], p)
		}
		for _, s := range n.Succs {
			if s < 0 || s >= len(g.Nodes) {
				return fmt.Errorf("graph %q: node %d has out-of-range succ %d", g.Name, id, s)
			}
			if !contains(g.Nodes[s].Preds, id) {
				return fmt.Errorf("graph %q: edge %d->%d missing forward link", g.Name, id, s)
			}
		}
		if a := n.Attr.AliasOf; a >= 0 {
			if a >= len(g.Nodes) {
				return fmt.Errorf("graph %q: node %d aliases out-of-range node %d", g.Name, id, a)
			}
			if !contains(n.Preds, a) && !aliasReachesViaPreds(g, n, a) {
				return fmt.Errorf("graph %q: node %d aliases %d but does not depend on it", g.Name, id, a)
			}
		}
	}
	// Alias cycle check: following AliasOf must terminate.
	for id := range g.Nodes {
		steps := 0
		cur := id
		for g.Nodes[cur].Attr.AliasOf >= 0 {
			cur = g.Nodes[cur].Attr.AliasOf
			steps++
			if steps > len(g.Nodes) {
				return fmt.Errorf("graph %q: alias cycle involving node %d", g.Name, id)
			}
		}
	}
	if !forward {
		if _, err := g.TopoOrder(); err != nil {
			return err
		}
	}
	return nil
}

// aliasReachesViaPreds reports whether target is reachable from n by
// following predecessor edges through alias nodes only. A rewrite join node
// aliases the Buffer through its partial writers, which themselves alias it.
func aliasReachesViaPreds(g *Graph, n *Node, target int) bool {
	seen := map[int]bool{}
	var walk func(id int) bool
	walk = func(id int) bool {
		if id == target {
			return true
		}
		if seen[id] {
			return false
		}
		seen[id] = true
		for _, p := range g.Nodes[id].Preds {
			pn := g.Nodes[p]
			if p == target {
				return true
			}
			if pn.Attr.AliasOf >= 0 && walk(p) {
				return true
			}
		}
		return false
	}
	return walk(n.ID)
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
