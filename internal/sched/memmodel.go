// Package sched defines execution schedules over the graph IR and the
// activation-memory model of the paper (Section 3.1, Figure 6): scheduling a
// node allocates its output tensor; a tensor is deallocated as soon as its
// last consumer has been scheduled; graph outputs stay resident. The package
// also provides the memory-oblivious baseline orderings the paper compares
// against (Kahn's algorithm, converter-style DFS emission), a random
// topological-order sampler for the schedule-CDF experiment (Figure 3b), and
// a brute-force optimal scheduler used as a test oracle.
package sched

import (
	"fmt"
	"slices"

	"github.com/serenity-ml/serenity/internal/graph"
)

// Schedule is an execution order: a permutation of the graph's node IDs.
type Schedule []int

// MemModel precomputes everything needed to evaluate the activation
// footprint of (partial) schedules in O(1)-ish per step. It accounts for
// shared-buffer aliasing introduced by graph rewriting: alias nodes allocate
// nothing, and a physical tensor is freed when all consumers of all of its
// views have executed.
type MemModel struct {
	G *graph.Graph

	Alloc     []int64 // bytes allocated when node i is scheduled (0 for aliases)
	Root      []int   // physical storage root of node i's output
	RootSize  []int64 // bytes of the physical tensor rooted at i (0 if i is not a root)
	Consumers [][]int // consumers[r]: node IDs consuming physical tensor r (r = root only)
	PredRoots [][]int // predRoots[i]: distinct physical roots among node i's preds

	// Zobrist assigns node i a fixed pseudo-random word so the DP scheduler
	// can hash scheduled-set signatures incrementally: hash(S ∪ {u}) =
	// hash(S) ^ Zobrist[u], computable before the child set is materialized.
	// Drawn from a fixed seed (see graph.ZobristTable), so hashes — and with
	// them the scheduler's behavior — are deterministic across processes.
	Zobrist []uint64
}

// NewMemModel builds the memory model for g. g must be a valid DAG.
func NewMemModel(g *graph.Graph) *MemModel {
	n := g.NumNodes()
	m := &MemModel{
		G:         g,
		Alloc:     make([]int64, n),
		Root:      make([]int, n),
		RootSize:  make([]int64, n),
		Consumers: make([][]int, n),
		PredRoots: make([][]int, n),
		Zobrist:   graph.ZobristTable(n),
	}
	for _, node := range g.Nodes {
		m.Alloc[node.ID] = node.OutBytes()
		m.Root[node.ID] = g.PhysRoot(node.ID)
	}
	for _, node := range g.Nodes {
		if m.Root[node.ID] == node.ID {
			m.RootSize[node.ID] = node.StorageBytes()
		}
	}
	// Every PredRoots list shares one backing array, and every Consumers
	// list another: a model costs a handful of allocations, not two per node.
	roots := make([]int, 0, g.NumEdges())
	uses := make([]int, n+1) // uses[r+1]: consumers of root r
	for _, node := range g.Nodes {
		// A node has a handful of operands: scanning the roots found so far
		// de-duplicates them without a set per node.
		start := len(roots)
		for _, p := range node.Preds {
			if r := m.Root[p]; !slices.Contains(roots[start:], r) {
				roots = append(roots, r)
				uses[r+1]++
			}
		}
		if len(roots) > start {
			m.PredRoots[node.ID] = roots[start:len(roots):len(roots)]
		}
	}
	// Prefix sums turn the counts into each root's first slot; filling in
	// node-ID order leaves every consumer list sorted.
	for r := 0; r < n; r++ {
		uses[r+1] += uses[r]
	}
	consumers := make([]int, len(roots))
	fill := uses[:n]
	for _, node := range g.Nodes {
		for _, r := range m.PredRoots[node.ID] {
			consumers[fill[r]] = node.ID
			fill[r]++
		}
	}
	lo := 0 // root r's consumers now sit in consumers[lo:fill[r]]
	for r, hi := range fill {
		if lo < hi {
			m.Consumers[r] = consumers[lo:hi:hi]
		}
		lo = hi
	}
	return m
}

// SimResult captures the outcome of simulating a complete schedule.
type SimResult struct {
	Peak     int64   // peak footprint (max over time of live bytes)
	Final    int64   // bytes live after the last step (graph outputs)
	Profile  []int64 // live bytes after each step's deallocations
	HighMark []int64 // live bytes at each step's allocation point (pre-dealloc)
}

// Simulate runs the full liveness simulation of order and returns the peak
// footprint and the per-step profile. It returns an error if order is not a
// valid topological permutation of the graph.
func (m *MemModel) Simulate(order Schedule) (*SimResult, error) {
	if err := m.CheckValid(order); err != nil {
		return nil, err
	}
	n := m.G.NumNodes()
	remaining := make([]int, n)
	for r, cs := range m.Consumers {
		remaining[r] = len(cs)
	}
	res := &SimResult{
		Profile:  make([]int64, len(order)),
		HighMark: make([]int64, len(order)),
	}
	var mu int64
	for i, u := range order {
		mu += m.Alloc[u]
		res.HighMark[i] = mu
		if mu > res.Peak {
			res.Peak = mu
		}
		for _, r := range m.PredRoots[u] {
			remaining[r]--
			if remaining[r] == 0 {
				mu -= m.RootSize[r]
			}
		}
		res.Profile[i] = mu
	}
	res.Final = mu
	return res, nil
}

// Peak returns just the peak footprint of order.
func (m *MemModel) Peak(order Schedule) (int64, error) {
	res, err := m.Simulate(order)
	if err != nil {
		return 0, err
	}
	return res.Peak, nil
}

// MustPeak is Peak but panics on invalid schedules; for tests and benches.
func (m *MemModel) MustPeak(order Schedule) int64 {
	p, err := m.Peak(order)
	if err != nil {
		panic(err)
	}
	return p
}

// CheckValid verifies that order is a permutation of all node IDs obeying
// every precedence edge.
func (m *MemModel) CheckValid(order Schedule) error {
	n := m.G.NumNodes()
	if len(order) != n {
		return fmt.Errorf("sched: order has %d entries, graph has %d nodes", len(order), n)
	}
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	for i, u := range order {
		if u < 0 || u >= n {
			return fmt.Errorf("sched: node %d out of range at position %d", u, i)
		}
		if pos[u] != -1 {
			return fmt.Errorf("sched: node %d scheduled twice (positions %d and %d)", u, pos[u], i)
		}
		pos[u] = i
	}
	for _, node := range m.G.Nodes {
		for _, p := range node.Preds {
			if pos[p] > pos[node.ID] {
				return fmt.Errorf("sched: node %d scheduled before its predecessor %d", node.ID, p)
			}
		}
	}
	return nil
}

// StepDealloc computes the deallocation when node u executes: every
// predecessor root whose consumers other than u are all in scheduled is
// freed. u itself is not consulted, so the answer is the same whether or not
// scheduled already holds it — the DP scheduler's transition function asks
// with u in the set, its safe-move rule asks before u is.
func (m *MemModel) StepDealloc(scheduled *graph.Bitset, u int) int64 {
	var freed int64
roots:
	for _, r := range m.PredRoots[u] {
		for _, c := range m.Consumers[r] {
			if c != u && !scheduled.Has(c) {
				continue roots
			}
		}
		freed += m.RootSize[r]
	}
	return freed
}
