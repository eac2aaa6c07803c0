package sched

import (
	"github.com/serenity-ml/serenity/internal/graph"
	"github.com/serenity-ml/serenity/internal/reuse"
)

// KahnFIFO returns the schedule produced by Kahn's algorithm with a FIFO
// ready queue — the O(|V|+|E|) memory-oblivious baseline the paper uses to
// obtain the hard budget τmax (Algorithm 2, line 3).
func KahnFIFO(g *graph.Graph) (Schedule, error) {
	var sc Scratch
	return sc.KahnFIFO(g)
}

// KahnFIFO is the package's KahnFIFO in sc's memory.
func (sc *Scratch) KahnFIFO(g *graph.Graph) (Schedule, error) {
	n := g.NumNodes()
	sc.live = g.IndegreesInto(sc.live)
	indeg := sc.live
	queue := reuse.Empty(sc.queue, n)
	for id := 0; id < n; id++ {
		if indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	order := reuse.Empty(sc.order, n)
	// The queue only ever holds nodes not yet in order, so one array of n
	// entries serves it without the front ever being reclaimed.
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		order = append(order, v)
		for _, s := range g.Nodes[v].Succs {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	sc.queue, sc.order = queue, order
	if len(order) != n {
		return nil, graph.ErrCycle
	}
	return order, nil
}

// DFSEmission returns the depth-first converter emission order: the order in
// which a recursive code generator would emit nodes (emit all of a node's
// operands, depth first and in operand order, then the node), walking graph
// outputs in ID order.
//
// TensorFlow Lite executes ops in the flatbuffer's serialized order, which
// the converter produces by this kind of memory-oblivious recursive
// traversal. The baseline the pipeline reports is Kahn's order; DFSEmission
// is kept as a test reference (README, "Deviations from the paper").
func DFSEmission(g *graph.Graph) (Schedule, error) {
	if _, err := g.TopoOrder(); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	visited := make([]bool, n)
	order := make(Schedule, 0, n)
	var visit func(id int)
	visit = func(id int) {
		if visited[id] {
			return
		}
		visited[id] = true
		for _, p := range g.Nodes[id].Preds {
			visit(p)
		}
		order = append(order, id)
	}
	for _, out := range g.Outputs() {
		visit(out)
	}
	// Nodes unreachable from any output (shouldn't happen in practice).
	for id := 0; id < n; id++ {
		visit(id)
	}
	return order, nil
}

// MinIDOrder returns the deterministic min-ID topological order (the
// builder's construction order for generated graphs).
func MinIDOrder(g *graph.Graph) (Schedule, error) {
	o, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	return Schedule(o), nil
}

// BaselinePeak returns Kahn's memory-oblivious order and its peak: the
// baseline the paper normalizes against, the hard budget τmax of Algorithm 2,
// and the figure every Result reports as BaselinePeak.
func BaselinePeak(m *MemModel) (Schedule, int64, error) {
	var sc Scratch
	return sc.BaselinePeak(m)
}

// BaselinePeak is the package's BaselinePeak in sc's memory.
func (sc *Scratch) BaselinePeak(m *MemModel) (Schedule, int64, error) {
	order, err := sc.KahnFIFO(m.G)
	if err != nil {
		return nil, 0, err
	}
	peak, err := sc.Peak(m, order)
	if err != nil {
		return nil, 0, err
	}
	return order, peak, nil
}
