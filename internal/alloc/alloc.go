// Package alloc implements the linear memory allocator the paper pairs with
// its scheduler: TensorFlow Lite's "simple memory arena" planning scheme
// (greedy best-fit offset assignment over tensor lifetimes). Given a graph
// and a schedule it assigns every physical tensor a byte offset in one flat
// arena such that tensors with overlapping lifetimes never overlap in space.
//
// The arena size is the concrete peak footprint a runtime would observe —
// the "+Memory Allocator" curves of Figure 12(a) — and can exceed the ideal
// sum-of-live-bytes footprint because of fragmentation.
package alloc

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/serenity-ml/serenity/internal/reuse"
	"github.com/serenity-ml/serenity/internal/sched"
)

// Lifetime is the closed step interval during which a physical tensor is
// resident under a given schedule.
type Lifetime struct {
	Root  int   // physical root node ID
	Size  int64 // bytes
	Start int   // schedule position of allocation
	End   int   // schedule position of the last consumer (len(order)-1 for outputs)
}

// Assignment maps physical tensors to arena offsets.
type Assignment struct {
	// Offsets[root] is the byte offset of the tensor rooted at root, or -1
	// for nodes that are not physical roots (aliases) or zero-sized.
	Offsets []int64
	// ArenaSize is the total bytes of the arena: max(offset+size).
	ArenaSize int64
	// Lifetimes lists the placed tensors, largest first (placement order).
	Lifetimes []Lifetime
}

// Lifetimes computes the per-tensor residency intervals of order under the
// model's liveness rules.
func Lifetimes(m *sched.MemModel, order sched.Schedule) ([]Lifetime, error) {
	var p Planner
	return p.lifetimes(m, order)
}

// lifetimes is Lifetimes in p's memory.
func (p *Planner) lifetimes(m *sched.MemModel, order sched.Schedule) ([]Lifetime, error) {
	pos, err := p.sc.Positions(m, order)
	if err != nil {
		return nil, err
	}
	n := m.G.NumNodes()
	out := reuse.Empty(p.lts, n)
	for root := 0; root < n; root++ {
		if m.Root[root] != root || m.RootSize[root] == 0 {
			continue
		}
		lt := Lifetime{Root: root, Size: m.RootSize[root], Start: pos[root], End: len(order) - 1}
		if cs := m.Consumers[root]; len(cs) > 0 {
			end := pos[root]
			for _, c := range cs {
				if pos[c] > end {
					end = pos[c]
				}
			}
			lt.End = end
		}
		out = append(out, lt)
	}
	p.lts = out
	return out, nil
}

// Planner is Plan with memory it keeps from one plan to the next, for a caller
// that plans arena after arena. The zero value is ready to use; a Planner is
// not safe for concurrent use, and the Assignment its Plan returns — Offsets
// and Lifetimes included — is valid until its next Plan.
type Planner struct {
	sc    sched.Scratch
	lts   []Lifetime
	fixed []placed
	a     Assignment
}

// placed is one tensor Plan has given an offset.
type placed struct {
	start, end  int   // lifetime
	offset, top int64 // occupied bytes [offset, top)
}

// Bytes is the heap p keeps for reuse.
func (p *Planner) Bytes() int {
	return p.sc.Bytes() + 32*cap(p.lts) + 32*cap(p.fixed) + 8*cap(p.a.Offsets)
}

// Plan assigns offsets with the greedy-by-size best-fit strategy of
// TensorFlow Lite's arena planner: tensors are placed in decreasing size
// order, each at the lowest offset where it fits without overlapping (in
// space) any already-placed tensor whose lifetime overlaps (in time).
//
// The placed tensors are kept in one slice sorted by offset. A new tensor
// scans it from the bottom, skipping neighbours it does not meet in time and
// moving past those it does, until a gap of its size opens before the next
// placed offset; the scan stops there even at a tensor it would not meet,
// since every later one starts higher still. Placed tensors with equal
// offsets may sit in either order: a gap that opens before one opens before
// the other, and moving past both lands at the larger end either way.
func Plan(m *sched.MemModel, order sched.Schedule) (*Assignment, error) {
	return new(Planner).Plan(m, order)
}

// Plan is the package's Plan in p's memory.
func (p *Planner) Plan(m *sched.MemModel, order sched.Schedule) (*Assignment, error) {
	lts, err := p.lifetimes(m, order)
	if err != nil {
		return nil, err
	}
	slices.SortStableFunc(lts, func(x, y Lifetime) int {
		if x.Size != y.Size {
			return cmp.Compare(y.Size, x.Size)
		}
		return cmp.Compare(x.Start, y.Start)
	})

	n := m.G.NumNodes()
	a := &p.a
	*a = Assignment{Offsets: reuse.Len(a.Offsets, n), Lifetimes: lts}
	for i := range a.Offsets {
		a.Offsets[i] = -1
	}

	fixed := reuse.Empty(p.fixed, len(lts)) // sorted by offset
	for _, lt := range lts {
		var offset int64
		for _, c := range fixed {
			if offset+lt.Size <= c.offset {
				break // fits in the gap before c
			}
			if c.start <= lt.End && lt.Start <= c.end && c.top > offset {
				offset = c.top
			}
		}
		a.Offsets[lt.Root] = offset
		if end := offset + lt.Size; end > a.ArenaSize {
			a.ArenaSize = end
		}
		at, _ := slices.BinarySearchFunc(fixed, offset, func(c placed, off int64) int { return cmp.Compare(c.offset, off) })
		fixed = slices.Insert(fixed, at, placed{start: lt.Start, end: lt.End, offset: offset, top: offset + lt.Size})
	}
	p.fixed = fixed
	return a, nil
}

// Verify checks the non-overlap invariant: any two tensors overlapping in
// both time and space constitute a planning bug.
func (a *Assignment) Verify() error {
	for i := 0; i < len(a.Lifetimes); i++ {
		li := a.Lifetimes[i]
		oi := a.Offsets[li.Root]
		for j := i + 1; j < len(a.Lifetimes); j++ {
			lj := a.Lifetimes[j]
			oj := a.Offsets[lj.Root]
			timeOverlap := li.Start <= lj.End && lj.Start <= li.End
			spaceOverlap := oi < oj+lj.Size && oj < oi+li.Size
			if timeOverlap && spaceOverlap {
				return fmt.Errorf("alloc: tensors %d@[%d,%d) and %d@[%d,%d) overlap in time and space",
					li.Root, oi, oi+li.Size, lj.Root, oj, oj+lj.Size)
			}
		}
	}
	return nil
}
