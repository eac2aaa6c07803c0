// Package rewrite implements SERENITY's identity graph rewriting
// (Section 3.3): semantics-preserving pattern substitutions that lower the
// peak activation footprint achievable by any schedule.
//
// Two patterns from the paper (Figure 9) are implemented:
//
//   - Channel-wise partitioning: concat(x1..xn) → conv(W) becomes n partial
//     convolutions w⋆i ∗ xi accumulating into one shared output buffer
//     (Equations 3–6: the distributivity of Σ over ∗). Footprint drops from
//     Σ size(xi) + size(y) to max_i(size(xi)) + size(y).
//
//   - Kernel-wise partitioning: concat(x1..xn) → depthwiseConv(W) becomes n
//     partial depthwise convolutions wi ∗ xi, each writing its channel slice
//     of the shared output buffer (Equations 7–8: depthconv and concat
//     commute). Footprint drops identically.
//
// The shared buffer is expressed with an OpBuffer node plus alias metadata
// (Attr.AliasOf): partial ops and the final join contribute zero bytes; the
// buffer is freed when the last reader of any view finishes. The reference
// executor (internal/exec) verifies numerically that rewritten graphs
// produce identical outputs.
package rewrite

import (
	"fmt"
	"hash/fnv"
	"strconv"

	"github.com/serenity-ml/serenity/internal/graph"
	"github.com/serenity-ml/serenity/internal/reuse"
)

// Kind discriminates the two rewrite patterns.
type Kind int

// Rewrite pattern kinds.
const (
	ChannelWise Kind = iota // concat + conv      -> partial conv + add
	KernelWise              // concat + depthconv -> partial depthconv + concat
)

// String names the pattern as in the paper.
func (k Kind) String() string {
	if k == KernelWise {
		return "kernel-wise partitioning"
	}
	return "channel-wise partitioning"
}

// Match is one rewritable occurrence: a Concat feeding a (depthwise)
// convolution, where the concat's output has no other consumer.
type Match struct {
	Kind   Kind
	Concat int // concat node ID in the original graph
	Op     int // conv/depthwise node ID in the original graph
}

// FindMatches scans g for rewritable patterns. A pattern qualifies when the
// convolution's data operand is a Concat consumed only by that convolution
// (otherwise the concatenated tensor must materialize anyway and the rewrite
// could not reduce memory).
func FindMatches(g *graph.Graph) []Match {
	var out []Match
	for _, n := range g.Nodes {
		var kind Kind
		switch n.Op {
		case graph.OpConv, graph.OpPointwiseConv:
			kind = ChannelWise
		case graph.OpDepthwiseConv:
			kind = KernelWise
		default:
			continue
		}
		if len(n.Preds) != 1 {
			continue
		}
		c := g.Nodes[n.Preds[0]]
		if c.Op != graph.OpConcat || len(c.Preds) < 2 {
			continue
		}
		if len(c.Succs) != 1 {
			continue
		}
		// Dilated partial convolution is legal too, but keep parity with the
		// paper's two patterns: stride/dilation carry over unchanged.
		out = append(out, Match{Kind: kind, Concat: c.ID, Op: n.ID})
	}
	return out
}

// Scratch is Apply's working memory, kept by a caller that rewrites graph
// after graph: the slab the rewritten graph is built in and the per-node
// tables of the substitution. The zero value is ready to use; a Scratch is not
// safe for concurrent use.
type Scratch struct {
	slab                   graph.Slab
	topo                   graph.TopoScratch
	walk                   anchorWalk
	role, remap            []int
	preds, partials, shape []int
}

// Bytes is the heap sc keeps for reuse.
func (sc *Scratch) Bytes() int {
	w := &sc.walk
	return sc.slab.Bytes() + sc.topo.Bytes() + 8*(cap(sc.role)+cap(sc.remap)+cap(sc.preds)+cap(sc.partials)+cap(sc.shape)+
		cap(w.topoPos)+cap(w.reach)+cap(w.mark)+cap(w.stack)+cap(w.touched))
}

// Apply returns a new graph with every match substituted. The original graph
// is not modified. Node names are preserved where nodes survive; new nodes
// get names derived from the rewritten convolution. With a nil sc the graph
// is built on fresh memory; otherwise it is built in sc, and is valid until
// sc's next Apply.
func Apply(g *graph.Graph, matches []Match, sc *Scratch) (*graph.Graph, error) {
	if len(matches) == 0 {
		return g.Clone(), nil
	}
	if sc == nil {
		sc = new(Scratch)
	}
	// role[v] is m+1 when v is the convolution of matches[m], -1 when it is
	// an elided concat, and 0 when it is copied as is. The slab is sized for
	// the result: a match's buffer, k partials and join (k+2 shapes of the
	// conv's rank, at most 6k+2 operand and successor entries) stand in for
	// its concat and conv (their two shapes and 2k+2 entries).
	sc.role = reuse.Len(sc.role, g.NumNodes())
	role := sc.role
	clear(role)
	nodes, ints := g.NumNodes(), arenaInts(g)
	for i, m := range matches {
		c := g.Nodes[m.Concat]
		if c.Op != graph.OpConcat || len(c.Succs) != 1 || c.Succs[0] != m.Op {
			return nil, fmt.Errorf("rewrite: stale match %+v", m)
		}
		role[m.Op] = i + 1
		k, rank := len(c.Preds), len(g.Nodes[m.Op].Shape)
		nodes += k
		ints += (k+1)*rank - len(c.Shape) + 4*k
	}
	for _, m := range matches {
		role[m.Concat] = -1
	}

	order, err := sc.topo.Order(g)
	if err != nil {
		return nil, err
	}
	w := &sc.walk
	w.reset(g, order)
	sc.remap = reuse.Len(sc.remap, g.NumNodes())
	remap := sc.remap
	for i := range remap {
		remap[i] = -1
	}
	out := &sc.slab
	out.Reset(nodes, ints)
	preds, partials, shape := sc.preds, sc.partials, sc.shape
	for _, v := range order {
		n := g.Nodes[v]
		r := role[v]
		if r < 0 {
			continue // elided; the partials consume the branches directly
		}
		if r == 0 {
			preds = preds[:0]
			for _, p := range n.Preds {
				if remap[p] < 0 {
					return nil, fmt.Errorf("rewrite: node %d consumed elided node %d", v, p)
				}
				preds = append(preds, remap[p])
			}
			c := *n
			c.Preds = preds
			if n.Attr.AliasOf >= 0 {
				c.Attr.AliasOf = remap[n.Attr.AliasOf]
			}
			remap[v] = out.Add(c)
			continue
		}

		// Substitute the (concat -> conv) pair. The buffer is anchored on the
		// deepest common ancestor of all branches: every partial already
		// transitively requires that node (so the edge excludes no schedule
		// that could beat the optimum — a buffer allocated any earlier only
		// holds memory longer), and the anchor keeps the buffer inside its
		// cell so divide-and-conquer cut points survive rewriting.
		m := matches[r-1]
		conv, concat := n, g.Nodes[m.Concat]
		preds = preds[:0]
		if a := w.commonAncestor(concat.Preds, remap); a >= 0 {
			preds = append(preds, a)
		}
		buf := out.Add(graph.Node{Op: graph.OpBuffer, Name: conv.Name + "#buf", Shape: conv.Shape,
			DType: conv.DType, Preds: preds, Attr: graph.Attr{AliasOf: -1}})

		seed := WeightSeed(conv)
		partials = partials[:0]
		inOffset := 0
		for bi, branch := range concat.Preds {
			if remap[branch] < 0 {
				return nil, fmt.Errorf("rewrite: branch %d of concat %d not materialized", branch, m.Concat)
			}
			ch := g.Nodes[branch].Shape.Channels()
			preds = append(preds[:0], remap[branch], buf)
			part := graph.Node{Name: conv.Name + "#part" + strconv.Itoa(bi), Shape: conv.Shape,
				DType: conv.DType, Preds: preds, Attr: conv.Attr}
			switch m.Kind {
			case ChannelWise:
				// Partial conv over branch channels, accumulating into buf.
				part.Op = graph.OpPartialConv
			case KernelWise:
				// Partial depthwise conv producing the branch's output slice.
				part.Op = graph.OpPartialDWConv
				shape = append(shape[:0], conv.Shape...)
				shape[len(shape)-1] = ch
				part.Shape = shape
			}
			part.Attr.AliasOf = buf
			part.Attr.ChanOffset = inOffset
			part.Attr.InChannels = ch
			part.Attr.Seed = seed
			inOffset += ch
			partials = append(partials, out.Add(part))
		}

		remap[v] = out.Add(graph.Node{Op: graph.OpIdentity, Name: conv.Name + "#join", Shape: conv.Shape,
			DType: conv.DType, Preds: partials, Attr: graph.Attr{AliasOf: buf}})
	}

	sc.preds, sc.partials, sc.shape = preds, partials, shape
	rw := out.Build(g.Name + "+rewrite")
	if err := rw.Validate(); err != nil {
		return nil, fmt.Errorf("rewrite: produced invalid graph: %w", err)
	}
	return rw, nil
}

// Rewrite finds and applies all matches, returning the rewritten graph and
// the matches performed. With no matches it returns a clone of g. It is
// FindMatches plus Apply on fresh memory, kept for testdata/golden/gen.go,
// which records the matches.
func Rewrite(g *graph.Graph) (*graph.Graph, []Match, error) {
	matches := FindMatches(g)
	out, err := Apply(g, matches, nil)
	if err != nil {
		return nil, nil, err
	}
	return out, matches, nil
}

// arenaInts is the arena a Slab needs to copy g.
func arenaInts(g *graph.Graph) int {
	ints := 0
	for _, n := range g.Nodes {
		ints += n.ArenaInts()
	}
	return ints
}

// anchorWalk finds buffer anchors without all-pairs ancestor sets.
type anchorWalk struct {
	g       *graph.Graph
	topoPos []int // position of each node in the topological order
	reach   []int // how many walks reached each node
	mark    []int // the last walk that reached each node
	walk    int
	stack   []int
	touched []int // the nodes with reach > 0
}

// reset points w at g, whose topological order is order, in the arrays w
// already has.
func (w *anchorWalk) reset(g *graph.Graph, order []int) {
	n := g.NumNodes()
	w.g, w.walk = g, 0
	w.topoPos = reuse.Len(w.topoPos, n)
	w.reach = reuse.Len(w.reach, n)
	w.mark = reuse.Len(w.mark, n)
	clear(w.reach)
	clear(w.mark)
	w.stack = reuse.Empty(w.stack, n)
	w.touched = reuse.Empty(w.touched, n)
	for i, v := range order {
		w.topoPos[v] = i
	}
}

// commonAncestor returns the new-graph ID of the deepest node that is an
// ancestor of every branch and survives rewriting (remap[v] >= 0), or -1 if
// none exists. It walks back from each branch, counting how many walks reach
// each node: the nodes all of them reach are the intersection of the
// branches' ancestor sets, and of those the surviving one latest in the
// topological order is the anchor.
func (w *anchorWalk) commonAncestor(branches, remap []int) int {
	for _, b := range branches {
		w.walk++
		w.stack = append(w.stack[:0], b)
		for len(w.stack) > 0 {
			u := w.stack[len(w.stack)-1]
			w.stack = w.stack[:len(w.stack)-1]
			for _, p := range w.g.Nodes[u].Preds {
				if w.mark[p] == w.walk {
					continue
				}
				w.mark[p] = w.walk
				if w.reach[p]++; w.reach[p] == 1 {
					w.touched = append(w.touched, p)
				}
				w.stack = append(w.stack, p)
			}
		}
	}
	best, bestPos := -1, -1
	for _, u := range w.touched {
		if w.reach[u] == len(branches) && remap[u] >= 0 && w.topoPos[u] > bestPos {
			best, bestPos = remap[u], w.topoPos[u]
		}
		w.reach[u] = 0
	}
	w.touched = w.touched[:0]
	return best
}

// WeightSeed returns the deterministic weight seed of a convolution node,
// preserved across rewriting so partial convolutions slice the *same*
// weights the original convolution would have used (the executor relies on
// this to verify arithmetic identity).
func WeightSeed(n *graph.Node) int64 {
	if n.Attr.Seed != 0 {
		return n.Attr.Seed
	}
	return NameSeed(n.Name)
}

// NameSeed derives a stable seed from a node name. Graph names are
// deliberately excluded so seeds survive rewriting (the rewritten graph is
// renamed but surviving nodes keep their weights).
func NameSeed(nodeName string) int64 {
	h := fnv.New64a()
	h.Write([]byte(nodeName))
	v := int64(h.Sum64())
	if v == 0 {
		v = 1
	}
	return v
}
