package rewrite

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/serenity-ml/serenity/internal/dp"
	"github.com/serenity-ml/serenity/internal/graph"
	"github.com/serenity-ml/serenity/internal/models"
	"github.com/serenity-ml/serenity/internal/sched"
)

// concatConvGraph: three branches -> concat -> conv -> relu (channel-wise
// pattern, Figure 9 top).
func concatConvGraph() *graph.Graph {
	b := graph.NewBuilder("ccg")
	in := b.Input(graph.Shape{1, 8, 8, 4})
	x1 := b.Conv(in, 6, 3, 1, graph.PadSame)
	x2 := b.Conv(in, 8, 3, 1, graph.PadSame)
	x3 := b.Conv(in, 10, 3, 1, graph.PadSame)
	cc := b.Concat(x1, x2, x3)
	y := b.Conv(cc, 16, 3, 1, graph.PadSame)
	b.ReLU(y)
	return b.Graph()
}

// concatDWGraph: two branches -> concat -> depthwise -> relu (kernel-wise
// pattern, Figure 9 bottom).
func concatDWGraph() *graph.Graph {
	b := graph.NewBuilder("cdw")
	in := b.Input(graph.Shape{1, 8, 8, 4})
	x1 := b.Conv(in, 6, 3, 1, graph.PadSame)
	x2 := b.Conv(in, 10, 3, 1, graph.PadSame)
	cc := b.Concat(x1, x2)
	y := b.DepthwiseConv(cc, 3, 1, graph.PadSame)
	b.ReLU(y)
	return b.Graph()
}

func TestFindMatches(t *testing.T) {
	g := concatConvGraph()
	ms := FindMatches(g)
	if len(ms) != 1 {
		t.Fatalf("matches = %d, want 1", len(ms))
	}
	if ms[0].Kind != ChannelWise {
		t.Errorf("kind = %v, want channel-wise", ms[0].Kind)
	}
	g2 := concatDWGraph()
	ms2 := FindMatches(g2)
	if len(ms2) != 1 || ms2[0].Kind != KernelWise {
		t.Fatalf("dw matches = %+v", ms2)
	}
}

func TestFindMatchesSkipsSharedConcat(t *testing.T) {
	// Concat consumed by two ops must not match.
	b := graph.NewBuilder("shared")
	in := b.Input(graph.Shape{1, 8, 8, 4})
	x1 := b.Conv(in, 4, 3, 1, graph.PadSame)
	x2 := b.Conv(in, 4, 3, 1, graph.PadSame)
	cc := b.Concat(x1, x2)
	b.Conv(cc, 8, 3, 1, graph.PadSame)
	b.ReLU(cc)
	if ms := FindMatches(b.Graph()); len(ms) != 0 {
		t.Fatalf("matched a shared concat: %+v", ms)
	}
}

func TestFindMatchesSkipsNonConcatInput(t *testing.T) {
	b := graph.NewBuilder("plain")
	in := b.Input(graph.Shape{1, 8, 8, 4})
	c := b.Conv(in, 8, 3, 1, graph.PadSame)
	b.Conv(c, 8, 3, 1, graph.PadSame)
	if ms := FindMatches(b.Graph()); len(ms) != 0 {
		t.Fatalf("matched without concat: %+v", ms)
	}
}

func TestApplyChannelWiseStructure(t *testing.T) {
	g := concatConvGraph()
	out, ms, err := Rewrite(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("want 1 match, got %d", len(ms))
	}
	if err := out.Validate(); err != nil {
		t.Fatal(err)
	}
	var buffers, partials, joins int
	for _, n := range out.Nodes {
		switch n.Op {
		case graph.OpBuffer:
			buffers++
		case graph.OpPartialConv:
			partials++
			if n.Attr.AliasOf < 0 || out.Nodes[n.Attr.AliasOf].Op != graph.OpBuffer {
				t.Error("partial must alias the buffer")
			}
		case graph.OpConcat:
			t.Error("concat should be elided")
		case graph.OpIdentity:
			joins++
		}
	}
	if buffers != 1 || partials != 3 || joins != 1 {
		t.Errorf("structure: buffers=%d partials=%d joins=%d", buffers, partials, joins)
	}
	// Channel offsets must tile the concatenated input (6, 8, 10).
	offsets := map[int]int{}
	for _, n := range out.Nodes {
		if n.Op == graph.OpPartialConv {
			offsets[n.Attr.ChanOffset] = n.Attr.InChannels
		}
	}
	if offsets[0] != 6 || offsets[6] != 8 || offsets[14] != 10 {
		t.Errorf("offsets = %v", offsets)
	}
	// Node count per Table 2's direction: rewriting increases nodes.
	if out.NumNodes() <= g.NumNodes() {
		t.Errorf("rewrite should add nodes: %d -> %d", g.NumNodes(), out.NumNodes())
	}
}

func TestApplyKernelWiseStructure(t *testing.T) {
	g := concatDWGraph()
	out, _, err := Rewrite(g)
	if err != nil {
		t.Fatal(err)
	}
	var partials int
	for _, n := range out.Nodes {
		if n.Op == graph.OpPartialDWConv {
			partials++
			// Partial slice shapes match branch channel counts.
			if c := n.Shape.Channels(); c != n.Attr.InChannels {
				t.Errorf("partial dw shape channels %d != in channels %d", c, n.Attr.InChannels)
			}
		}
	}
	if partials != 2 {
		t.Errorf("partials = %d, want 2", partials)
	}
}

// TestRewriteLowersOptimalPeak: the rewritten search space admits a schedule
// at least as good as the original optimum, and for these concat-heavy
// graphs strictly better (the paper's extra 10.7%).
func TestRewriteLowersOptimalPeak(t *testing.T) {
	for _, build := range []func() *graph.Graph{concatConvGraph, concatDWGraph} {
		g := build()
		out, _, err := Rewrite(g)
		if err != nil {
			t.Fatal(err)
		}
		before := dp.Optimal(sched.NewMemModel(g))
		after := dp.Optimal(sched.NewMemModel(out))
		if before.Flag != dp.FlagSolution || after.Flag != dp.FlagSolution {
			t.Fatal("DP failed")
		}
		if after.Peak > before.Peak {
			t.Errorf("%s: rewrite increased optimal peak %d -> %d", g.Name, before.Peak, after.Peak)
		}
		if after.Peak == before.Peak {
			t.Logf("%s: rewrite neutral (%d)", g.Name, after.Peak)
		}
	}
}

func TestRewriteNoMatchesReturnsClone(t *testing.T) {
	b := graph.NewBuilder("plain")
	in := b.Input(graph.Shape{1, 4, 4, 2})
	b.Conv(in, 4, 3, 1, graph.PadSame)
	g := b.Graph()
	out, ms, err := Rewrite(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Fatalf("unexpected matches %+v", ms)
	}
	if out.NumNodes() != g.NumNodes() {
		t.Error("clone changed structure")
	}
	out.Nodes[0].Name = "mutated"
	if g.Nodes[0].Name == "mutated" {
		t.Error("Rewrite returned the original graph, not a clone")
	}
}

func TestApplyRejectsStaleMatch(t *testing.T) {
	g := concatConvGraph()
	if _, err := Apply(g, []Match{{Kind: ChannelWise, Concat: 0, Op: 1}}, nil); err == nil {
		t.Error("stale match accepted")
	}
}

func TestWeightSeedStability(t *testing.T) {
	if NameSeed("conv_1") != NameSeed("conv_1") {
		t.Error("NameSeed not deterministic")
	}
	if NameSeed("conv_1") == NameSeed("conv_2") {
		t.Error("NameSeed collision for distinct names")
	}
	n := &graph.Node{Name: "x", Attr: graph.Attr{Seed: 42, AliasOf: -1}}
	if WeightSeed(n) != 42 {
		t.Error("explicit seed ignored")
	}
	n.Attr.Seed = 0
	if WeightSeed(n) != NameSeed("x") {
		t.Error("fallback seed wrong")
	}
}

func TestRewriteChainsOfConcats(t *testing.T) {
	// Two independent matches in one graph are both rewritten.
	b := graph.NewBuilder("double")
	in := b.Input(graph.Shape{1, 8, 8, 4})
	a1 := b.Conv(in, 4, 3, 1, graph.PadSame)
	a2 := b.Conv(in, 4, 3, 1, graph.PadSame)
	y1 := b.Conv(b.Concat(a1, a2), 8, 3, 1, graph.PadSame)
	b1 := b.Conv(y1, 4, 3, 1, graph.PadSame)
	b2 := b.Conv(y1, 4, 3, 1, graph.PadSame)
	y2 := b.DepthwiseConv(b.Concat(b1, b2), 3, 1, graph.PadSame)
	b.ReLU(y2)
	g := b.Graph()

	out, ms, err := Rewrite(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("matches = %d, want 2", len(ms))
	}
	var buffers int
	for _, n := range out.Nodes {
		if n.Op == graph.OpBuffer {
			buffers++
		}
	}
	if buffers != 2 {
		t.Errorf("buffers = %d, want 2", buffers)
	}
}

// applyReference is Apply as first written: node by node through AddNode,
// each buffer anchored by intersecting all-pairs ancestor bitsets. Apply must
// build a deep-equal graph.
func applyReference(g *graph.Graph, matches []Match) (*graph.Graph, error) {
	if len(matches) == 0 {
		return g.Clone(), nil
	}
	matchByConcat := map[int]*Match{}
	matchByOp := map[int]*Match{}
	for i := range matches {
		m := &matches[i]
		matchByConcat[m.Concat] = m
		matchByOp[m.Op] = m
		c := g.Nodes[m.Concat]
		if c.Op != graph.OpConcat || len(c.Succs) != 1 || c.Succs[0] != m.Op {
			return nil, fmt.Errorf("rewrite: stale match %+v", *m)
		}
	}

	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	anc, err := ancestors(g)
	if err != nil {
		return nil, err
	}
	topoPos := make([]int, g.NumNodes())
	for i, v := range order {
		topoPos[v] = i
	}
	out := graph.New(g.Name + "+rewrite")
	remap := make([]int, g.NumNodes())
	for i := range remap {
		remap[i] = -1
	}

	for _, v := range order {
		n := g.Nodes[v]
		if _, isConcat := matchByConcat[v]; isConcat {
			continue
		}
		m, isOp := matchByOp[v]
		if !isOp {
			preds := make([]int, len(n.Preds))
			for i, p := range n.Preds {
				if remap[p] < 0 {
					return nil, fmt.Errorf("rewrite: node %d consumed elided node %d", v, p)
				}
				preds[i] = remap[p]
			}
			nid := out.AddNode(n.Op, n.Name, n.Shape, preds...)
			nn := out.Nodes[nid]
			nn.DType = n.DType
			nn.Attr = n.Attr
			if n.Attr.AliasOf >= 0 {
				nn.Attr.AliasOf = remap[n.Attr.AliasOf]
			}
			remap[v] = nid
			continue
		}

		conv := n
		concat := g.Nodes[m.Concat]
		var bufPreds []int
		if a := commonAncestorReference(g, concat.Preds, anc, topoPos, remap); a >= 0 {
			bufPreds = []int{a}
		}
		buf := out.AddNode(graph.OpBuffer, conv.Name+"#buf", conv.Shape, bufPreds...)
		out.Nodes[buf].DType = conv.DType

		partials := make([]int, 0, len(concat.Preds))
		inOffset := 0
		for bi, branch := range concat.Preds {
			if remap[branch] < 0 {
				return nil, fmt.Errorf("rewrite: branch %d of concat %d not materialized", branch, m.Concat)
			}
			bshape := g.Nodes[branch].Shape
			var pid int
			switch m.Kind {
			case ChannelWise:
				pid = out.AddNode(graph.OpPartialConv,
					fmt.Sprintf("%s#part%d", conv.Name, bi), conv.Shape, remap[branch], buf)
			case KernelWise:
				ps := conv.Shape.Clone()
				ps[len(ps)-1] = bshape.Channels()
				pid = out.AddNode(graph.OpPartialDWConv,
					fmt.Sprintf("%s#part%d", conv.Name, bi), ps, remap[branch], buf)
			}
			pn := out.Nodes[pid]
			pn.DType = conv.DType
			pn.Attr = conv.Attr
			pn.Attr.AliasOf = buf
			pn.Attr.ChanOffset = inOffset
			pn.Attr.InChannels = bshape.Channels()
			pn.Attr.Seed = WeightSeed(conv)
			inOffset += bshape.Channels()
			partials = append(partials, pid)
		}

		join := out.AddNode(graph.OpIdentity, conv.Name+"#join", conv.Shape, partials...)
		out.Nodes[join].DType = conv.DType
		out.Nodes[join].Attr.AliasOf = buf
		remap[v] = join
	}

	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("rewrite: produced invalid graph: %w", err)
	}
	return out, nil
}

// commonAncestorReference intersects the branches' ancestor bitsets and
// returns the new-graph ID of the surviving member latest in the
// topological order, or -1.
func commonAncestorReference(g *graph.Graph, branches []int, anc []*graph.Bitset, topoPos []int, remap []int) int {
	if len(branches) == 0 {
		return -1
	}
	common := anc[branches[0]].Clone()
	for _, b := range branches[1:] {
		and := graph.NewBitset(g.NumNodes())
		and.Or(common)
		common.ForEach(func(v int) {
			if !anc[b].Has(v) {
				and.Clear(v)
			}
		})
		common = and
	}
	best, bestPos := -1, -1
	common.ForEach(func(v int) {
		if remap[v] >= 0 && topoPos[v] > bestPos {
			best, bestPos = remap[v], topoPos[v]
		}
	})
	return best
}

// ancestors returns, for every node v, the bitset of nodes that can reach v
// (excluding v itself), by a topological union of predecessor sets.
func ancestors(g *graph.Graph) ([]*graph.Bitset, error) {
	order, err := g.TopoOrder()
	if err != nil {
		return nil, err
	}
	n := len(g.Nodes)
	anc := make([]*graph.Bitset, n)
	for i := range anc {
		anc[i] = graph.NewBitset(n)
	}
	for _, v := range order {
		for _, s := range g.Nodes[v].Succs {
			anc[s].Set(v)
			anc[s].Or(anc[v])
		}
	}
	return anc, nil
}

// referenceRule is partitioningRule over applyReference, Apply's first
// implementation.
type referenceRule struct{}

func (referenceRule) Name() string { return partitioningRule{}.Name() }

func (referenceRule) Apply(g *graph.Graph) (*graph.Graph, int, error) {
	ms := FindMatches(g)
	if len(ms) == 0 {
		return nil, 0, nil
	}
	out, err := applyReference(g, ms)
	return out, len(ms), err
}

// assertRewriteMatchesReference rewrites g under DefaultRules and under
// referenceRule, and fails unless both fire the same rules and build
// deep-equal graphs: the same fingerprint, names, dtypes and attributes (Seed
// included), and the same Shape, Preds and Succs of every node. It also fails
// unless the rule fires at most once: rewriting a site creates no new concat →
// convolution site, so RewriteAll's second pass never fires.
func assertRewriteMatchesReference(t testing.TB, g *graph.Graph, what string) {
	t.Helper()
	got, gotApps, err := RewriteAll(g, DefaultRules(), 0)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want, wantApps, err := RewriteAll(g, []Rule{referenceRule{}}, 0)
	if err != nil {
		t.Fatalf("%s: reference: %v", what, err)
	}
	if !slices.Equal(gotApps, wantApps) {
		t.Fatalf("%s: applied %v, reference %v", what, gotApps, wantApps)
	}
	if len(gotApps) > 1 {
		t.Fatalf("%s: applied %v, want at most one pass", what, gotApps)
	}
	if got.Name != want.Name || got.NumNodes() != want.NumNodes() || got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("%s: %q with %d nodes, reference %q with %d nodes, or the fingerprints differ",
			what, got.Name, got.NumNodes(), want.Name, want.NumNodes())
	}
	for v, n := range got.Nodes {
		if w := want.Nodes[v]; n.Name != w.Name || n.DType != w.DType || n.Attr != w.Attr {
			t.Fatalf("%s: node %d is %q %v %+v, reference %q %v %+v", what, v, n.Name, n.DType, n.Attr, w.Name, w.DType, w.Attr)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: shapes or edges differ from the reference", what)
	}
}

// randomRewritableGraph grows an NHWC graph with concat → conv and concat →
// depthwise conv sites, concats nested in concats, and Identity copies.
// Operands are drawn from every earlier node, repeats included, so concat
// branches share ancestors in every way.
func randomRewritableGraph(rng *rand.Rand, nodes int) *graph.Graph {
	b := graph.NewBuilder("rand-rewrite")
	widths := []int{1, 2, 3, 4, 6, 8}
	width := func() int { return widths[rng.Intn(len(widths))] }
	ids := []int{b.Input(graph.Shape{1, 4, 4, width()})}
	pick := func() int { return ids[rng.Intn(len(ids))] }
	for b.Graph().NumNodes() < nodes {
		x, y := pick(), pick()
		switch rng.Intn(6) {
		case 0:
			ids = append(ids, b.ReLU(x))
		case 1:
			ids = append(ids, b.PointwiseConv(x, width()))
		case 2:
			if x != y && b.Graph().Nodes[x].Shape.Equal(b.Graph().Nodes[y].Shape) {
				ids = append(ids, b.Add(x, y))
			}
		case 3:
			ids = append(ids, b.Identity(x))
		default:
			c := b.Concat(x, y)
			if rng.Intn(3) == 0 {
				c = b.Concat(c, pick())
			}
			if rng.Intn(2) == 0 {
				ids = append(ids, b.PointwiseConv(c, width()))
			} else {
				ids = append(ids, b.DepthwiseConv(c, 3, 1, graph.PadSame))
			}
		}
	}
	return b.Graph()
}

// stackedConcatCells chains cells that each end in concat → pointwise conv
// behind a pointwise waist, the shape serenityd's warm-memo traffic stacks:
// a few SepConv branches wired off the waist and each other.
func stackedConcatCells(rng *rand.Rand, cells int) *graph.Graph {
	b := graph.NewBuilder("concat-stack")
	x := b.Input(graph.Shape{1, 8, 8, 8})
	for c := 0; c < cells; c++ {
		x = b.PointwiseConv(x, 8)
		ids := []int{x}
		var ends []int
		for k := 2 + rng.Intn(4); k > 0; k-- {
			y := ids[rng.Intn(len(ids))]
			for d := 1 + rng.Intn(3); d > 0; d-- {
				y = b.SepConv(y, 8, 3, 1, graph.PadSame)
				ids = append(ids, y)
			}
			ends = append(ends, y)
		}
		x = b.PointwiseConv(b.Concat(ends...), 8)
	}
	return b.Graph()
}

// TestApplyMatchesReference holds the slab-built rewrite to its node-by-node
// reference on the nine evaluation cells, on random rewritable DAGs and on
// stacked concat cells.
func TestApplyMatchesReference(t *testing.T) {
	for _, c := range models.BenchmarkCells() {
		assertRewriteMatchesReference(t, c.Build(), c.Network+" "+c.Dataset+" "+c.Cell)
	}
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 200; i++ {
		g := randomRewritableGraph(rng, 2+rng.Intn(40))
		assertRewriteMatchesReference(t, g, fmt.Sprintf("random %d", i))
	}
	for i := 0; i < 10; i++ {
		g := stackedConcatCells(rng, 1+rng.Intn(8))
		assertRewriteMatchesReference(t, g, fmt.Sprintf("stack %d", i))
	}
}

// FuzzRewriteDifferential is the same oracle over whatever graphs the fuzzer
// draws.
func FuzzRewriteDifferential(f *testing.F) {
	f.Add(int64(1), uint8(12))
	f.Add(int64(33), uint8(40))
	f.Add(int64(-5), uint8(90))
	f.Fuzz(func(t *testing.T, seed int64, nodes uint8) {
		g := randomRewritableGraph(rand.New(rand.NewSource(seed)), 2+int(nodes)%100)
		assertRewriteMatchesReference(t, g, "random")
	})
}

// TestRewriteAllocations pins the heap shape of a rewritten graph: a fixed
// handful of slabs and scratch slices plus one string per new node's name,
// where building node by node cost four objects per node.
func TestRewriteAllocations(t *testing.T) {
	g := stackedConcatCells(rand.New(rand.NewSource(8)), 16)
	rw, apps, err := RewriteAll(g, DefaultRules(), 0)
	if err != nil || len(apps) != 1 {
		t.Fatalf("rewrite applied %v: %v", apps, err)
	}
	// Each site elides its concat and conv and adds a buffer, the partials
	// and a join: every added node carries a new name.
	named := rw.NumNodes() - g.NumNodes() + 2*apps[0].Sites
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := RewriteAll(g, DefaultRules(), 0); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(named + 40); allocs > limit {
		t.Errorf("rewriting %d nodes into %d took %.0f allocations, want at most %.0f (%d new names + 40)",
			g.NumNodes(), rw.NumNodes(), allocs, limit, named)
	}
}
