package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func diamond(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder("diamond")
	in := b.Input(Shape{1, 8, 8, 4})
	l := b.Conv(in, 8, 3, 1, PadSame)
	r := b.Conv(in, 8, 3, 1, PadSame)
	b.Add(l, r)
	g := b.Graph()
	if err := g.Validate(); err != nil {
		t.Fatalf("diamond invalid: %v", err)
	}
	return g
}

func TestOpTypeStringRoundTrip(t *testing.T) {
	for op := OpType(0); op < opTypeCount; op++ {
		got, err := ParseOpType(op.String())
		if err != nil {
			t.Fatalf("ParseOpType(%s): %v", op, err)
		}
		if got != op {
			t.Errorf("round trip %v -> %v", op, got)
		}
	}
	if _, err := ParseOpType("Bogus"); err == nil {
		t.Error("ParseOpType accepted bogus name")
	}
}

func TestDTypeSizes(t *testing.T) {
	cases := map[DType]int64{Float32: 4, Float16: 2, Int8: 1, UInt8: 1}
	for d, want := range cases {
		if got := d.Size(); got != want {
			t.Errorf("%v.Size() = %d, want %d", d, got, want)
		}
		rt, err := ParseDType(d.String())
		if err != nil || rt != d {
			t.Errorf("dtype round trip %v -> %v, %v", d, rt, err)
		}
	}
}

func TestShapeElems(t *testing.T) {
	if got := (Shape{1, 8, 8, 16}).Elems(); got != 1024 {
		t.Errorf("Elems = %d, want 1024", got)
	}
	if got := (Shape{}).Elems(); got != 1 {
		t.Errorf("empty shape Elems = %d, want 1", got)
	}
	s := Shape{2, 3}
	c := s.Clone()
	c[0] = 99
	if s[0] != 2 {
		t.Error("Clone aliases original storage")
	}
	if !s.Equal(Shape{2, 3}) || s.Equal(Shape{2, 4}) || s.Equal(Shape{2}) {
		t.Error("Shape.Equal misbehaves")
	}
	if (Shape{1, 2, 3, 7}).Channels() != 7 {
		t.Error("Channels should return trailing dim")
	}
	if (Shape{}).Channels() != 0 {
		t.Error("Channels of empty shape should be 0")
	}
}

func TestNodeOutBytes(t *testing.T) {
	g := New("t")
	a := g.AddNode(OpInput, "a", Shape{1, 4, 4, 2})
	if got := g.Nodes[a].OutBytes(); got != 4*4*2*4 {
		t.Errorf("OutBytes = %d, want 128", got)
	}
	v := g.AddNode(OpIdentity, "view", Shape{1, 4, 4, 2}, a)
	g.Nodes[v].Attr.AliasOf = a
	if got := g.Nodes[v].OutBytes(); got != 0 {
		t.Errorf("aliased OutBytes = %d, want 0", got)
	}
	if got := g.Nodes[v].StorageBytes(); got != 128 {
		t.Errorf("StorageBytes = %d, want 128", got)
	}
}

func TestGraphEdgesAndDegrees(t *testing.T) {
	g := diamond(t)
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d", g.NumNodes())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	in := g.Indegrees()
	want := []int{0, 1, 1, 2}
	for i, w := range want {
		if in[i] != w {
			t.Errorf("indeg[%d] = %d, want %d", i, in[i], w)
		}
	}
	if got := g.Inputs(); len(got) != 1 || got[0] != 0 {
		t.Errorf("Inputs = %v", got)
	}
	if got := g.Outputs(); len(got) != 1 || got[0] != 3 {
		t.Errorf("Outputs = %v", got)
	}
}

func TestTopoOrderDeterministicAndValid(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		g := RandomDAG(rng, RandomDAGConfig{Nodes: 20, EdgeProb: 0.2})
		o1, err := g.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		o2, _ := g.TopoOrder()
		for i := range o1 {
			if o1[i] != o2[i] {
				t.Fatal("TopoOrder not deterministic")
			}
		}
		pos := make([]int, g.NumNodes())
		for i, v := range o1 {
			pos[v] = i
		}
		for _, n := range g.Nodes {
			for _, p := range n.Preds {
				if pos[p] >= pos[n.ID] {
					t.Fatalf("order violates edge %d->%d", p, n.ID)
				}
			}
		}
	}
}

func TestTopoOrderDetectsCycle(t *testing.T) {
	g := New("cycle")
	a := g.AddNode(OpInput, "a", Shape{1})
	b := g.AddNode(OpReLU, "b", Shape{1}, a)
	g.AddEdge(b, a) // creates a->b->a
	if _, err := g.TopoOrder(); err != ErrCycle {
		t.Fatalf("want ErrCycle, got %v", err)
	}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate accepted cyclic graph")
	}
}

func TestZeroIndegree(t *testing.T) {
	g := diamond(t)
	s := NewBitset(4)
	z := g.ZeroIndegree(s)
	if z.Count() != 1 || !z.Has(0) {
		t.Fatalf("initial z = %v", z.Elems())
	}
	s.Set(0)
	z = g.ZeroIndegree(s)
	if !z.Has(1) || !z.Has(2) || z.Has(3) {
		t.Fatalf("after input z = %v", z.Elems())
	}
	s.Set(1)
	s.Set(2)
	z = g.ZeroIndegree(s)
	if z.Count() != 1 || !z.Has(3) {
		t.Fatalf("final z = %v", z.Elems())
	}
}

func TestValidateCatchesBadAlias(t *testing.T) {
	g := New("bad")
	a := g.AddNode(OpInput, "a", Shape{4})
	b := g.AddNode(OpReLU, "b", Shape{4}, a)
	g.Nodes[b].Attr.AliasOf = 99
	if err := g.Validate(); err == nil {
		t.Error("out-of-range alias accepted")
	}
	g.Nodes[b].Attr.AliasOf = -1
	g.Nodes[b].Shape = Shape{0}
	if err := g.Validate(); err == nil {
		t.Error("non-positive shape accepted")
	}
}

func TestValidateAliasMustDepend(t *testing.T) {
	g := New("alias-no-dep")
	a := g.AddNode(OpInput, "a", Shape{4})
	c := g.AddNode(OpInput, "c", Shape{4})
	v := g.AddNode(OpIdentity, "v", Shape{4}, a)
	g.Nodes[v].Attr.AliasOf = c // aliases a node it does not consume
	if err := g.Validate(); err == nil {
		t.Error("alias without dependency accepted")
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := diamond(t)
	c := g.Clone()
	c.Nodes[0].Shape[0] = 99
	c.Nodes[3].Preds[0] = 0
	if g.Nodes[0].Shape[0] == 99 {
		t.Error("Clone shares shape storage")
	}
	if g.Nodes[3].Preds[0] == 0 {
		t.Error("Clone shares pred storage")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := diamond(t)
	g.Nodes[1].Attr.Pad = PadValid
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed structure: %d/%d vs %d/%d",
			got.NumNodes(), got.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	for i, n := range g.Nodes {
		o := got.Nodes[i]
		if n.Op != o.Op || !n.Shape.Equal(o.Shape) || n.Attr.Pad != o.Attr.Pad {
			t.Errorf("node %d mismatch after round trip", i)
		}
	}
}

func TestJSONRejectsNonDense(t *testing.T) {
	data := []byte(`{"name":"x","nodes":[{"id":5,"op":"Input","shape":[1]}]}`)
	g := New("")
	if err := g.UnmarshalJSON(data); err == nil {
		t.Error("accepted non-dense node IDs")
	}
}

func TestDOTOutput(t *testing.T) {
	g := diamond(t)
	var buf bytes.Buffer
	if err := g.WriteDOT(&buf); err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{"digraph", "n0 -> n1", "n1 -> n3", "Conv"} {
		if !strings.Contains(s, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

func TestBuilderShapeInference(t *testing.T) {
	b := NewBuilder("shapes")
	in := b.Input(Shape{1, 32, 32, 3})
	c := b.Conv(in, 16, 3, 2, PadSame)
	if got := b.Graph().Nodes[c].Shape; !got.Equal(Shape{1, 16, 16, 16}) {
		t.Errorf("conv same s2 shape = %v", got)
	}
	v := b.Conv(in, 8, 5, 1, PadValid)
	if got := b.Graph().Nodes[v].Shape; !got.Equal(Shape{1, 28, 28, 8}) {
		t.Errorf("conv valid shape = %v", got)
	}
	d := b.DilConv(in, 8, 3, 1, 2, PadValid) // effective kernel 5
	if got := b.Graph().Nodes[d].Shape; !got.Equal(Shape{1, 28, 28, 8}) {
		t.Errorf("dilconv shape = %v", got)
	}
	p := b.MaxPool(c, 2, 2, PadSame)
	if got := b.Graph().Nodes[p].Shape; !got.Equal(Shape{1, 8, 8, 16}) {
		t.Errorf("pool shape = %v", got)
	}
	gp := b.GlobalAvgPool(p)
	if got := b.Graph().Nodes[gp].Shape; !got.Equal(Shape{1, 1, 1, 16}) {
		t.Errorf("gap shape = %v", got)
	}
	dn := b.Dense(gp, 10)
	if got := b.Graph().Nodes[dn].Shape; !got.Equal(Shape{1, 10}) {
		t.Errorf("dense shape = %v", got)
	}
	c2 := b.Conv(c, 8, 3, 1, PadSame) // 1x16x16x8, same spatial as c
	cc := b.Concat(c, c2)
	if got := b.Graph().Nodes[cc].Shape; !got.Equal(Shape{1, 16, 16, 24}) {
		t.Errorf("concat shape = %v, want [1 16 16 24]", got)
	}
}

func TestBuilderConcatPanicsOnSpatialMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Concat accepted mismatched spatial dims")
		}
	}()
	b := NewBuilder("bad")
	in := b.Input(Shape{1, 8, 8, 4})
	a := b.Conv(in, 4, 3, 1, PadSame)
	p := b.MaxPool(in, 2, 2, PadSame)
	b.Concat(a, p)
}

func TestBuilderAddPanicsOnShapeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Add accepted mismatched shapes")
		}
	}()
	b := NewBuilder("bad")
	x := b.Input(Shape{1, 8, 8, 4})
	y := b.Input(Shape{1, 8, 8, 8})
	b.Add(x, y)
}

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	for _, i := range []int{0, 63, 64, 127, 129} {
		b.Set(i)
	}
	if b.Count() != 5 {
		t.Fatalf("Count = %d", b.Count())
	}
	if !b.Has(64) || b.Has(65) {
		t.Error("Has wrong")
	}
	b.Clear(64)
	if b.Has(64) || b.Count() != 4 {
		t.Error("Clear wrong")
	}
	c := b.Clone()
	if !c.Equal(b) {
		t.Error("Clone not equal")
	}
	c.Set(1)
	if c.Equal(b) {
		t.Error("Equal ignores difference")
	}
	if b.Key() == c.Key() {
		t.Error("Key collision for different sets")
	}
	got := b.Elems()
	want := []int{0, 63, 127, 129}
	if len(got) != len(want) {
		t.Fatalf("Elems = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Elems = %v, want %v", got, want)
		}
	}
	d := NewBitset(130)
	d.Set(0)
	d.Set(5)
	b.Or(d)
	if !b.Has(5) {
		t.Error("Or missing element")
	}
}

func TestBitsetKeyInjective(t *testing.T) {
	f := func(xs []uint8) bool {
		b1 := NewBitset(256)
		b2 := NewBitset(256)
		for i, x := range xs {
			if i%2 == 0 {
				b1.Set(int(x))
			} else {
				b2.Set(int(x))
			}
		}
		return (b1.Key() == b2.Key()) == b1.Equal(b2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestRandomDAGConnectivityAndValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		g := RandomDAG(rng, RandomDAGConfig{Nodes: 15, EdgeProb: 0.25, MaxFanIn: 3})
		if err := g.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		for _, n := range g.Nodes[1:] {
			if len(n.Preds) == 0 && n.Op != OpInput {
				t.Fatalf("trial %d: non-input node %d has no preds", trial, n.ID)
			}
			if len(n.Preds) > 3 {
				t.Fatalf("trial %d: fan-in cap violated", trial)
			}
		}
	}
}

// TestUnmarshalRejectsBadPreds pins the decode-time bounds check: a pred
// referencing a missing or later node must be a clean error, never the
// index-out-of-range panic AddNode would otherwise hit mid-decode (found by
// probing serenityd with a malformed graph; also fuzz-reachable).
func TestUnmarshalRejectsBadPreds(t *testing.T) {
	for _, bad := range []string{
		`{"name":"bad","nodes":[{"id":0,"name":"x","op":"ReLU","shape":[1],"preds":[5]}]}`,
		`{"name":"bad","nodes":[{"id":0,"name":"x","op":"ReLU","shape":[1],"preds":[0]}]}`,
		`{"name":"bad","nodes":[{"id":0,"name":"x","op":"ReLU","shape":[1],"preds":[-1]}]}`,
	} {
		g := New("")
		if err := g.UnmarshalJSON([]byte(bad)); err == nil {
			t.Errorf("decoder accepted %s", bad)
		}
	}
}
