package graph

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// toJSONGraph is the oracle's input: the struct whose tags encoding/json
// renders into the wire format AppendJSON must reproduce byte for byte.
func toJSONGraph(g *Graph) jsonGraph {
	jg := jsonGraph{Name: g.Name, Nodes: make([]jsonNode, len(g.Nodes))}
	for i, n := range g.Nodes {
		jn := jsonNode{
			ID: n.ID, Name: n.Name, Op: n.Op.String(), Shape: []int(n.Shape),
			DType: n.DType.String(), Preds: n.Preds,
			KernelH: n.Attr.KernelH, KernelW: n.Attr.KernelW,
			StrideH: n.Attr.StrideH, StrideW: n.Attr.StrideW,
			Dilation: n.Attr.Dilation, Axis: n.Attr.Axis,
			ChanOffset: n.Attr.ChanOffset, InChannels: n.Attr.InChannels,
		}
		if n.Attr.Pad == PadValid {
			jn.Pad = "valid"
		}
		if n.Attr.AliasOf >= 0 {
			a := n.Attr.AliasOf
			jn.AliasOf = &a
		}
		jg.Nodes[i] = jn
	}
	return jg
}

// checkEncode compares AppendJSON with encoding/json at depth 0 and nested
// two levels deep, as serenityd's batch endpoint nests a rewritten graph.
func checkEncode(t *testing.T, g *Graph) {
	t.Helper()
	jg := toJSONGraph(g)
	want, err := json.MarshalIndent(jg, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if got := g.AppendJSON(nil, 0); string(got) != string(want) {
		t.Fatalf("AppendJSON differs from encoding/json\n got: %s\nwant: %s", got, want)
	}
	type outer struct {
		In struct {
			G jsonGraph `json:"g"`
		} `json:"in"`
	}
	var o outer
	o.In.G = jg
	want, err = json.MarshalIndent(o, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got := append([]byte("{\n  \"in\": {\n    \"g\": "), g.AppendJSON(nil, 2)...)
	got = append(got, "\n  }\n}"...)
	if string(got) != string(want) {
		t.Fatalf("nested AppendJSON differs from encoding/json\n got: %s\nwant: %s", got, want)
	}
}

// hostileNames are what a client may put in a name: everything
// encoding/json escapes or rewrites.
var hostileNames = []string{
	"", "plain", "<script>&amp;</script>", `quote"back\slash`, "tab\tnl\ncr\r\b\f",
	"\x00\x01\x1f\x7f", "café 日本", "\u2028line\u2029para", "bad\xff\xfeutf8\xc3", "trunc\xe2\x80",
}

// decorate gives a random DAG every field the format knows, from rng.
func decorate(rng *rand.Rand, g *Graph, names []string) {
	g.Name = names[rng.Intn(len(names))]
	for _, n := range g.Nodes {
		n.Name = names[rng.Intn(len(names))]
		n.DType = DType(rng.Intn(4))
		n.Op = OpType(rng.Intn(int(opTypeCount)))
		if rng.Intn(3) == 0 {
			n.Attr.KernelH, n.Attr.KernelW = rng.Intn(4), rng.Intn(4)
			n.Attr.StrideH, n.Attr.StrideW = rng.Intn(3), rng.Intn(3)
			n.Attr.Pad = Padding(rng.Intn(2))
			n.Attr.Dilation, n.Attr.Axis = rng.Intn(3), rng.Intn(4)-1
			n.Attr.ChanOffset, n.Attr.InChannels = rng.Intn(64), rng.Intn(64)
		}
		if len(n.Preds) > 0 && rng.Intn(4) == 0 {
			n.Attr.AliasOf = n.Preds[0]
		}
		if rng.Intn(8) == 0 {
			n.Shape = Shape{}
		}
	}
}

func TestAppendJSONMatchesEncodingJSON(t *testing.T) {
	checkEncode(t, New("empty"))
	nilShape := New("nil-shape")
	nilShape.Nodes = []*Node{{Op: OpType(99), DType: DType(9), Attr: Attr{AliasOf: -1}}}
	checkEncode(t, nilShape)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		g := RandomDAG(rng, RandomDAGConfig{Nodes: 2 + rng.Intn(30), EdgeProb: 0.3})
		decorate(rng, g, hostileNames)
		checkEncode(t, g)
	}
}

// FuzzGraphEncodeDifferential: random DAGs whose names are cut from the
// fuzzer's bytes must encode exactly as encoding/json encodes them, and —
// names being arbitrary — decode back to the same graph whichever decoder
// takes them.
func FuzzGraphEncodeDifferential(f *testing.F) {
	for i, name := range hostileNames {
		f.Add(int64(i), []byte(name))
	}
	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		names := []string{string(raw)}
		for cut := 1; cut < len(raw) && len(names) < 8; cut *= 2 {
			names = append(names, string(raw[:cut]), string(raw[cut:]))
		}
		rng := rand.New(rand.NewSource(seed))
		g := RandomDAG(rng, RandomDAGConfig{Nodes: 2 + rng.Intn(12), EdgeProb: 0.4})
		decorate(rng, g, names)
		checkEncode(t, g)
		checkDecode(t, g.AppendJSON(nil, 0))
	})
}

// checkDecode holds the fast path to its contract on one input: whenever it
// accepts, the reference accepts too and builds a deep-equal graph (Succs
// included); and UnmarshalJSON as a whole answers exactly as the reference —
// same verdict, same error text, same graph. Every graph the reference
// accepts must also come out of a Slab deep-equal to what AddNode built.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	ref, refErr := unmarshalStd(data)
	if refErr == nil {
		if copied := slabCopy(ref); !reflect.DeepEqual(copied, ref) {
			t.Fatalf("a Slab copy differs from the graph AddNode built for %q\nslab: %+v\n ref: %+v", data, dump(copied), dump(ref))
		}
	}
	if fast, ok := decodeFast(data); ok {
		if refErr != nil {
			t.Fatalf("fast path accepted what the reference rejects (%v): %q", refErr, data)
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("fast path built a different graph for %q\nfast: %+v\n ref: %+v", data, dump(fast), dump(ref))
		}
	}
	var g Graph
	err := g.UnmarshalJSON(data)
	switch {
	case (err == nil) != (refErr == nil):
		t.Fatalf("UnmarshalJSON says %v, reference says %v: %q", err, refErr, data)
	case err != nil && err.Error() != refErr.Error():
		t.Fatalf("UnmarshalJSON error %q, reference error %q", err, refErr)
	case err == nil && !reflect.DeepEqual(&g, ref):
		t.Fatalf("UnmarshalJSON built a different graph for %q", data)
	}
}

// slabCopy rebuilds g node by node through a Slab.
func slabCopy(g *Graph) *Graph {
	ints := 0
	for _, n := range g.Nodes {
		ints += n.ArenaInts()
	}
	s := NewSlab(len(g.Nodes), ints)
	for _, n := range g.Nodes {
		s.Add(*n)
	}
	return s.Build(g.Name)
}

func dump(g *Graph) []Node {
	out := make([]Node, len(g.Nodes))
	for i, n := range g.Nodes {
		out[i] = *n
	}
	return out
}

// The seeds sit on both sides of the fast-path/reference seam: canonical
// documents the scanner must take, and near misses it must hand over to the
// reference rather than decide.
var (
	canonicalSeeds = []string{
		`{"name":"g","nodes":[{"id":0,"name":"in","op":"Input","shape":[1,8,8,4],"dtype":"float32"},{"id":1,"op":"ReLU","shape":[1,8,8,4],"preds":[0]}]}`,
		`{"nodes":[{"op":"Input","id":0,"shape":[]},{"id":1,"op":"Add","preds":[0,0],"alias_of":0,"pad":"valid","dtype":""}],"name":""}`,
		" {\n\t\"name\" : \"ws\" ,\r\n \"nodes\" : [ ] } \n",
		`{}`, `{"nodes":[]}`, `{"name":"only"}`,
		`{"nodes":[{"id":0,"op":"Input","pad":"same"}]}`, `{"nodes":[{"id":-0,"op":"Input","shape":[999999999999999999]}]}`,
		`{"nodes":[{"op":"Input"}]}`,
		// The whitespace shortcuts: CRLF and tab indentation; a run longer
		// than eight words of spaces; blanks between a key and its colon
		// and before a comma; a document whose trailing run ends on the
		// eight-byte word the space scan reads last.
		"{\r\n\t\"name\": \"crlf\",\r\n\t\"nodes\": [\r\n\t\t{\r\n\t\t\t\"id\": 0,\r\n\t\t\t\"op\": \"Input\",\r\n\t\t\t\"shape\": [\r\n\t\t\t\t1\r\n\t\t\t]\r\n\t\t}\r\n\t]\r\n}",
		"{\n" + strings.Repeat(" ", 70) + `"nodes": [` + "\n" + strings.Repeat(" ", 129) + `{"id": 0, "op": "Input"}` + strings.Repeat(" ", 65) + "]\n}",
		`{"name" :"k" , "nodes" : [ {"id" : 0 , "op" :"Input" , "shape" : [ 1 , 2 ] } , {"id"  :  1 ,"op" : "ReLU" , "preds" : [ 0 ] } ] }`,
		`{"name":"abcd"}` + "\n" + strings.Repeat(" ", 8), `{"name":"abcd"}` + "\n" + strings.Repeat(" ", 16), `{"name":"abc"}` + strings.Repeat(" ", 7),
	}
	handedOverSeeds = []string{
		`null`, `[]`, `{"nodes":null}`, `{"name":null}`,
		`{"name":"a","name":"b"}`, `{"Name":"case"}`, `{"extra":1}`, `{"nodes":[{"id":0,"op":"Input","id":0}]}`,
		`{"nodes":[{"id":0,"op":"Input","ID":0}]}`, `{"nodes":[{"id":0,"op":"Input","unknown":[1,{"a":2}]}]}`,
		`{"name":"esc\u0041\n"}`, "{\"name\":\"caf\u00e9\"}", "{\"name\":\"bad\xff\"}", "{\"name\":\"ctl\x01\"}",
		`{"nodes":[{"id":0,"op":"Input","shape":[1.0]}]}`, `{"nodes":[{"id":0,"op":"Input","shape":[1e2]}]}`,
		`{"nodes":[{"id":0,"op":"Input","shape":[01]}]}`, `{"nodes":[{"id":0,"op":"Input","shape":[-0]}]}`,
		`{"nodes":[{"id":0,"op":"Input","shape":[99999999999999999999]}]}`, `{"nodes":[{"id":0,"op":"Input","shape":[1234567890123456789]}]}`,
		`{"nodes":[{"id":0,"op":"Input","shape":null}]}`, `{"nodes":[{"id":0,"op":"Input","alias_of":null}]}`,
		`{"nodes":[{"id":0,"op":"Input","shape":"x"}]}`, `{"nodes":[{"id":"0","op":"Input"}]}`, `{"nodes":[{"id":0,"op":7}]}`,
		`{"nodes":[{"id":1,"op":"Input"}]}`, `{"nodes":[{"op":"Input"},{"op":"ReLU","preds":[0]}]}`, `{"nodes":[{"id":0}]}`,
		`{"nodes":[{"id":0,"op":"Nope"}]}`, `{"nodes":[{"id":0,"op":"Input","dtype":"float64"}]}`,
		`{"nodes":[{"id":0,"op":"Input","preds":[0]}]}`, `{"nodes":[{"id":0,"op":"Input","preds":[-1]}]}`, `{"nodes":[{"id":0,"op":"Input","preds":[1]},{"id":1,"op":"Input"}]}`,
		`{"nodes":[{"id":0,"op":"Input","alias_of":0}]}`, `{"nodes":[{"id":0,"op":"Input","alias_of":5}]}`,
		`{"nodes":[{"id":0,"op":"Input"},]}`, `{"nodes":[{"id":0,"op":"Input",}]}`, `{"nodes":[,]}`, `{"name":"x",}`, `{"name":"x"} x`, `{"name":"x"}{}`,
		`{"name":"x"`, `{"name":"x`, `{"name"`, `{"name":`, `{"name":"`, `{"`, `{"nodes":[{"id"`, "{\"name\":\"del\x7f\"}", "{\f}", "\v{}", `{"nodes":[{"id":0,"op":"Input","shape":[1,`, `{"nodes":[{"id":0,"op":"Input","shape":[1 2]}]}`, `{"name" "x"}`, ``, ` `, `{`, "\ufeff{}",
	}
)

// FuzzGraphJSONDifferential is the verifier the fast decoder ships under:
// on arbitrary bytes, the new UnmarshalJSON and the forced-stdlib reference
// agree on accept/reject, on the error string and on a deep-equal Graph.
func FuzzGraphJSONDifferential(f *testing.F) {
	for _, s := range canonicalSeeds {
		f.Add([]byte(s))
	}
	for _, s := range handedOverSeeds {
		f.Add([]byte(s))
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4; i++ {
		g := RandomDAG(rng, RandomDAGConfig{Nodes: 3 + i*3})
		decorate(rng, g, []string{"a", "b c", ""})
		canon := g.AppendJSON(nil, 0)
		f.Add(canon)
		f.Add(canon[:len(canon)*2/3])
		flipped := append([]byte(nil), canon...)
		flipped[len(flipped)/2] ^= 0x10
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkDecode(t, data) })
}

// TestFastDecodeSeam pins which side of the seam the hand-picked seeds fall
// on, so a scanner change that silently stops taking canonical documents, or
// starts deciding non-canonical ones, is seen.
func TestFastDecodeSeam(t *testing.T) {
	for _, s := range canonicalSeeds {
		checkDecode(t, []byte(s))
		if _, ok := decodeFast([]byte(s)); !ok {
			t.Errorf("fast path handed over canonical %q", s)
		}
	}
	for _, s := range handedOverSeeds {
		checkDecode(t, []byte(s))
		if _, ok := decodeFast([]byte(s)); ok {
			t.Errorf("fast path decided %q, which belongs to the reference", s)
		}
	}
}
