package graph_test

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/serenity-ml/serenity/internal/graph"
	"github.com/serenity-ml/serenity/internal/models"
	"github.com/serenity-ml/serenity/internal/rewrite"
)

// wireBenchGraph is the graph the codec benchmarks and the allocation pin
// run on: six stacked WS(24) cells, ~240 nodes, ~72 KB on the wire — the
// shape serenityd's warm-memo workload posts.
func wireBenchGraph() *graph.Graph {
	return models.StackedUniformRandWire("ws24x6", 6, models.WSConfig{Nodes: 24, K: 4, P: 0.75, Seed: 7, HW: 16, Channel: 16})
}

// corpusGraphs is every graph this repository builds, plus what identity
// rewriting turns each into (the rewritten_graph of a response).
func corpusGraphs(t *testing.T) []*graph.Graph {
	t.Helper()
	gs := []*graph.Graph{
		wireBenchGraph(), models.SwiftNet(),
		models.AdversarialWideGraph("adversarial", 6, 3, 8, 8, 1),
		models.StackedRandWire("stacked", 3, models.WSConfig{Nodes: 12, K: 4, P: 0.75, Seed: 3, HW: 8, Channel: 4}),
	}
	for _, c := range append(models.BenchmarkCells(), models.ExtraCells()...) {
		gs = append(gs, c.Build())
	}
	for _, g := range gs {
		rw, _, err := rewrite.Rewrite(g)
		if err != nil {
			t.Fatal(err)
		}
		gs = append(gs, rw)
	}
	return gs
}

// TestFastDecodeCoversCorpus: the documents this repository writes — the
// encoder's output for every bundled model (which is what cmd/graphgen
// prints) and its rewritten form, and the committed golden files — all stay
// on the fast path, and decode to what the reference decoder builds.
func TestFastDecodeCoversCorpus(t *testing.T) {
	docs := map[string][]byte{}
	for _, g := range corpusGraphs(t) {
		data, err := g.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		docs[g.Name] = data
	}
	goldens, err := filepath.Glob(filepath.Join("..", "..", "testdata", "golden", "*.json"))
	if err != nil || len(goldens) == 0 {
		t.Fatalf("no golden graphs found: %v", err)
	}
	for _, path := range goldens {
		if docs[path], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	for name, data := range docs {
		fast, ok := graph.DecodeFast(data)
		if !ok {
			t.Errorf("%s: left the fast path", name)
			continue
		}
		ref, err := graph.UnmarshalStd(data)
		if err != nil {
			t.Fatalf("%s: reference rejects it: %v", name, err)
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Errorf("%s: fast path and reference built different graphs", name)
		}
		if out := fast.AppendJSON(nil, 0); string(out) != string(data) {
			t.Errorf("%s: does not re-encode byte for byte", name)
		}
	}
}

// TestGraphDecodeAllocs pins the decoder's allocation count to a constant:
// eight today (the slab's node, span and int arenas, the name spans, the
// names buffer and its string, the node list and the Graph), so a single
// allocation per node, or TopoOrder's three coming back into Validate, fails
// (the reflective decoder made ~15 per node). Names are copied out of the
// input, so the decoded graph does not keep the request body alive.
func TestGraphDecodeAllocs(t *testing.T) {
	g := wireBenchGraph()
	data, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var out graph.Graph
	allocs := testing.AllocsPerRun(20, func() {
		if err := out.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
	})
	const limit = 10
	if allocs > limit {
		t.Errorf("decoding %d nodes took %.0f allocations, want at most %d", g.NumNodes(), allocs, limit)
	}
	t.Logf("%d nodes, %d bytes: %.0f allocations", g.NumNodes(), len(data), allocs)

	for i := range data {
		data[i] = 'x'
	}
	if out.Name != g.Name || out.Nodes[0].Name != g.Nodes[0].Name {
		t.Errorf("decoded names alias the input buffer: graph %q, node 0 %q", out.Name, out.Nodes[0].Name)
	}

	if allocs := testing.AllocsPerRun(20, func() { _, _ = g.MarshalJSON() }); allocs > 1 {
		t.Errorf("encoding took %.0f allocations, want the one pre-sized buffer", allocs)
	}
}

func BenchmarkGraphDecode(b *testing.B) {
	data, err := wireBenchGraph().MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	var g graph.Graph
	for b.Loop() {
		if err := g.UnmarshalJSON(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGraphEncode(b *testing.B) {
	g := wireBenchGraph()
	buf := g.AppendJSON(nil, 0)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for b.Loop() {
		buf = g.AppendJSON(buf[:0], 0)
	}
}
