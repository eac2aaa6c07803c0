package graph_test

import (
	"reflect"
	"slices"
	"testing"

	"github.com/serenity-ml/serenity/internal/graph"
	"github.com/serenity-ml/serenity/internal/models"
)

// TestZobristPrefixesMatchTable: the shared table's prefixes are the words a
// table of one's own holds, whatever order the sizes are asked in, and an
// append to a prefix never writes into the shared words.
func TestZobristPrefixesMatchTable(t *testing.T) {
	for _, n := range []int{1, 64, 65, 1024, 65, 1} {
		got := graph.Zobrist(n)
		if want := graph.ZobristTable(n); !slices.Equal(got, want) {
			t.Fatalf("Zobrist(%d) differs from ZobristTable(%d)", n, n)
		}
		if cap(got) != n {
			t.Fatalf("Zobrist(%d) has capacity %d; an append would write into the shared table", n, cap(got))
		}
	}
	_ = append(graph.Zobrist(3), 0)
	if got, want := graph.Zobrist(4), graph.ZobristTable(4); !slices.Equal(got, want) {
		t.Fatal("appending to a prefix changed the shared table")
	}
}

// TestDecoderReuseMatchesFresh decodes a sequence into one Decoder — large
// then small, a document the fast path declines and one nobody accepts in
// between — and holds each graph to the reference decoder's, so a stale node,
// shape or successor from an earlier graph would show. Names outlive the
// next Decode.
func TestDecoderReuseMatchesFresh(t *testing.T) {
	big := models.StackedUniformRandWire("ws24x6", 6, models.WSConfig{Nodes: 24, K: 4, P: 0.75, Seed: 7, HW: 16, Channel: 16})
	small := models.StackedRandWire("stacked", 2, models.WSConfig{Nodes: 8, K: 4, P: 0.75, Seed: 3, HW: 8, Channel: 4})
	docs := [][]byte{
		mustJSON(t, big), mustJSON(t, small),
		[]byte(`{"name": "esc\u0041", "nodes": [{"id": 0, "op": "Input", "shape": [1, 2]}]}`), // not canonical
		[]byte(`{"name": "bad", "nodes": [{"id": 0, "op": "Nope", "shape": [1]}]}`),           // rejected
		mustJSON(t, models.SwiftNet()), mustJSON(t, small), mustJSON(t, big),
	}
	var d graph.Decoder
	var names []string
	for i, data := range docs {
		got, err := d.Decode(data)
		want, wantErr := graph.UnmarshalStd(data)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("doc %d: error %v, reference %v", i, err, wantErr)
		}
		if err != nil {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("doc %d: the reused decoder built a different graph", i)
		}
		names = append(names, got.Name, got.Nodes[len(got.Nodes)-1].Name)
	}
	if want := []string{big.Name, big.Nodes[len(big.Nodes)-1].Name}; !slices.Equal(names[:2], want) {
		t.Errorf("names kept from the first graph read %q after later decodes, want %q", names[:2], want)
	}
	// Warm, a decode allocates the names' string and nothing else.
	data := mustJSON(t, big)
	if allocs := testing.AllocsPerRun(20, func() { _, _ = d.Decode(data) }); allocs > 1 {
		t.Errorf("a reused decoder took %.0f allocations, want only the names string", allocs)
	}
}

func mustJSON(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	data, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}
