package memsim

import (
	"math/rand"
	"testing"

	"github.com/serenity-ml/serenity/internal/graph"
	"github.com/serenity-ml/serenity/internal/sched"
)

func bytesShape(b int64) graph.Shape { return graph.Shape{int(b / 4)} }

func chain() (*sched.MemModel, sched.Schedule) {
	g := graph.New("chain")
	a := g.AddNode(graph.OpInput, "in", bytesShape(100))
	b := g.AddNode(graph.OpReLU, "r1", bytesShape(100), a)
	g.AddNode(graph.OpReLU, "r2", bytesShape(100), b)
	return sched.NewMemModel(g), sched.Schedule{0, 1, 2}
}

func TestZeroTrafficWhenEverythingFits(t *testing.T) {
	m, order := chain()
	tr, err := Simulate(m, order, Config{OnChipBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Total() != 0 {
		t.Errorf("traffic = %+v, want zero", tr)
	}
}

func TestBypassWhenTensorLargerThanSRAM(t *testing.T) {
	m, order := chain()
	tr, err := Simulate(m, order, Config{OnChipBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Every tensor (100B) exceeds 64B SRAM: each touch streams 100B.
	// Touches: write in, read in + write r1, read r1 + write r2 = 5.
	if tr.BypassBytes != 500 {
		t.Errorf("bypass = %d, want 500 (traffic %+v)", tr.BypassBytes, tr)
	}
}

// spillGraph forces a capacity conflict: tensor A is used early and late,
// with a bulky middle section that exceeds SRAM when A stays resident.
func spillGraph() (*sched.MemModel, sched.Schedule) {
	g := graph.New("spill")
	a := g.AddNode(graph.OpInput, "A", bytesShape(100))
	b := g.AddNode(graph.OpReLU, "B", bytesShape(100), a)
	c := g.AddNode(graph.OpReLU, "C", bytesShape(100), b)
	d := g.AddNode(graph.OpReLU, "D", bytesShape(100), c)
	g.AddNode(graph.OpAdd, "E", bytesShape(100), d, a)
	return sched.NewMemModel(g), sched.Schedule{a, b, c, d, 4}
}

func TestSpillAndRefill(t *testing.T) {
	m, order := spillGraph()
	// SRAM of 150B: A cannot coexist with the 100B working tensors, so it
	// is spilled (dirty) and refetched for E.
	tr, err := Simulate(m, order, Config{OnChipBytes: 150})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Total() == 0 {
		t.Fatal("expected spill traffic")
	}
	// A is dirty (written on-chip), spilled once (100B writeback) and
	// refetched once for E (100B fetch).
	if tr.WritebackBytes != 100 || tr.FetchBytes != 100 {
		t.Errorf("traffic = %+v, want 100/100", tr)
	}
}

// uniformDAG yields a DAG whose tensors all have the same size; Belady's
// farthest-in-future rule is provably optimal (and monotone in capacity)
// only in this uniform-block regime.
func uniformDAG(rng *rand.Rand, nodes int) *sched.MemModel {
	g := graph.RandomDAG(rng, graph.RandomDAGConfig{
		Nodes: nodes, EdgeProb: 0.2, MinBytes: 256, MaxBytes: 256,
	})
	return sched.NewMemModel(g)
}

func TestBeladyNeverWorseThanLRUOnUniformTensors(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		m := uniformDAG(rng, 22)
		order := sched.RandomTopo(m.G, rng)
		for _, cap := range []int64{256, 1024, 4096} {
			bel, err := Simulate(m, order, Config{OnChipBytes: cap, Policy: Belady})
			if err != nil {
				t.Fatal(err)
			}
			lru, err := Simulate(m, order, Config{OnChipBytes: cap, Policy: LRU})
			if err != nil {
				t.Fatal(err)
			}
			if bel.Misses > lru.Misses {
				t.Fatalf("trial %d cap %d: belady misses %d > lru %d", trial, cap, bel.Misses, lru.Misses)
			}
		}
	}
}

func TestMissesMonotoneInCapacityOnUniformTensors(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		m := uniformDAG(rng, 20)
		order := sched.RandomTopo(m.G, rng)
		prev := int(^uint(0) >> 1)
		for _, cap := range []int64{512, 1024, 2048, 4096, 1 << 20} {
			tr, err := Simulate(m, order, Config{OnChipBytes: cap})
			if err != nil {
				t.Fatal(err)
			}
			if tr.Misses > prev {
				t.Fatalf("trial %d: misses grew with capacity (%d -> %d at %d)",
					trial, prev, tr.Misses, cap)
			}
			prev = tr.Misses
		}
		// And ample capacity means zero traffic outright.
		tr, _ := Simulate(m, order, Config{OnChipBytes: m.G.TotalActivationBytes()})
		if tr.Total() != 0 {
			t.Fatalf("trial %d: traffic %d with ample capacity", trial, tr.Total())
		}
	}
}

func TestLowerPeakScheduleLowersTraffic(t *testing.T) {
	// The paper's Figure 11 premise: a schedule with a lower footprint
	// spills less at a given SRAM size. Construct a graph where order
	// matters: wide fan-out consumed pairwise.
	g := graph.New("wide")
	in := g.AddNode(graph.OpInput, "in", bytesShape(64))
	var mids []int
	for i := 0; i < 6; i++ {
		mids = append(mids, g.AddNode(graph.OpReLU, "", bytesShape(256), in))
	}
	var outs []int
	for i := 0; i < 6; i++ {
		outs = append(outs, g.AddNode(graph.OpReLU, "", bytesShape(32), mids[i]))
	}
	g.AddNode(graph.OpAdd, "sink", bytesShape(32), outs...)
	for _, n := range g.Nodes {
		if n.Name == "" {
			n.Name = n.Op.String()
		}
	}
	m := sched.NewMemModel(g)

	// Bad order: all mids first (peak ~6*256); good: mid_i, out_i pairs.
	bad := sched.Schedule{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
	good := sched.Schedule{0, 1, 7, 2, 8, 3, 9, 4, 10, 5, 11, 6, 12, 13}
	if err := m.CheckValid(bad); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckValid(good); err != nil {
		t.Fatal(err)
	}
	cfg := Config{OnChipBytes: 640}
	trBad, _ := Simulate(m, bad, cfg)
	trGood, _ := Simulate(m, good, cfg)
	if trGood.Total() >= trBad.Total() {
		t.Errorf("good order traffic %d !< bad order %d", trGood.Total(), trBad.Total())
	}
	if trGood.Total() != 0 {
		t.Errorf("good order should fit on-chip entirely, traffic %+v", trGood)
	}
}

func TestSimulateRejectsBadInput(t *testing.T) {
	m, order := chain()
	if _, err := Simulate(m, order, Config{OnChipBytes: 0}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := Simulate(m, sched.Schedule{0}, Config{OnChipBytes: 100}); err == nil {
		t.Error("invalid order accepted")
	}
}

func TestPolicyString(t *testing.T) {
	if Belady.String() != "belady" || LRU.String() != "lru" {
		t.Error("policy names")
	}
}
