package dp

import (
	"math/rand"
	"testing"
	"time"

	"github.com/serenity-ml/serenity/internal/graph"
	"github.com/serenity-ml/serenity/internal/sched"
)

func bytesShape(b int64) graph.Shape { return graph.Shape{int(b / 4)} }

// paperExample builds the running example of Figures 5/6/8: a single
// source A fanning out to parallel branches that reconverge. Sizes are
// chosen so branch interleaving matters.
func paperExample() *graph.Graph {
	g := graph.New("paper")
	a := g.AddNode(graph.OpInput, "A", bytesShape(8))
	b := g.AddNode(graph.OpReLU, "B", bytesShape(24), a)
	c := g.AddNode(graph.OpReLU, "C", bytesShape(24), a)
	j := g.AddNode(graph.OpReLU, "J", bytesShape(24), a)
	d := g.AddNode(graph.OpReLU, "D", bytesShape(24), b)
	e := g.AddNode(graph.OpReLU, "E", bytesShape(24), c)
	f := g.AddNode(graph.OpReLU, "F", bytesShape(24), c)
	h := g.AddNode(graph.OpReLU, "H", bytesShape(12), d, e)
	i := g.AddNode(graph.OpReLU, "I", bytesShape(12), f)
	k := g.AddNode(graph.OpAdd, "K", bytesShape(12), h, i)
	g.AddNode(graph.OpAdd, "L", bytesShape(4), k, j)
	return g
}

func TestOptimalMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		g := graph.RandomDAG(rng, graph.RandomDAGConfig{Nodes: 11, EdgeProb: 0.25})
		m := sched.NewMemModel(g)
		_, want, err := sched.BruteForce(m)
		if err != nil {
			t.Fatal(err)
		}
		r := Optimal(m)
		if r.Flag != FlagSolution {
			t.Fatalf("trial %d: flag %v", trial, r.Flag)
		}
		if err := m.CheckValid(r.Order); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if got := m.MustPeak(r.Order); got != r.Peak {
			t.Fatalf("trial %d: reported peak %d != simulated %d", trial, r.Peak, got)
		}
		if r.Peak != want {
			t.Fatalf("trial %d: DP peak %d != brute force %d", trial, r.Peak, want)
		}
	}
}

func TestOptimalOnPaperExample(t *testing.T) {
	g := paperExample()
	m := sched.NewMemModel(g)
	r := Optimal(m)
	if r.Flag != FlagSolution {
		t.Fatalf("flag %v", r.Flag)
	}
	_, want, err := sched.BruteForce(m)
	if err != nil {
		t.Fatal(err)
	}
	if r.Peak != want {
		t.Errorf("DP peak %d != optimal %d", r.Peak, want)
	}
	// And it must beat or match every baseline.
	for _, base := range [](func(*graph.Graph) (sched.Schedule, error)){
		sched.KahnFIFO, sched.DFSEmission, sched.MinIDOrder,
	} {
		o, _ := base(g)
		if bp := m.MustPeak(o); bp < r.Peak {
			t.Errorf("baseline peak %d beats DP %d", bp, r.Peak)
		}
	}
}

func TestScheduleEmptyGraph(t *testing.T) {
	m := sched.NewMemModel(graph.New("empty"))
	r := Optimal(m)
	if r.Flag != FlagSolution || len(r.Order) != 0 {
		t.Fatalf("empty graph: %+v", r)
	}
}

func TestBudgetPruning(t *testing.T) {
	g := paperExample()
	m := sched.NewMemModel(g)
	opt := Optimal(m)

	// Budget exactly at the optimum: still finds the optimal schedule.
	r := Schedule(m, Options{Budget: opt.Peak})
	if r.Flag != FlagSolution || r.Peak != opt.Peak {
		t.Fatalf("budget=optimum: flag %v peak %d (want %d)", r.Flag, r.Peak, opt.Peak)
	}
	if r.StatesExplored > opt.StatesExplored {
		t.Errorf("budget pruning explored more states (%d) than unbudgeted (%d)",
			r.StatesExplored, opt.StatesExplored)
	}

	// Budget below the optimum: no solution (Figure 8(b) left region).
	r = Schedule(m, Options{Budget: opt.Peak - 1})
	if r.Flag != FlagNoSolution {
		t.Fatalf("budget<optimum: flag %v, want no solution", r.Flag)
	}

	// Generous budget: solution, but more states explored than tight budget.
	loose := Schedule(m, Options{Budget: opt.Peak * 4})
	if loose.Flag != FlagSolution || loose.Peak != opt.Peak {
		t.Fatalf("loose budget: flag %v peak %d", loose.Flag, loose.Peak)
	}
}

func TestBudgetMonotonicity(t *testing.T) {
	// Number of explored schedules grows monotonically with τ (the property
	// Figure 8(b) relies on for binary search).
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		g := graph.RandomDAG(rng, graph.RandomDAGConfig{Nodes: 12, EdgeProb: 0.2})
		m := sched.NewMemModel(g)
		opt := Optimal(m)
		prev := int64(-1)
		for _, mult := range []float64{1.0, 1.25, 1.5, 2.0, 4.0} {
			r := Schedule(m, Options{Budget: int64(float64(opt.Peak) * mult)})
			if r.Flag != FlagSolution {
				t.Fatalf("trial %d mult %v: flag %v", trial, mult, r.Flag)
			}
			if r.StatesExplored < prev {
				t.Fatalf("trial %d: states decreased with larger budget (%d -> %d)",
					trial, prev, r.StatesExplored)
			}
			prev = r.StatesExplored
		}
	}
}

func TestStepTimeout(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Wide random DAG with tiny timeout must report timeout, not hang.
	g := graph.RandomDAG(rng, graph.RandomDAGConfig{Nodes: 60, EdgeProb: 0.05, MaxFanIn: 2})
	m := sched.NewMemModel(g)
	r := Schedule(m, Options{StepTimeout: time.Nanosecond})
	if r.Flag != FlagTimeout {
		t.Fatalf("flag %v, want timeout", r.Flag)
	}
}

func TestMaxStatesValve(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.RandomDAG(rng, graph.RandomDAGConfig{Nodes: 40, EdgeProb: 0.04, MaxFanIn: 2})
	m := sched.NewMemModel(g)
	r := Schedule(m, Options{MaxStates: 8})
	if r.Flag != FlagTimeout {
		t.Fatalf("flag %v, want timeout from MaxStates", r.Flag)
	}
}

func TestFlagString(t *testing.T) {
	if FlagSolution.String() != "solution" ||
		FlagNoSolution.String() != "no solution" ||
		FlagTimeout.String() != "timeout" {
		t.Error("flag strings diverge from the paper's vocabulary")
	}
}

func TestAdaptiveScheduleFindsOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		g := graph.RandomDAG(rng, graph.RandomDAGConfig{Nodes: 12, EdgeProb: 0.25})
		m := sched.NewMemModel(g)
		_, want, err := sched.BruteForce(m)
		if err != nil {
			t.Fatal(err)
		}
		ar, err := AdaptiveSchedule(m, AdaptiveOptions{StepTimeout: time.Second})
		if err != nil {
			t.Fatal(err)
		}
		if ar.Flag != FlagSolution {
			t.Fatalf("trial %d: %v", trial, ar.Flag)
		}
		if ar.Peak != want {
			t.Fatalf("trial %d: adaptive peak %d != optimal %d", trial, ar.Peak, want)
		}
		if ar.HardBudget < ar.Peak {
			t.Fatalf("trial %d: hard budget %d below optimal peak %d", trial, ar.HardBudget, ar.Peak)
		}
		// The searched budget is a heuristic's peak: never below the optimum,
		// never above Kahn's.
		if ar.BudgetCap < ar.Peak || ar.BudgetCap > ar.HardBudget {
			t.Fatalf("trial %d: budget %d outside [peak %d, Kahn %d]", trial, ar.BudgetCap, ar.Peak, ar.HardBudget)
		}
	}
}

// TestDPNeverWorseThanSampledSchedules is the paper's core claim as a
// property test: the DP peak lower-bounds every topological order.
func TestDPNeverWorseThanSampledSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 20; trial++ {
		g := graph.RandomDAG(rng, graph.RandomDAGConfig{Nodes: 14, EdgeProb: 0.2})
		m := sched.NewMemModel(g)
		r := Optimal(m)
		for s := 0; s < 40; s++ {
			p := m.MustPeak(sched.RandomTopo(g, rng))
			if p < r.Peak {
				t.Fatalf("trial %d: sampled %d < DP %d", trial, p, r.Peak)
			}
		}
	}
}
