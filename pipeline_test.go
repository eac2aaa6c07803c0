package serenity

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/serenity-ml/serenity/internal/models"
	"github.com/serenity-ml/serenity/internal/sched"
)

func TestOptionsValidate(t *testing.T) {
	valid := func(mut func(*Options)) Options {
		o := DefaultOptions()
		if mut != nil {
			mut(&o)
		}
		return o
	}
	cases := []struct {
		name    string
		opts    Options
		wantErr string // empty means valid
	}{
		{"defaults", valid(nil), ""},
		{"zero value", Options{}, ""},
		{"explicit exact", valid(func(o *Options) { o.Strategy = StrategyExact }), ""},
		{"greedy", valid(func(o *Options) { o.Strategy = StrategyGreedy }), ""},
		{"best-effort", valid(func(o *Options) { o.Strategy = StrategyBestEffort }), ""},
		{"best-effort without adaptive", Options{Strategy: StrategyBestEffort, StepTimeout: time.Second}, ""},
		{"negative parallelism", valid(func(o *Options) { o.Parallelism = -1 }), "negative Parallelism"},
		{"negative step timeout", valid(func(o *Options) { o.StepTimeout = -time.Second }), "negative StepTimeout"},
		{"step timeout without adaptive", Options{StepTimeout: time.Second}, ""},
		{"negative max states", valid(func(o *Options) { o.MaxStates = -5 }), "negative MaxStates"},
		{"negative memory budget", valid(func(o *Options) { o.MemoryBudget = -1 }), "negative MemoryBudget"},
		{"unknown strategy", valid(func(o *Options) { o.Strategy = "simulated-annealing" }), "unknown strategy"},
	}
	for _, tc := range cases {
		err := tc.opts.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}

	// StepTimeout is a valve on the unbudgeted DP too: a level that exceeds
	// it (SwiftNet A's 21 nodes cannot be searched in a nanosecond) fails the
	// search rather than being rejected up front.
	if _, err := Schedule(SwiftNetCellA(), Options{StepTimeout: time.Nanosecond}); err == nil || !strings.Contains(err.Error(), "ended with timeout") {
		t.Errorf("unbudgeted search under a 1ns StepTimeout: err = %v, want a timeout from the search", err)
	}

	// Invalid options must fail before any scheduling work, from both
	// entry points.
	bad := DefaultOptions()
	bad.Parallelism = -3
	if _, err := Schedule(buildSmallNet(), bad); err == nil {
		t.Error("Schedule accepted negative Parallelism")
	}
	if _, err := NewPipeline(bad); err == nil {
		t.Error("NewPipeline accepted negative Parallelism")
	}
}

func TestParseStrategy(t *testing.T) {
	for in, want := range map[string]Strategy{
		"":            StrategyExact,
		"exact":       StrategyExact,
		"greedy":      StrategyGreedy,
		"best-effort": StrategyBestEffort,
	} {
		got, err := ParseStrategy(in)
		if err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Error("ParseStrategy accepted bogus")
	}
}

// TestGreedyStrategy promotes the heuristic to a first-class strategy: the
// schedule must be valid, honestly tagged heuristic, and report nonzero
// states explored comparable to the DP's accounting.
func TestGreedyStrategy(t *testing.T) {
	g := models.SwiftNetCellB()
	opts := DefaultOptions()
	opts.Strategy = StrategyGreedy
	res, err := Schedule(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	m := sched.NewMemModel(res.Graph)
	if err := m.CheckValid(res.Order); err != nil {
		t.Fatalf("greedy schedule invalid: %v", err)
	}
	if res.Quality != QualityHeuristic {
		t.Errorf("quality = %q, want heuristic", res.Quality)
	}
	if len(res.SegmentQuality) != len(res.PartitionSizes) {
		t.Fatalf("segment qualities %d != segments %d", len(res.SegmentQuality), len(res.PartitionSizes))
	}
	for i, q := range res.SegmentQuality {
		if q != QualityHeuristic {
			t.Errorf("segment %d quality = %q, want heuristic", i, q)
		}
	}
	if res.Fallbacks != 0 {
		t.Errorf("greedy is not a fallback; Fallbacks = %d", res.Fallbacks)
	}
	if res.StatesExplored <= 0 {
		t.Error("greedy reported no states explored; heuristic and DP accounting are not comparable")
	}

	exact, err := Schedule(models.SwiftNetCellB(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Peak < exact.Peak {
		t.Errorf("greedy peak %d below the optimal %d; the exact DP is broken", res.Peak, exact.Peak)
	}
}

// TestGreedyStrategyCancellation: the greedy scan polls the context, so a
// disconnected caller cannot pin a CPU on a large graph.
func TestGreedyStrategyCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := models.StackedRandWire("greedy-cancel", 6, models.WSConfig{
		Nodes: 14, K: 4, P: 0.75, Seed: 21, HW: 8, Channel: 4,
	})
	_, err := GreedyMemory{}.Search(ctx, NewMemModel(g))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// bigStacked is a four-cell stack of 48-node RandWire cells: several
// partition segments, each a real search (tens of milliseconds; it was
// seconds before the DP's safe-move rule).
func bigStacked(name string) *Graph {
	return models.StackedRandWire(name, 4, models.WSConfig{
		Nodes: 48, K: 8, P: 0.9, Seed: 10, HW: 16, Channel: 8,
	})
}

// runPastDeadline runs the best-effort pipeline on g under a deadline the
// exact DP cannot meet by construction rather than by machine speed: an
// Observer parks the pipeline at the search stage's start event until the
// deadline has expired, so every segment's exact attempt begins past it.
// Events are forwarded to observe (may be nil).
func runPastDeadline(t *testing.T, g *Graph, parallelism int, observe func(Event)) (*Result, error) {
	t.Helper()
	opts := DefaultOptions()
	opts.Strategy = StrategyBestEffort
	opts.Parallelism = parallelism
	p, err := NewPipeline(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	p.Observer = ObserverFunc(func(e Event) {
		if e.Kind == EventStageStart && e.Stage == StageSearch {
			<-ctx.Done()
		}
		if observe != nil {
			observe(e)
		}
	})
	return p.Run(ctx, g)
}

// TestBestEffortFallsBackUnderDeadline is the acceptance scenario: a
// deadline far too tight for the exact DP must yield a valid heuristic
// schedule tagged as such — not an error.
func TestBestEffortFallsBackUnderDeadline(t *testing.T) {
	start := time.Now()
	res, err := runPastDeadline(t, bigStacked("be-fallback"), 1, nil)
	if err != nil {
		t.Fatalf("best-effort errored under deadline: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("best-effort took %s; fallback is not prompt", elapsed)
	}
	m := sched.NewMemModel(res.Graph)
	if err := m.CheckValid(res.Order); err != nil {
		t.Fatalf("fallback schedule invalid: %v", err)
	}
	if got := m.MustPeak(res.Order); got != res.Peak {
		t.Errorf("reported peak %d != simulated %d", res.Peak, got)
	}
	if res.Quality != QualityHeuristic {
		t.Errorf("quality = %q, want heuristic", res.Quality)
	}
	if res.Fallbacks == 0 {
		t.Error("no fallbacks recorded despite the impossible deadline")
	}
	for i, q := range res.SegmentQuality {
		if q != QualityOptimal && q != QualityHeuristic {
			t.Errorf("segment %d has untagged quality %q", i, q)
		}
	}
}

// TestBestEffortFallsBackUnderDeadlineParallel drives the same degradation
// through the worker pool: an expired deadline must not void segments that
// completed via fallback.
func TestBestEffortFallsBackUnderDeadlineParallel(t *testing.T) {
	res, err := runPastDeadline(t, bigStacked("be-fallback-par"), 4, nil)
	if err != nil {
		t.Fatalf("parallel best-effort errored under deadline: %v", err)
	}
	if err := sched.NewMemModel(res.Graph).CheckValid(res.Order); err != nil {
		t.Fatalf("fallback schedule invalid: %v", err)
	}
	if res.Fallbacks == 0 {
		t.Error("no fallbacks recorded despite the impossible deadline")
	}
}

// TestBestEffortOptimalWhenFeasible: with room to finish, best-effort is
// indistinguishable from exact.
func TestBestEffortOptimalWhenFeasible(t *testing.T) {
	opts := DefaultOptions()
	opts.StepTimeout = time.Minute
	exact, err := Schedule(models.SwiftNetCellB(), opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Strategy = StrategyBestEffort
	be, err := Schedule(models.SwiftNetCellB(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if be.Quality != QualityOptimal || be.Fallbacks != 0 {
		t.Errorf("feasible best-effort degraded: quality=%q fallbacks=%d", be.Quality, be.Fallbacks)
	}
	if !reflect.DeepEqual(be.Order, exact.Order) || be.Peak != exact.Peak || be.ArenaSize != exact.ArenaSize {
		t.Error("feasible best-effort diverged from the exact strategy")
	}
}

// TestBestEffortCancellationAborts pins the cancel-vs-deadline contract: an
// explicit cancellation means the caller is gone, so the searcher must abort
// rather than burn CPU on a fallback nobody will read.
func TestBestEffortCancellationAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := NewMemModel(models.SwiftNetCellB())
	_, err := BestEffort{}.Search(ctx, m)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestObserverSeesEveryStage: the Observer hook receives bracketed events
// for each enabled stage, per-segment search events, and the Result carries
// the same timings.
func TestObserverSeesEveryStage(t *testing.T) {
	var events []Event
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p.Observer = ObserverFunc(func(e Event) { events = append(events, e) })
	res, err := p.Run(context.Background(), SwiftNet())
	if err != nil {
		t.Fatal(err)
	}

	type key struct {
		kind  EventKind
		stage Stage
	}
	counts := map[key]int{}
	segStarts, segDones := map[int]bool{}, map[int]bool{}
	for _, e := range events {
		counts[key{e.Kind, e.Stage}]++
		switch e.Kind {
		case EventSegmentStart:
			segStarts[e.Segment] = true
		case EventSegmentDone:
			segDones[e.Segment] = true
			if e.Quality != QualityOptimal {
				t.Errorf("segment %d done with quality %q", e.Segment, e.Quality)
			}
			if e.States <= 0 {
				t.Errorf("segment %d done with no states", e.Segment)
			}
		}
	}
	for _, st := range []Stage{StageRewrite, StagePartition, StageSearch, StageAlloc} {
		if counts[key{EventStageStart, st}] != 1 || counts[key{EventStageDone, st}] != 1 {
			t.Errorf("stage %s events: %d starts, %d dones; want 1 and 1",
				st, counts[key{EventStageStart, st}], counts[key{EventStageDone, st}])
		}
	}
	for i := range res.PartitionSizes {
		if !segStarts[i] || !segDones[i] {
			t.Errorf("segment %d missing start/done events", i)
		}
	}
	if res.Stages.Search <= 0 {
		t.Error("Result.Stages.Search not populated")
	}
	if res.Stages.Alloc <= 0 {
		t.Error("Result.Stages.Alloc not populated")
	}
	if res.SchedulingTime < res.Stages.Search {
		t.Error("stage timings exceed end-to-end time")
	}
}

// TestObserverFallbackEvent: degraded segments emit EventFallback with the
// reason attached.
func TestObserverFallbackEvent(t *testing.T) {
	var fallbacks []Event
	res, err := runPastDeadline(t, bigStacked("be-observe"), 1, func(e Event) {
		if e.Kind == EventFallback {
			fallbacks = append(fallbacks, e)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fallbacks) != res.Fallbacks {
		t.Errorf("observed %d fallback events, Result says %d", len(fallbacks), res.Fallbacks)
	}
	if res.Fallbacks == 0 {
		t.Fatal("expected at least one fallback past the deadline")
	}
	for _, e := range fallbacks {
		if e.Err == nil {
			t.Error("fallback event carries no reason")
		}
	}
}

// TestAllocatorSwappable: the bump allocator is a valid but space-hungrier
// strategy; swapping it in changes only the arena planning.
func TestAllocatorSwappable(t *testing.T) {
	g := models.SwiftNetCellB()
	best, err := Schedule(g, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	p.Allocator = ArenaBump{}
	bump, err := p.Run(context.Background(), models.SwiftNetCellB())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bump.Order, best.Order) || bump.Peak != best.Peak {
		t.Error("allocator choice changed the schedule")
	}
	if bump.ArenaSize < best.ArenaSize {
		t.Errorf("bump arena %d smaller than best-fit %d", bump.ArenaSize, best.ArenaSize)
	}
	if bump.ArenaSize < bump.Peak {
		t.Errorf("bump arena %d below the ideal peak %d", bump.ArenaSize, bump.Peak)
	}
}

// TestBudgetExceededPartialResult covers the ErrBudgetExceeded contract:
// errors.As matches, and the partial Result still carries the full schedule
// so callers can inspect how far over budget the graph is.
func TestBudgetExceededPartialResult(t *testing.T) {
	g := buildSmallNet()
	opts := DefaultOptions()
	opts.MemoryBudget = 1
	res, err := Schedule(g, opts)
	var be *ErrBudgetExceeded
	if !errors.As(err, &be) {
		t.Fatalf("errors.As failed: %v", err)
	}
	if res == nil {
		t.Fatal("no partial result alongside ErrBudgetExceeded")
	}
	if len(res.Order) == 0 || res.Peak <= 0 || res.ArenaSize <= 0 {
		t.Errorf("partial result unpopulated: order=%d peak=%d arena=%d", len(res.Order), res.Peak, res.ArenaSize)
	}
	if be.Required != res.ArenaSize {
		t.Errorf("error reports %d required, result says %d", be.Required, res.ArenaSize)
	}
	if res.Quality != QualityOptimal {
		t.Errorf("over-budget optimal schedule tagged %q", res.Quality)
	}
}
