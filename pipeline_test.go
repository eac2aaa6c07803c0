package serenity

import (
	"context"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/serenity-ml/serenity/internal/dp"
	"github.com/serenity-ml/serenity/internal/models"
	"github.com/serenity-ml/serenity/internal/sched"
	"github.com/serenity-ml/serenity/internal/trace"
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

// hookSearcher runs before ahead of every Search of the Searcher it wraps:
// a deterministic "a search is starting now" point where a test parks or
// cancels a compilation. It delegates MemoKey, so memoized runs stay
// memoized.
type hookSearcher struct {
	Searcher
	before func()
}

func (h hookSearcher) Search(ctx context.Context, m *MemModel) (SearchResult, error) {
	h.before()
	return h.Searcher.Search(ctx, m)
}

func (h hookSearcher) MemoKey() string {
	if mk, ok := h.Searcher.(MemoKeyer); ok {
		return mk.MemoKey()
	}
	return ""
}

// traced returns a context carrying a fresh trace's root span, and a func
// that ends the trace and returns every span recorded under it.
func traced(t *testing.T) (context.Context, func() []trace.Span) {
	tr := trace.New(trace.Options{})
	root := tr.StartTrace("run")
	return trace.ContextWith(context.Background(), root), func() []trace.Span {
		td := tr.Finish(root, trace.Outcome{Force: true})
		if td.Dropped > 0 {
			t.Fatalf("trace dropped %d spans", td.Dropped)
		}
		return td.Spans
	}
}

// spansNamed returns the attributes of every span called name.
func spansNamed(spans []trace.Span, name string) []map[string]string {
	var out []map[string]string
	for _, sp := range spans {
		if sp.Name != name {
			continue
		}
		attrs := map[string]string{}
		for _, a := range sp.Attrs {
			attrs[a.Key] = a.Value
		}
		out = append(out, attrs)
	}
	return out
}

// runPastDeadline runs the best-effort pipeline on g under a deadline the
// exact DP cannot meet by construction rather than by machine speed: a
// hookSearcher parks every search until the deadline, derived from ctx, has
// expired, so every segment's exact attempt begins past it.
func runPastDeadline(ctx context.Context, t *testing.T, g *Graph, parallelism int) (*Result, error) {
	t.Helper()
	opts := DefaultOptions()
	opts.Strategy = StrategyBestEffort
	opts.Parallelism = parallelism
	p, err := NewPipeline(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancel()
	p.Searcher = hookSearcher{p.Searcher, func() { <-ctx.Done() }}
	return p.Run(ctx, g)
}

// TestBestEffortFallsBackUnderDeadline is the acceptance scenario: a
// deadline far too tight for the exact DP must yield a valid heuristic
// schedule tagged as such — not an error.
func TestBestEffortFallsBackUnderDeadline(t *testing.T) {
	start := time.Now()
	res, err := runPastDeadline(context.Background(), t, bigStacked("be-fallback"), 1)
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
	res, err := runPastDeadline(context.Background(), t, bigStacked("be-fallback-par"), 4)
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

// TestDefaultOptionsCarryValves: every valve's zero value means unlimited, so
// the paper's T = 1s and the 4Mi-state frontier are explicit defaults, and
// the searcher an Options derives carries exactly what it was given.
func TestDefaultOptionsCarryValves(t *testing.T) {
	d := DefaultOptions()
	if d.StepTimeout != time.Second || d.MaxStates != 4<<20 {
		t.Errorf("DefaultOptions valves: StepTimeout %s, MaxStates %d; want 1s and 4Mi", d.StepTimeout, d.MaxStates)
	}
	if want := (ExactDP{AdaptiveBudget: true, StepTimeout: time.Second, MaxStates: 4 << 20}); !reflect.DeepEqual(d.searcher(), want) {
		t.Errorf("DefaultOptions searcher %+v, want %+v", d.searcher(), want)
	}
	var zero Options
	if zero.StepTimeout != 0 || zero.MaxStates != 0 || !reflect.DeepEqual(zero.searcher(), ExactDP{}) {
		t.Errorf("Options{} carries a valve: %+v, searcher %+v", zero, zero.searcher())
	}
}

// TestBestEffortValveFallbackStates pins what a valve-forced degradation
// reports: the greedy order the cap computed, StatesExplored = greedy's
// evaluations plus the DP states burned before the valve fired, the DP's
// PeakBytes, and a reason naming the valve.
func TestBestEffortValveFallbackStates(t *testing.T) {
	m := NewMemModel(RandWireCell("rw-valve", 48, 8, 0.9, 10, 16, 8))
	gr, err := sched.GreedyMemoryRun(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		exact  ExactDP
		reason error
		states int64
	}{
		{"max-states", ExactDP{MaxStates: 8}, ErrSearchLimit, 468},
		{"mem-limit", ExactDP{MemLimit: dp.FrontierStateBytes(m.G.NumNodes()) * 16}, ErrMemoryPressure, 422},
	} {
		sr, err := BestEffort{Exact: tc.exact}.Search(context.Background(), m)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		c, err := dp.Cap(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		r := dp.Schedule(m, dp.Options{Budget: c.Tau, MaxStates: tc.exact.MaxStates, MemLimit: tc.exact.MemLimit})
		if r.Flag == dp.FlagSolution || r.StatesExplored == 0 {
			t.Fatalf("%s: the valve let the DP finish (%v, %d states)", tc.name, r.Flag, r.StatesExplored)
		}
		if !sr.FellBack || sr.Quality != QualityHeuristic || !errors.Is(sr.FallbackReason, tc.reason) {
			t.Errorf("%s: fell back %t, quality %q, reason %v; want a heuristic fallback wrapping %v",
				tc.name, sr.FellBack, sr.Quality, sr.FallbackReason, tc.reason)
		}
		if !reflect.DeepEqual(sr.Order, gr.Order) || sr.PeakBytes != r.PeakBytes || sr.MaxFrontier != 0 {
			t.Errorf("%s: fallback is not the greedy order with the DP's bytes: %+v", tc.name, sr)
		}
		if sr.StatesExplored != gr.StatesExplored+r.StatesExplored || sr.StatesExplored != tc.states {
			t.Errorf("%s: %d states, want greedy %d + DP %d, pinned at %d",
				tc.name, sr.StatesExplored, gr.StatesExplored, r.StatesExplored, tc.states)
		}
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

// TestSpansCoverEveryStage: a traced run opens exactly one stage.* span per
// enabled stage and none for a disabled one, one segment span and one
// dp.search span per segment, and the Result carries the stage timings.
func TestSpansCoverEveryStage(t *testing.T) {
	stageSpans := func(spans []trace.Span) map[string]int {
		counts := map[string]int{}
		for _, sp := range spans {
			if name, ok := strings.CutPrefix(sp.Name, "stage."); ok {
				counts[name]++
			}
		}
		return counts
	}

	p, err := NewPipeline(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ctx, finish := traced(t)
	res, err := p.Run(ctx, SwiftNet())
	if err != nil {
		t.Fatal(err)
	}
	spans := finish()
	want := map[string]int{"rewrite": 1, "partition": 1, "search": 1, "alloc": 1}
	if got := stageSpans(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("stage spans %v, want %v", got, want)
	}
	if n := len(spansNamed(spans, "segment")); n != len(res.PartitionSizes) {
		t.Errorf("%d segment spans for %d segments", n, len(res.PartitionSizes))
	}
	searches := spansNamed(spans, "dp.search")
	if len(searches) != len(res.PartitionSizes) {
		t.Errorf("%d dp.search spans for %d segments", len(searches), len(res.PartitionSizes))
	}
	for i, a := range searches {
		if a["quality"] != string(QualityOptimal) {
			t.Errorf("dp.search %d ended with quality %q", i, a["quality"])
		}
		if a["states"] == "" || a["states"] == "0" {
			t.Errorf("dp.search %d explored no states", i)
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

	// Disabled stages open no span and report zero time.
	opts := DefaultOptions()
	opts.Rewrite, opts.Partition = false, false
	bare, err := NewPipeline(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx, finish = traced(t)
	res, err = bare.Run(ctx, SwiftNetCellA())
	if err != nil {
		t.Fatal(err)
	}
	want = map[string]int{"search": 1, "alloc": 1}
	if got := stageSpans(finish()); !reflect.DeepEqual(got, want) {
		t.Errorf("rewrite and partition off: stage spans %v, want %v", got, want)
	}
	if res.Stages.Rewrite != 0 || res.Stages.Partition != 0 {
		t.Errorf("disabled stages timed: %+v", res.Stages)
	}
}

// TestFallbackSpansCarryReason: every degraded segment's dp.search span says
// fell_back=true with the reason attached, one per Result.Fallbacks, and no
// exact search carries a reason.
func TestFallbackSpansCarryReason(t *testing.T) {
	ctx, finish := traced(t)
	res, err := runPastDeadline(ctx, t, bigStacked("be-spans"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallbacks == 0 {
		t.Fatal("expected at least one fallback past the deadline")
	}
	fell := 0
	for _, a := range spansNamed(finish(), "dp.search") {
		if a["fell_back"] != "true" {
			if r, ok := a["fallback_reason"]; ok {
				t.Errorf("exact search carries fallback_reason %q", r)
			}
			continue
		}
		fell++
		if a["fallback_reason"] == "" {
			t.Error("fallen-back dp.search span carries no fallback_reason")
		}
	}
	if fell != res.Fallbacks {
		t.Errorf("%d dp.search spans fell back, Result says %d", fell, res.Fallbacks)
	}
}

// TestSegmentDoneCarriesTierAndFingerprint pins what a traced run's segment
// spans report: every one carries its memo key, a fresh compilation reads
// memo_tier "fresh", and an identical re-run through the same memo reads
// "memory" under the same keys.
func TestSegmentDoneCarriesTierAndFingerprint(t *testing.T) {
	memo := NewSegmentMemo(128)
	run := func(wantTier string) []string {
		opts := DefaultOptions()
		opts.Parallelism = 4
		p, err := NewPipeline(opts)
		if err != nil {
			t.Fatal(err)
		}
		p.SegmentMemo = memo
		ctx, finish := traced(t)
		res, err := p.Run(ctx, RandWireCell("rw-segment-tier", 48, 4, 0.75, 11, 16, 8))
		if err != nil {
			t.Fatal(err)
		}
		keys := make([]string, len(res.PartitionSizes))
		segs := spansNamed(finish(), "segment")
		if len(segs) != len(keys) {
			t.Fatalf("%d segment spans for %d segments", len(segs), len(keys))
		}
		for _, a := range segs {
			idx, err := strconv.Atoi(a["index"])
			if err != nil || idx < 0 || idx >= len(keys) {
				t.Fatalf("segment span index %q", a["index"])
			}
			if a["memo_key"] == "" {
				t.Errorf("segment %d span without a memo_key", idx)
			}
			if a["memo_tier"] != wantTier {
				t.Errorf("segment %d answered by %q, want %q", idx, a["memo_tier"], wantTier)
			}
			keys[idx] = a["memo_key"]
		}
		return keys
	}
	cold := run("fresh")
	if len(cold) < 2 {
		t.Fatalf("%d segments; the test needs several", len(cold))
	}
	if warm := run("memory"); !reflect.DeepEqual(warm, cold) {
		t.Errorf("memo keys moved between runs:\ncold %v\nwarm %v", cold, warm)
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
