package dp_test

import (
	"slices"
	"testing"

	"github.com/serenity-ml/serenity/internal/dp"
	"github.com/serenity-ml/serenity/internal/sched"
)

// assertShimMatches holds the AdaptiveSchedule shim benchmark/replay.go still
// calls to production's search: it must return, field for field (all but the
// wall-clock Elapsed), the run dp.Cap + dp.ScheduleCtx returned, so the replay
// keeps measuring what serenityd runs.
func assertShimMatches(t *testing.T, name string, m *sched.MemModel, want *dp.Result) {
	t.Helper()
	got, err := dp.AdaptiveSchedule(m, dp.AdaptiveOptions{})
	if err != nil {
		t.Fatalf("%s/shim: %v", name, err)
	}
	fields := func(r *dp.Result) [7]int64 {
		return [7]int64{int64(r.Flag), r.Peak, r.StatesExplored, r.StatesPruned, r.StatesForced, int64(r.MaxFrontier), r.PeakBytes}
	}
	if fields(got) != fields(want) || !slices.Equal(got.Order, want.Order) {
		t.Fatalf("%s/shim: (flag, peak, explored, pruned, forced, frontier, bytes) %v order %v\nthe capped search's %v order %v",
			name, fields(got), got.Order, fields(want), want.Order)
	}
}
