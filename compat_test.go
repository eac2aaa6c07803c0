package serenity

import (
	"context"
	"reflect"
	"testing"
	"time"

	"github.com/serenity-ml/serenity/internal/models"
)

// compatGolden pins the outputs of Schedule with DefaultOptions (StepTimeout
// raised to a minute so the valve cannot fail a search on a slow machine) on
// the paper's nine-cell model suite. Peaks and arena sizes are the ones
// captured from the monolithic ScheduleContext immediately before the
// Searcher/Allocator redesign; the orders were re-captured twice: when peak
// ties started breaking on the node id and the exact order became a pure
// function of the segment (the canonical order internal/dp's suite pins), and
// when the DP's safe-move rule moved that canonical order (never the peak).
var compatGolden = []struct {
	name      string
	cell      int // index into models.BenchmarkCells()
	peak      int64
	arenaSize int64
	order     []int
}{
	{"DARTS/Normal", 0, 903168, 903168, []int{1, 3, 6, 7, 0, 2, 4, 5, 8, 21, 22, 19, 18, 20, 25, 16, 9, 10, 11, 12, 13, 23, 14, 15, 17, 24, 26}},
	{"SwiftNet/CellA", 1, 123904, 123904, []int{0, 26, 25, 30, 24, 29, 23, 28, 22, 27, 31, 16, 15, 20, 14, 19, 13, 18, 12, 17, 21, 6, 5, 10, 4, 9, 3, 8, 2, 7, 11, 1, 32}},
	{"SwiftNet/CellB", 2, 30976, 30976, []int{0, 13, 12, 16, 11, 15, 10, 14, 17, 27, 5, 4, 8, 3, 7, 2, 6, 9, 26, 21, 20, 24, 19, 23, 18, 22, 25, 1, 28}},
	{"SwiftNet/CellC", 3, 7328, 7328, []int{0, 15, 14, 18, 13, 17, 12, 16, 19, 6, 5, 10, 4, 9, 3, 8, 2, 7, 11, 1, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29}},
	{"RandWire/C10-A", 4, 983040, 983040, []int{0, 1, 19, 2, 31, 32, 6, 9, 12, 14, 15, 3, 4, 5, 21, 13, 24, 25, 26, 33, 16, 17, 18, 34, 7, 8, 35, 36, 37, 20, 22, 23, 27, 28, 38, 39, 47, 48, 46, 49, 44, 45, 50, 10, 11, 29, 30, 40, 41, 42, 43, 51, 52}},
	{"RandWire/C10-B", 5, 458752, 458752, []int{0, 1, 18, 17, 16, 2, 3, 5, 7, 4, 6, 8, 9, 10, 11, 12, 13, 23, 24, 25, 26, 27, 28, 29, 30, 33, 31, 32, 38, 39, 42, 20, 43, 44, 40, 41, 45, 46, 47, 48, 49, 50, 51, 34, 14, 15, 19, 21, 22, 35, 36, 37, 52, 53}},
	{"RandWire/C100-A", 6, 983040, 983040, []int{0, 1, 6, 9, 2, 4, 20, 5, 7, 8, 21, 14, 3, 17, 18, 19, 22, 23, 24, 13, 11, 12, 10, 15, 16, 25, 26, 27, 37, 38, 48, 49, 50, 51, 39, 28, 31, 32, 35, 29, 30, 36, 40, 41, 44, 33, 34, 42, 43, 45, 46, 47, 52, 53}},
	{"RandWire/C100-B", 7, 491520, 491520, []int{0, 1, 9, 10, 5, 3, 4, 18, 6, 19, 2, 11, 13, 8, 14, 15, 22, 25, 30, 31, 7, 23, 24, 26, 27, 45, 20, 21, 46, 28, 16, 17, 29, 32, 33, 39, 40, 36, 12, 37, 38, 34, 35, 41, 42, 43, 44, 47, 48, 49, 50, 51, 52}},
	{"RandWire/C100-C", 8, 229376, 229376, []int{0, 1, 6, 3, 7, 8, 13, 9, 12, 14, 15, 16, 17, 18, 19, 20, 21, 23, 24, 4, 27, 28, 10, 5, 33, 34, 11, 35, 36, 37, 38, 29, 2, 41, 42, 43, 44, 22, 47, 48, 49, 50, 25, 26, 39, 40, 30, 31, 32, 45, 46, 51, 52}},
}

func compatOptions() Options {
	opts := DefaultOptions()
	opts.StepTimeout = time.Minute
	return opts
}

// TestExactDPMatchesPreRedesignSchedule is the API-redesign compatibility
// contract: the ExactDP strategy — reached through both the Schedule wrapper
// and an explicitly assembled Pipeline — produces bit-identical Order, Peak,
// and ArenaSize to the pre-redesign monolithic Schedule on the nine-cell
// model suite (golden values captured before the refactor).
func TestExactDPMatchesPreRedesignSchedule(t *testing.T) {
	cells := models.BenchmarkCells()
	for _, tc := range compatGolden {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()

			// Through the compatibility wrapper.
			res, err := Schedule(cells[tc.cell].Build(), compatOptions())
			if err != nil {
				t.Fatal(err)
			}
			checkCompat(t, "Schedule", res, tc.peak, tc.arenaSize, tc.order)

			// Through an explicitly assembled Pipeline with the ExactDP
			// strategy spelled out.
			p := &Pipeline{
				Searcher:  ExactDP{AdaptiveBudget: true, StepTimeout: time.Minute},
				Rewrite:   true,
				Partition: true,
			}
			pres, err := p.Run(context.Background(), cells[tc.cell].Build())
			if err != nil {
				t.Fatal(err)
			}
			checkCompat(t, "Pipeline", pres, tc.peak, tc.arenaSize, tc.order)
			if pres.Quality != QualityOptimal {
				t.Errorf("ExactDP quality = %q, want optimal", pres.Quality)
			}
			for i, q := range pres.SegmentQuality {
				if q != QualityOptimal {
					t.Errorf("segment %d quality = %q, want optimal", i, q)
				}
			}
			if pres.Fallbacks != 0 {
				t.Errorf("ExactDP reported %d fallbacks", pres.Fallbacks)
			}
		})
	}
}

// TestSegmentMemoDifferentialNineCells is the differential harness over the
// paper's nine-cell suite: scheduling each cell cold (empty memo) and warm
// (memo pre-populated by the cold run) must be bit-identical — and both must
// still match the pre-redesign goldens, so memoization provably changes
// nothing but the work done.
func TestSegmentMemoDifferentialNineCells(t *testing.T) {
	cells := models.BenchmarkCells()
	for _, tc := range compatGolden {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			memo := NewSegmentMemo(512)
			newPipe := func() *Pipeline {
				p, err := NewPipeline(compatOptions())
				if err != nil {
					t.Fatal(err)
				}
				p.SegmentMemo = memo
				return p
			}
			cold, err := newPipe().Run(context.Background(), cells[tc.cell].Build())
			if err != nil {
				t.Fatal(err)
			}
			checkCompat(t, "cold+memo", cold, tc.peak, tc.arenaSize, tc.order)

			warm, err := newPipe().Run(context.Background(), cells[tc.cell].Build())
			if err != nil {
				t.Fatal(err)
			}
			checkCompat(t, "warm", warm, tc.peak, tc.arenaSize, tc.order)
			if warm.SegmentMemoHits != len(warm.SegmentQuality) {
				t.Errorf("warm run hit %d of %d segments", warm.SegmentMemoHits, len(warm.SegmentQuality))
			}
			assertSameResult(t, tc.name, cold, warm)
		})
	}
}

func checkCompat(t *testing.T, via string, res *Result, peak, arena int64, order []int) {
	t.Helper()
	if res.Peak != peak {
		t.Errorf("%s: peak = %d, want golden %d", via, res.Peak, peak)
	}
	if res.ArenaSize != arena {
		t.Errorf("%s: arena = %d, want golden %d", via, res.ArenaSize, arena)
	}
	if !reflect.DeepEqual([]int(res.Order), order) {
		t.Errorf("%s: order diverged from pre-redesign golden\ngot:  %v\nwant: %v", via, res.Order, order)
	}
}
