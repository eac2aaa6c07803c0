// Package bench regenerates every measured table and figure of the paper's
// evaluation section. Each Fig*/Table* function computes the underlying
// data; the Render* helpers print rows/series shaped like the paper's.
// Every schedule it measures comes from serenity.Schedule — the pipeline that
// ships — and testdata/paper/cells.json pins the results; README's
// "Reproduction" section sets them next to the paper's.
package bench

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"time"

	serenity "github.com/serenity-ml/serenity"
	"github.com/serenity-ml/serenity/internal/alloc"
	"github.com/serenity-ml/serenity/internal/graph"
	"github.com/serenity-ml/serenity/internal/memsim"
	"github.com/serenity-ml/serenity/internal/models"
	"github.com/serenity-ml/serenity/internal/sched"
)

// KB converts bytes to kilobytes for display.
func KB(b int64) float64 { return float64(b) / 1024 }

// geomean of a slice of positive ratios.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// CellResult is the full measurement set for one benchmark cell, shared by
// Figures 10, 11, 13 and 15.
type CellResult struct {
	Network, Dataset, Cell string

	Nodes          int
	BaselinePeak   int64 // Kahn order + arena allocator (TFLite proxy)
	DPPeak         int64 // DP schedule + arena allocator
	DPGRPeak       int64 // DP on rewritten graph + arena allocator
	DPPeakIdeal    int64 // DP schedule, sum-of-live (no allocator)
	DPGRPeakIdeal  int64
	BaselineIdeal  int64
	DPTime         time.Duration // scheduling time without rewriting
	DPGRTime       time.Duration // scheduling time with rewriting
	BaselineOrder  sched.Schedule
	DPOrder        sched.Schedule
	DPGROrder      sched.Schedule
	Graph          *graph.Graph
	RewrittenGraph *graph.Graph
}

// MeasureCell runs the whole SERENITY pipeline on one benchmark cell:
// serenity.Schedule under the default options without and with rewriting,
// against Kahn's order in the same arena allocator.
func MeasureCell(c models.BenchCell, stepTimeout time.Duration) (*CellResult, error) {
	g := c.Build()
	opts := serenity.DefaultOptions()
	opts.StepTimeout = stepTimeout
	opts.Rewrite = false
	dp, err := serenity.Schedule(g, opts)
	if err != nil {
		return nil, err
	}
	opts.Rewrite = true
	gr, err := serenity.Schedule(g, opts)
	if err != nil {
		return nil, err
	}
	kahn, err := serenity.BaselineOrder(g)
	if err != nil {
		return nil, err
	}
	base, err := alloc.Plan(sched.NewMemModel(g), kahn)
	if err != nil {
		return nil, err
	}
	return &CellResult{
		Network: c.Network, Dataset: c.Dataset, Cell: c.Cell,
		Nodes:         g.NumNodes(),
		BaselinePeak:  base.ArenaSize,
		DPPeak:        dp.ArenaSize,
		DPGRPeak:      gr.ArenaSize,
		DPPeakIdeal:   dp.Peak,
		DPGRPeakIdeal: gr.Peak,
		BaselineIdeal: dp.BaselinePeak,
		DPTime:        dp.SchedulingTime,
		DPGRTime:      gr.SchedulingTime,
		BaselineOrder: kahn, DPOrder: dp.Order, DPGROrder: gr.Order,
		Graph: g, RewrittenGraph: gr.Graph,
	}, nil
}

// MeasureAllCells measures the nine benchmark cells.
func MeasureAllCells(stepTimeout time.Duration) ([]*CellResult, error) {
	var out []*CellResult
	for _, c := range models.BenchmarkCells() {
		r, err := MeasureCell(c, stepTimeout)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", c.Network, c.Cell, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// RenderFig10 prints the peak-memory reduction bars of Figure 10
// (higher is better; last row is the geomean, as in the paper).
func RenderFig10(w io.Writer, cells []*CellResult) {
	fmt.Fprintln(w, "Figure 10: reduction in peak memory footprint vs memory-oblivious baseline")
	fmt.Fprintln(w, "(TensorFlow Lite proxy: Kahn emission order + simple memory arena)")
	fmt.Fprintf(w, "%-10s %-9s %-8s | %14s %18s %21s\n",
		"Network", "Dataset", "Cell", "baseline (KB)", "DP+Allocator", "DP+GraphRW+Allocator")
	var dpRatios, grRatios []float64
	for _, c := range cells {
		rDP := float64(c.BaselinePeak) / float64(c.DPPeak)
		rGR := float64(c.BaselinePeak) / float64(c.DPGRPeak)
		dpRatios = append(dpRatios, rDP)
		grRatios = append(grRatios, rGR)
		fmt.Fprintf(w, "%-10s %-9s %-8s | %14.1f %17.2fx %20.2fx\n",
			c.Network, c.Dataset, c.Cell, KB(c.BaselinePeak), rDP, rGR)
	}
	fmt.Fprintf(w, "%-10s %-9s %-8s | %14s %17.2fx %20.2fx\n",
		"Geomean", "", "", "", geomean(dpRatios), geomean(grRatios))
}

// RenderFig15 prints the raw peak footprints of Figure 15 (smaller better).
func RenderFig15(w io.Writer, cells []*CellResult) {
	fmt.Fprintln(w, "Figure 15: peak memory footprint (KB), raw values")
	fmt.Fprintf(w, "%-10s %-9s %-8s | %12s %14s %22s\n",
		"Network", "Dataset", "Cell", "TFLite-proxy", "DP+Allocator", "DP+GraphRW+Allocator")
	for _, c := range cells {
		fmt.Fprintf(w, "%-10s %-9s %-8s | %12.0f %14.0f %22.0f\n",
			c.Network, c.Dataset, c.Cell, KB(c.BaselinePeak), KB(c.DPPeak), KB(c.DPGRPeak))
	}
}

// Fig11Row is one cell × SRAM-size measurement of off-chip traffic.
type Fig11Row struct {
	Network, Dataset, Cell string
	OnChipKB               int64
	BaselineTraffic        int64
	SerenityTraffic        int64 // best of DP and DP+GR schedules
	Eliminated             bool  // SERENITY removes all off-chip traffic
	NA                     bool  // both already fit on-chip
}

// Fig11 sweeps on-chip sizes {32,64,128,256}KB measuring Belady-optimal
// off-chip traffic for the baseline and SERENITY schedules.
func Fig11(cells []*CellResult) ([]Fig11Row, error) {
	var rows []Fig11Row
	for _, c := range cells {
		m := sched.NewMemModel(c.Graph)
		mRW := sched.NewMemModel(c.RewrittenGraph)
		for _, kb := range []int64{32, 64, 128, 256} {
			cfg := memsim.Config{OnChipBytes: kb * 1024}
			base, err := memsim.Simulate(m, c.BaselineOrder, cfg)
			if err != nil {
				return nil, err
			}
			ser, err := memsim.Simulate(m, c.DPOrder, cfg)
			if err != nil {
				return nil, err
			}
			serGR, err := memsim.Simulate(mRW, c.DPGROrder, cfg)
			if err != nil {
				return nil, err
			}
			best := ser.Total()
			if serGR.Total() < best {
				best = serGR.Total()
			}
			rows = append(rows, Fig11Row{
				Network: c.Network, Dataset: c.Dataset, Cell: c.Cell,
				OnChipKB:        kb,
				BaselineTraffic: base.Total(),
				SerenityTraffic: best,
				Eliminated:      base.Total() > 0 && best == 0,
				NA:              base.Total() == 0 && best == 0,
			})
		}
	}
	return rows, nil
}

// RenderFig11 prints the off-chip traffic reduction series of Figure 11.
func RenderFig11(w io.Writer, rows []Fig11Row) {
	fmt.Fprintln(w, "Figure 11: reduction in off-chip memory communication (Belady replacement)")
	fmt.Fprintf(w, "%-10s %-9s %-8s |", "Network", "Dataset", "Cell")
	for _, kb := range []int64{32, 64, 128, 256} {
		fmt.Fprintf(w, " %8dKB", kb)
	}
	fmt.Fprintln(w)
	byCell := map[string][]Fig11Row{}
	var order []string
	for _, r := range rows {
		key := r.Network + "/" + r.Dataset + "/" + r.Cell
		if _, ok := byCell[key]; !ok {
			order = append(order, key)
		}
		byCell[key] = append(byCell[key], r)
	}
	ratios := map[int64][]float64{}
	for _, key := range order {
		rs := byCell[key]
		fmt.Fprintf(w, "%-10s %-9s %-8s |", rs[0].Network, rs[0].Dataset, rs[0].Cell)
		for _, r := range rs {
			switch {
			case r.NA:
				fmt.Fprintf(w, " %10s", "N/A")
			case r.Eliminated:
				fmt.Fprintf(w, " %10s", "removed")
			default:
				ratio := float64(r.BaselineTraffic) / float64(r.SerenityTraffic)
				ratios[r.OnChipKB] = append(ratios[r.OnChipKB], ratio)
				fmt.Fprintf(w, " %9.2fx", ratio)
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-29s |", "Geomean (measurable cells)")
	for _, kb := range []int64{32, 64, 128, 256} {
		if len(ratios[kb]) == 0 {
			fmt.Fprintf(w, " %10s", "-")
		} else {
			fmt.Fprintf(w, " %9.2fx", geomean(ratios[kb]))
		}
	}
	fmt.Fprintln(w)
}

// Fig3bResult summarizes the schedule-space CDF of Figure 3(b).
type Fig3bResult struct {
	Samples        int
	MinKB, MaxKB   float64
	OptimalKB      float64
	FracUnderCap   float64 // fraction of schedules within the 250KB device cap
	FracOptimal    float64 // fraction achieving the optimal peak
	DecileKB       [11]float64
	DeviceCapKB    float64
	GraphName      string
	SampledBetter  int // sanity: samples strictly below the DP optimum (must be 0)
	BaselinePeakKB float64
}

// Fig3b samples random schedules of SwiftNet Cell A and locates the device
// cap and the optimal peak within the CDF.
func Fig3b(samples int, seed int64) (*Fig3bResult, error) {
	g := models.SwiftNetCellA()
	m := sched.NewMemModel(g)
	rng := rand.New(rand.NewSource(seed))
	cdf := sched.SamplePeakCDF(m, samples, rng)

	opts := serenity.DefaultOptions()
	opts.Rewrite = false
	opt, err := serenity.Schedule(g, opts)
	if err != nil {
		return nil, err
	}
	ideal := opt.Peak

	res := &Fig3bResult{
		Samples:        samples,
		GraphName:      g.Name,
		MinKB:          KB(cdf.Min()),
		MaxKB:          KB(cdf.Max()),
		OptimalKB:      KB(ideal),
		DeviceCapKB:    250,
		FracUnderCap:   cdf.FractionAtOrBelow(250 * 1024),
		FracOptimal:    cdf.FractionAtOrBelow(ideal),
		BaselinePeakKB: KB(opt.BaselinePeak),
	}
	for i := 0; i <= 10; i++ {
		res.DecileKB[i] = KB(cdf.Quantile(float64(i) / 10))
	}
	for _, p := range cdf.Peaks {
		if p < ideal {
			res.SampledBetter++
		}
	}
	return res, nil
}

// RenderFig3b prints the CDF summary.
func RenderFig3b(w io.Writer, r *Fig3bResult) {
	fmt.Fprintf(w, "Figure 3b: CDF of peak memory across %d sampled schedules of %s\n", r.Samples, r.GraphName)
	fmt.Fprintf(w, "  optimal peak: %.1f KB   sampled min/max: %.1f / %.1f KB   Kahn baseline: %.1f KB\n",
		r.OptimalKB, r.MinKB, r.MaxKB, r.BaselinePeakKB)
	fmt.Fprintf(w, "  %.2f%% of schedules satisfy the %g KB constraint\n", 100*r.FracUnderCap, r.DeviceCapKB)
	fmt.Fprintf(w, "  %.2f%% of schedules are optimal\n", 100*r.FracOptimal)
	fmt.Fprint(w, "  deciles (KB):")
	for i, d := range r.DecileKB {
		fmt.Fprintf(w, " p%d=%.0f", i*10, d)
	}
	fmt.Fprintln(w)
}

// RenderFig13 prints the scheduling-time bars of Figure 13.
func RenderFig13(w io.Writer, cells []*CellResult) {
	fmt.Fprintln(w, "Figure 13: scheduling time (divide-and-conquer + adaptive soft budgeting)")
	fmt.Fprintf(w, "%-10s %-9s %-8s | %16s %16s\n", "Network", "Dataset", "Cell", "DP", "DP+GraphRW")
	var sumDP, sumGR time.Duration
	for _, c := range cells {
		sumDP += c.DPTime
		sumGR += c.DPGRTime
		fmt.Fprintf(w, "%-10s %-9s %-8s | %16s %16s\n",
			c.Network, c.Dataset, c.Cell, c.DPTime.Round(time.Millisecond), c.DPGRTime.Round(time.Millisecond))
	}
	n := time.Duration(len(cells))
	if n > 0 {
		fmt.Fprintf(w, "%-10s %-9s %-8s | %16s %16s\n", "Mean", "", "",
			(sumDP / n).Round(time.Millisecond), (sumGR / n).Round(time.Millisecond))
	}
}

// RenderTable1 prints Table 1.
func RenderTable1(w io.Writer) {
	fmt.Fprintln(w, "Table 1: benchmark network specifications (measured on generated graphs;")
	fmt.Fprintln(w, "paper values in parentheses; accuracy cited, not retrained)")
	fmt.Fprintf(w, "%-10s %-5s %-9s | %22s %22s %8s\n", "Network", "Type", "Dataset", "# MAC", "# Weight", "Top-1")
	for _, s := range models.Table1Specs() {
		fmt.Fprintf(w, "%-10s %-5s %-9s | %10.1fM (%6.1fM) %10.1fK (%7.1fK) %8s\n",
			s.Network, s.Type, s.Dataset,
			float64(s.MACs)/1e6, float64(s.PaperMACs)/1e6,
			float64(s.Weights)/1e3, float64(s.PaperWts)/1e3, s.PaperTop1)
	}
}

// divider prints a section separator.
func divider(w io.Writer, title string) {
	fmt.Fprintln(w, strings.Repeat("=", 78))
	fmt.Fprintln(w, title)
	fmt.Fprintln(w, strings.Repeat("=", 78))
}

// Divider is exported for cmd/experiments.
func Divider(w io.Writer, title string) { divider(w, title) }
