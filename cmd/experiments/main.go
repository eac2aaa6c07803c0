// Command experiments regenerates every measured table and figure of the
// paper. Select an artifact with -run or regenerate everything:
//
//	experiments -run fig10
//	experiments -run all -timeout 1s
//
// Artifacts: table1, fig2, fig3b, fig10, fig11, fig12, fig13, fig15, table2.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/serenity-ml/serenity/internal/bench"
)

func main() {
	run := flag.String("run", "all", "artifact to regenerate (table1|fig2|fig3b|fig10|fig11|fig12|fig13|fig15|table2|all)")
	stepTimeout := flag.Duration("timeout", time.Second, "adaptive soft budgeting step timeout T: a per-level safety valve; exceeding it fails the search")
	samples := flag.Int("samples", 20000, "schedule samples for fig3b")
	flag.Parse()

	if err := execute(*run, *stepTimeout, *samples); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func execute(run string, stepTimeout time.Duration, samples int) error {
	w := os.Stdout
	want := func(name string) bool { return run == "all" || run == name }
	ran := false

	var cells []*bench.CellResult
	needCells := want("fig10") || want("fig11") || want("fig13") || want("fig15")
	if needCells {
		var err error
		cells, err = bench.MeasureAllCells(stepTimeout)
		if err != nil {
			return err
		}
	}

	if want("table1") {
		ran = true
		bench.Divider(w, "Table 1")
		bench.RenderTable1(w)
	}
	if want("fig2") {
		ran = true
		bench.Divider(w, "Figure 2 / 14")
		bench.RenderFig2(w)
	}
	if want("fig3b") {
		ran = true
		bench.Divider(w, "Figure 3b")
		r, err := bench.Fig3b(samples, 2020)
		if err != nil {
			return err
		}
		bench.RenderFig3b(w, r)
	}
	if want("fig10") {
		ran = true
		bench.Divider(w, "Figure 10")
		bench.RenderFig10(w, cells)
	}
	if want("fig11") {
		ran = true
		bench.Divider(w, "Figure 11")
		rows, err := bench.Fig11(cells)
		if err != nil {
			return err
		}
		bench.RenderFig11(w, rows)
	}
	if want("fig12") {
		ran = true
		bench.Divider(w, "Figure 12")
		r, err := bench.Fig12()
		if err != nil {
			return err
		}
		bench.RenderFig12(w, r)
	}
	if want("fig13") {
		ran = true
		bench.Divider(w, "Figure 13")
		bench.RenderFig13(w, cells)
	}
	if want("fig15") {
		ran = true
		bench.Divider(w, "Figure 15")
		bench.RenderFig15(w, cells)
	}
	if want("table2") {
		ran = true
		bench.Divider(w, "Table 2")
		rows, err := bench.Table2(bench.Table2Options{StepTimeout: stepTimeout})
		if err != nil {
			return err
		}
		bench.RenderTable2(w, rows)
	}
	if !ran {
		return fmt.Errorf("unknown artifact %q", run)
	}
	return nil
}
