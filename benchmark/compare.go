package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"
)

// benchmarkJSON is the root BENCHMARK.json: the declaration the driver and
// -compare both read.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSONFile(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// iqrShare is the distance between the first and third quartile as a share
// of the median, by the rule Python's statistics.quantiles(n=4) uses
// (exclusive method), so it matches what the driver computes.
func iqrShare(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	q := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k) * float64(len(s)+1) / 4
		i := int(pos)
		if i < 1 {
			return s[0]
		}
		if i >= len(s) {
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	if m := median(s); m != 0 {
		return (q(3) - q(1)) / m
	}
	return 0
}

// compareFiles checks change against parent, metric by metric and workload by
// workload, with the bounds BENCHMARK.json declares. A metric is regressed
// when the change's median is worse than the parent's by more than its bound;
// it is unresolved, not unchanged, when the parent's own runs spread wider
// than the bound — unless every run of the change beats every run of the
// parent. Spread needs at least four runs a side; with fewer, only the
// medians are compared.
func compareFiles(w io.Writer, benchPath, parentPath, changePath string) error {
	var bench benchmarkJSON
	var parent, change resultFile
	if err := readJSONFile(benchPath, &bench); err != nil {
		return err
	}
	if err := readJSONFile(parentPath, &parent); err != nil {
		return err
	}
	if err := readJSONFile(changePath, &change); err != nil {
		return err
	}
	values := func(f *resultFile, workload, metric string) []float64 {
		var out []float64
		for _, r := range f.Runs {
			if v, ok := r.EndToEnd[metric]; ok && r.Workload == workload {
				out = append(out, v)
			}
		}
		return out
	}
	regressed := 0
	fmt.Fprintf(w, "%-14s %-24s %12s %12s %9s %7s  %s\n", "workload", "metric", "parent", "change", "worse by", "bound", "verdict")
	for _, wl := range bench.Workloads {
		for _, em := range bench.EndToEnd {
			a, b := values(&parent, wl.Name, em.Name), values(&change, wl.Name, em.Name)
			if len(a) == 0 || len(b) == 0 {
				regressed++
				fmt.Fprintf(w, "%-14s %-24s %12s %12s %9s %7s  missing\n", wl.Name, em.Name, "-", "-", "-", "-")
				continue
			}
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			allBetter := slices.Min(b) > slices.Max(a)
			if em.Better == "higher" {
				worse = (ma - mb) / ma
			} else {
				allBetter = slices.Max(b) < slices.Min(a)
			}
			verdict := "ok"
			switch {
			case len(a) >= 4 && len(b) >= 4 && iqrShare(a) > em.Bound && !allBetter:
				verdict = fmt.Sprintf("unresolved (parent spread %.1f%%)", 100*iqrShare(a))
			case worse > em.Bound:
				verdict = "regressed"
				regressed++
			}
			fmt.Fprintf(w, "%-14s %-24s %12.4f %12.4f %8.1f%% %6.1f%%  %s\n",
				wl.Name, em.Name, ma, mb, 100*worse, 100*em.Bound, verdict)
		}
	}
	for _, f := range []*resultFile{&parent, &change} {
		for _, r := range f.Runs {
			if !r.Correct {
				regressed++
				fmt.Fprintf(w, "%s seed %d: run was incorrect (%d of %d failed)\n", r.Workload, r.Seed, r.Failed, r.Attempted)
			}
		}
	}
	if regressed > 0 {
		return errors.New("at least one metric regressed, is missing, or comes from an incorrect run")
	}
	return nil
}
