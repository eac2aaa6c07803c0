// Command benchmark is the repository's one benchmark: it builds
// cmd/serenityd from the checkout, runs it as a real child process (three for
// the fleet workload), drives it over loopback HTTP on five named workloads,
// validates every answer, and prints nine end-to-end metrics per workload; a
// traced run adds the per-layer metrics from a replay pass. See README.md.
//
//	go run ./benchmark -out results.json            every workload, traced, human table
//	go run ./benchmark -workload warm-memo -seed 7 -seconds 8 -trace 0
//	                                                 one run; last stdout line is the result JSON
//	go run ./benchmark -compare a.json b.json       gate b against a with BENCHMARK.json's bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

const (
	defaultSeed    = 2020
	defaultSeconds = 12
)

// options is the command line.
type options struct {
	workload      string
	seed          uint64
	seconds       int
	trace         int
	scale         string
	out           string
	runs          int
	compare       bool
	writeExpected bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload and print the result JSON as the last line of stdout (default: run all five, traced)")
	flag.Uint64Var(&o.seed, "seed", defaultSeed, "input seed; the same seed gives the same request bodies")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "measured seconds per run: scales the fixed request count through each workload's committed rate")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 runs the replay pass and prints the per-layer metrics")
	flag.StringVar(&o.scale, "scale", "full", "full, or tiny (tens of requests; the smoke test)")
	flag.StringVar(&o.out, "out", "", "write every run's metrics to this result file")
	flag.IntVar(&o.runs, "runs", 1, "without -workload: runs per workload, at seeds seed, seed+1, …")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files (arguments: parent.json change.json) against BENCHMARK.json's bounds; exit 1 on a regression")
	flag.BoolVar(&o.writeExpected, "write-expected", false, "recompute expected/*.json for -seed with every cache off (never part of a perf change)")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	root, err := moduleRoot()
	if err != nil {
		return err
	}
	dir := filepath.Join(root, "benchmark")
	if o.compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare needs two result files: parent.json change.json")
		}
		return compareFiles(os.Stdout, filepath.Join(root, "BENCHMARK.json"), flag.Arg(0), flag.Arg(1))
	}
	if o.scale != "full" && o.scale != "tiny" {
		return fmt.Errorf("-scale must be full or tiny, not %q", o.scale)
	}
	if o.seconds < 1 || o.seconds > 60 {
		return fmt.Errorf("-seconds must be between 1 and 60")
	}
	if o.writeExpected {
		return writeExpected(dir, o.seed, o.seconds)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	work := filepath.Join(root, buildDirName)
	bin, buildTime, err := buildServer(ctx, root, work)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "built cmd/serenityd in %.1fs (not part of setup_s)\n", buildTime.Seconds())
	cfg := config{seed: o.seed, seconds: o.seconds, tiny: o.scale == "tiny", dir: dir, out: filepath.Join(dir, "out"), bin: bin, work: work, log: os.Stderr}

	if o.workload != "" {
		cfg.w = findWorkload(o.workload)
		if cfg.w == nil {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		cfg.trace = o.trace != 0
		rep, err := runOnce(ctx, cfg)
		if err != nil {
			return err
		}
		printReport(os.Stderr, cfg, rep)
		if err := printContractLine(os.Stdout, cfg, rep); err != nil {
			return err
		}
		if !rep.Correct {
			return fmt.Errorf("%s: %d of %d requests failed validation or a workload contract broke", cfg.w.name, rep.Failed, rep.Attempted)
		}
		return nil
	}

	// All workloads: the untraced HTTP run and the traced replay pass of each.
	cfg.trace = true
	file := resultFile{Meta: collectMeta(root, o.seconds, o.scale)}
	bad := 0
	for i := 0; i < o.runs; i++ {
		for _, w := range workloads {
			cfg.w, cfg.seed = w, o.seed+uint64(i)
			rep, err := runOnce(ctx, cfg)
			if err != nil {
				return err
			}
			printReport(os.Stdout, cfg, rep)
			if !rep.Correct {
				bad++
			}
			file.Runs = append(file.Runs, resultRun{
				Workload: w.name, Seed: cfg.seed, Correct: rep.Correct,
				Attempted: rep.Attempted, Failed: rep.Failed, EndToEnd: rep.E2E, PerLayer: rep.Layer,
			})
		}
	}
	if o.out != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d run(s) failed validation", bad)
	}
	return nil
}

// runOnce is one run of one workload: the HTTP run, its analysis, and — for a
// traced run — the replay pass.
func runOnce(ctx context.Context, cfg config) (*report, error) {
	start := time.Now()
	m, err := execute(ctx, cfg)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.w.name, err)
	}
	rep, err := analyse(cfg, m)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "%s: HTTP run and validation took %.1fs, %.1fs of it measured\n", cfg.w.name, time.Since(start).Seconds(), m.wall.Seconds())
	if cfg.trace {
		start, in := time.Now(), newReplayInputs(cfg, m)
		m = nil
		runtime.GC()
		if err := replay(ctx, cfg, in, rep); err != nil {
			return nil, fmt.Errorf("%s: replay pass: %w", cfg.w.name, err)
		}
		fmt.Fprintf(cfg.log, "%s: replay pass took %.1fs\n", cfg.w.name, time.Since(start).Seconds())
	}
	return rep, nil
}

// printContractLine writes the one JSON object the driver reads: the
// end-to-end metrics of an untraced run, the per-layer metrics of a traced one.
func printContractLine(w io.Writer, cfg config, rep *report) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, map[string]metric{}}
	if cfg.trace {
		for _, lm := range layerMetrics {
			line.Metrics[lm.name] = metric{rep.Layer[lm.name], lm.unit}
		}
	} else {
		for _, em := range e2eMetrics {
			line.Metrics[em.name] = metric{rep.E2E[em.name], em.unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// printReport prints every metric of a run by name and unit.
func printReport(w io.Writer, cfg config, rep *report) {
	verdict := "correct"
	if !rep.Correct {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(w, "\n== %s  seed %d  %d attempted, %d failed, %s ==\n", cfg.w.name, cfg.seed, rep.Attempted, rep.Failed, verdict)
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
	for _, f := range rep.Flags {
		fmt.Fprintf(w, "  flag: %s\n", f)
	}
	for _, em := range e2eMetrics {
		note := ""
		if em.name == "latency_p95_ms" {
			note = fmt.Sprintf("   (%d samples)", rep.Attempted)
		}
		fmt.Fprintf(w, "  %-40s %14.4f %-6s%s\n", em.name, rep.E2E[em.name], em.unit, note)
	}
	if !cfg.trace {
		return
	}
	for _, lm := range layerMetrics {
		fmt.Fprintf(w, "  %-40s %14.4f %-6s [%s]\n", lm.name, rep.Layer[lm.name], lm.unit, lm.src)
	}
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Meta resultMeta  `json:"meta"`
	Runs []resultRun `json:"runs"`
}

type resultMeta struct {
	Commit    string `json:"commit"`
	GoVersion string `json:"go_version"`
	NumCPU    int    `json:"nproc"`
	Seconds   int    `json:"seconds"`
	Scale     string `json:"scale"`
	Date      string `json:"date"`
}

type resultRun struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
}

func collectMeta(root string, seconds int, scale string) resultMeta {
	commit := "unknown"
	cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return resultMeta{
		Commit:    commit,
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
		Seconds:   seconds,
		Scale:     scale,
		Date:      time.Now().UTC().Format("2006-01-02"),
	}
}

// writeExpected recomputes the golden peaks of every workload for seed, in
// process, with no memo, store or cache anywhere.
func writeExpected(dir string, seed uint64, seconds int) error {
	for _, w := range workloads {
		perPass, _ := w.passes(seconds, false)
		in, err := w.generate(seed, perPass, 0)
		if err != nil {
			return err
		}
		e := expectedFile{Seed: seed}
		for i, r := range in.reqs {
			peaks, err := referencePeaks(r)
			if err != nil {
				return fmt.Errorf("%s request %d: %w", w.name, i, err)
			}
			e.Peaks = append(e.Peaks, peaks)
		}
		data, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if err := os.MkdirAll(filepath.Dir(expectedPath(dir, w.name)), 0o755); err != nil {
			return err
		}
		if err := os.WriteFile(expectedPath(dir, w.name), append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("%s: %d expected answers\n", w.name, len(e.Peaks))
	}
	return nil
}
