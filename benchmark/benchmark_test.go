package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	var b benchmarkJSON
	if err := readJSONFile(filepath.Join("..", "BENCHMARK.json"), &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// The catalogue in metrics.go and workloads.go and the declaration in
// BENCHMARK.json must say the same thing, name by name.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if got := strings.Join(b.Command, " "); got != "go run ./benchmark" {
		t.Errorf("command is %q", got)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths is %v", b.Paths)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the benchmark's default is %d", b.RunSeconds, defaultSeconds)
	}

	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	known := map[string]bool{}
	for i, w := range workloads {
		known[w.name] = true
		if got := b.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, got.Name, got.Why, w.name, w.why)
		}
		if !name.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") || w.clients > 2 {
			t.Errorf("workload %q breaks the contract: name, a one-line why of at most 200 characters, at most 2 connections", w.name)
		}
	}

	if len(b.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark has %d", len(b.EndToEnd), len(e2eMetrics))
	}
	e2e := map[string]bool{}
	for i, m := range e2eMetrics {
		e2e[m.name] = true
		if got := b.EndToEnd[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better || got.Bound != m.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, got, m)
		}
		if !name.MatchString(m.name) || !unit.MatchString(m.unit) || m.bound < 0 || m.bound > 0.25 {
			t.Errorf("end-to-end metric %q breaks the contract", m.name)
		}
	}
	if !e2e["setup_s"] {
		t.Error("no setup_s metric")
	}

	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark has %d", len(b.PerLayer), len(layerMetrics))
	}
	seen := map[string]bool{}
	for i, m := range layerMetrics {
		if got := b.PerLayer[i]; got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the benchmark %q %q %q", i, got, m.name, m.unit, m.better)
		}
		if !name.MatchString(m.name) || !unit.MatchString(m.unit) || seen[m.name] || e2e[m.name] || m.layer() == m.name {
			t.Errorf("per-layer metric %q breaks the contract or has no layer prefix", m.name)
		}
		seen[m.name] = true
		if len(m.moves) == 0 {
			t.Errorf("per-layer metric %q does not say which end-to-end metric it moves", m.name)
		}
		for _, mv := range m.moves {
			if !e2e[mv.metric] || !known[mv.workload] {
				t.Errorf("per-layer metric %q moves %q on %q, which the benchmark does not have", m.name, mv.metric, mv.workload)
			}
		}
	}
}

// Same seed, same bytes: the bodies of the default seed are pinned, so a
// change to the generator (or to the graph wire format it is written against)
// cannot pass unnoticed as a performance change.
func TestGeneratorBodiesPinned(t *testing.T) {
	want := map[string]string{
		"cold-search":  "24267cd1b24525c9a979fd25188d5203f302b3d4466d0070e355e26f99bc8b63",
		"warm-memo":    "b49abe8b0caea4459b9fac98575ea610787e848e44735297d4cceb02e50a4d84",
		"disk-restart": "c4984ecc999043f45d6139f5dac689d4ce0e805569ca4326ed1e3676991065c0",
		"peer-fleet":   "60bceb75b38d68b963d9e668225ffa0237f3359522bfc2746eb6225c1b430b71",
		"mixed-open":   "1024cd0d9cda6aa88255e138b29b5df6a207613f410b6141a64594097a43c204",
	}
	for _, w := range workloads {
		sum := func() string {
			perPass, _ := w.passes(defaultSeconds, true)
			in, err := w.generate(defaultSeed, perPass, 0)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			for _, r := range append(in.preload, in.reqs...) {
				h.Write(r.body)
				io.WriteString(h, r.query)
			}
			for _, d := range in.dues {
				io.WriteString(h, d.String())
			}
			return hex.EncodeToString(h.Sum(nil))
		}
		got := sum()
		if again := sum(); again != got {
			t.Errorf("%s: two generations of one seed differ", w.name)
		}
		if got != want[w.name] {
			t.Errorf("%s: bodies hash to %s, pinned %s", w.name, got, want[w.name])
		}
	}
}

func TestParseProm(t *testing.T) {
	s, err := parseProm(strings.NewReader(`# HELP x y
# TYPE serenityd_requests_total counter
serenityd_requests_total 42
serenityd_admission_admitted_total{class="interactive"} 7
serenityd_admission_admitted_total{class="batch"} 3
serenityd_peer_ring_owned_share 0.3333
`))
	if err != nil {
		t.Fatal(err)
	}
	if s["serenityd_requests_total"] != 42 || s.sum("serenityd_admission_admitted_total") != 10 || s["serenityd_peer_ring_owned_share"] != 0.3333 {
		t.Errorf("parsed %v", s)
	}
	d := promSample{"a": 5, "b": 1}.delta(promSample{"a": 2})
	if d["a"] != 3 || d["b"] != 1 {
		t.Errorf("delta %v", d)
	}
	if _, err := parseProm(strings.NewReader("novalue\n")); err == nil {
		t.Error("a line without a value parsed")
	}
}

func TestProcReaders(t *testing.T) {
	if _, err := cpuSeconds(os.Getpid()); err != nil {
		t.Error(err)
	}
	if mib, err := peakRSSMiB(os.Getpid()); err != nil || mib <= 0 {
		t.Errorf("VmHWM %v MiB, %v", mib, err)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, scale map[string]float64) string {
		var f resultFile
		for _, w := range workloads {
			for seed := uint64(1); seed <= 5; seed++ {
				run := resultRun{Workload: w.name, Seed: seed, Correct: true, Attempted: 10, EndToEnd: map[string]float64{}}
				for _, m := range e2eMetrics {
					v := 100.0 + float64(seed) // spread of a few percent around 103
					if k, ok := scale[w.name+"/"+m.name]; ok {
						v *= k
					}
					run.EndToEnd[m.name] = v
				}
				f.Runs = append(f.Runs, run)
			}
		}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	bench := filepath.Join("..", "BENCHMARK.json")
	parent := write("parent.json", nil)

	var out bytes.Buffer
	if err := compareFiles(&out, bench, parent, write("same.json", nil)); err != nil {
		t.Errorf("a file compared with itself regressed: %v\n%s", err, out.String())
	}
	out.Reset()
	slower := write("slower.json", map[string]float64{"warm-memo/latency_p50_ms": 1.5, "cold-search/throughput_rps": 1.5})
	if err := compareFiles(&out, bench, parent, slower); err == nil {
		t.Errorf("a 50%% slower p50 passed:\n%s", out.String())
	}
	if !regexp.MustCompile(`warm-memo\s+latency_p50_ms.*regressed`).MatchString(out.String()) {
		t.Errorf("no regressed row for warm-memo latency_p50_ms:\n%s", out.String())
	}
	if regexp.MustCompile(`cold-search\s+throughput_rps.*regressed`).MatchString(out.String()) {
		t.Errorf("higher throughput was called a regression:\n%s", out.String())
	}
	// ok_share's bound (0.1%) is far below the synthetic 2% spread: unresolved, not regressed.
	if !regexp.MustCompile(`ok_share.*unresolved`).MatchString(out.String()) {
		t.Errorf("a spread wider than the bound was not reported as unresolved:\n%s", out.String())
	}
}

// A server that exits before it is ready must fail the run with its own
// words, not produce numbers.
func TestEarlyExitFailsLoudly(t *testing.T) {
	h, bin := testHarness(t)
	addrs, err := freeAddrs(1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = h.start(context.Background(), addrs[0], "-addr", addrs[0], "-mem-limit", "not-a-size")
	if err == nil || !strings.Contains(err.Error(), "exited before it was ready") || !strings.Contains(err.Error(), "bad byte size") {
		t.Errorf("starting %s with a bad flag: %v", bin, err)
	}
}

var builtServer string

// testHarness builds serenityd once per test binary, outside the repository.
func testHarness(t *testing.T) (*harness, string) {
	t.Helper()
	if builtServer == "" {
		root, err := moduleRoot()
		if err != nil {
			t.Fatal(err)
		}
		dir, err := os.MkdirTemp("", "serenity-bench-test-")
		if err != nil {
			t.Fatal(err)
		}
		if builtServer, _, err = buildServer(context.Background(), root, dir); err != nil {
			t.Fatal(err)
		}
	}
	h, err := newHarness(builtServer, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(h.close)
	return h, builtServer
}

func TestMain(m *testing.M) {
	code := m.Run()
	if builtServer != "" {
		os.RemoveAll(filepath.Dir(builtServer))
	}
	os.Exit(code)
}

// The smoke test: every workload at -scale tiny, traced, against a real
// serenityd. It checks that each run is correct, that the metric names it
// emits are exactly BENCHMARK.json's, and that the workloads separate the
// layers the way the issue promises.
func TestSmokeEveryWorkload(t *testing.T) {
	_, bin := testHarness(t)
	b := readBenchmarkJSON(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out := t.TempDir()
			cfg := config{
				w: w, seed: defaultSeed, seconds: defaultSeconds, tiny: true, trace: true,
				dir: ".", out: out, bin: bin, work: t.TempDir(), log: io.Discard,
			}
			rep, err := runOnce(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d, problems %v", rep.Attempted, rep.Failed, rep.Problems)
			}
			var line bytes.Buffer
			cfg.trace = false
			if err := printContractLine(&line, cfg, rep); err != nil {
				t.Fatal(err)
			}
			var parsed struct {
				Metrics map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line.Bytes(), &parsed); err != nil {
				t.Fatal(err)
			}
			if len(parsed.Metrics) != len(b.EndToEnd) {
				t.Errorf("%d end-to-end metrics printed, BENCHMARK.json declares %d", len(parsed.Metrics), len(b.EndToEnd))
			}
			for _, m := range b.EndToEnd {
				// A tiny run can cost the server less than one 10 ms clock tick.
				positive := m.Name != "server_cpu_ms_per_req"
				if got, ok := parsed.Metrics[m.Name]; !ok || got.Unit != m.Unit || got.Value < 0 || (positive && got.Value == 0) {
					t.Errorf("end-to-end metric %s: printed %+v (present %t); it must be positive, in %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(rep.Layer) != len(b.PerLayer) {
				t.Errorf("%d per-layer metrics reported, BENCHMARK.json declares %d", len(rep.Layer), len(b.PerLayer))
			}
			for _, m := range b.PerLayer {
				if _, ok := rep.Layer[m.Name]; !ok {
					t.Errorf("per-layer metric %s is declared and not reported", m.Name)
				}
			}

			L := rep.Layer
			for _, always := range []string{"loadgen.client_cpu_share", "graph.decode_us", "graph.fingerprint_us", "serenityd.response_bytes_p50"} {
				if L[always] <= 0 {
					t.Errorf("%s = %v on %s; every workload must report it", always, L[always], w.name)
				}
			}
			fresh := L["dp.fresh_states_per_req"]
			switch w.name {
			case "cold-search":
				if fresh <= 0 || L["dp.search_ms_per_graph"] <= 0 || L["segmemo.miss_walk_us"] <= 0 {
					t.Errorf("cold-search did not search: %v fresh states per request", fresh)
				}
			case "warm-memo":
				if fresh != 0 || L["serenityd.respcache_hit_share"] != 0.5 || L["trace.spans_per_req"] <= 0 {
					t.Errorf("warm-memo: %v fresh states, response-cache hit share %v, %v spans per traced request",
						fresh, L["serenityd.respcache_hit_share"], L["trace.spans_per_req"])
				}
			case "disk-restart":
				if fresh != 0 || L["store.disk_hit_share"] != 1 || L["store.restart_ready_ms"] <= 0 {
					t.Errorf("disk-restart: %v fresh states, disk hit share %v", fresh, L["store.disk_hit_share"])
				}
			case "peer-fleet":
				if fresh != 0 || L["fleet.peer_hit_share"] <= 0.3 || L["fleet.fetch_rtt_us"] <= 0 {
					t.Errorf("peer-fleet: %v fresh states, peer hit share %v", fresh, L["fleet.peer_hit_share"])
				}
			case "mixed-open":
				if fresh <= 0 || L["serenityd.degraded_p50_ms"] <= 0 || rep.E2E["optimal_share"] != 0.98 {
					t.Errorf("mixed-open: %v fresh states, optimal share %v", fresh, rep.E2E["optimal_share"])
				}
			}

			var tf traceFile
			if err := readJSONFile(filepath.Join(out, "trace-"+w.name+".json"), &tf); err != nil {
				t.Fatal(err)
			}
			if tf.Requests == 0 || len(tf.Spans) <= tf.Requests {
				t.Fatalf("trace holds %d requests and %d spans", tf.Requests, len(tf.Spans))
			}
			for _, s := range tf.Spans {
				if s.End < s.Start || s.Self < 0 || s.Self > s.End-s.Start || s.Parent >= s.ID {
					t.Fatalf("malformed span %+v", s)
				}
			}
		})
	}
}
