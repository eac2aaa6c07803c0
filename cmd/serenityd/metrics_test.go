package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	serenity "github.com/serenity-ml/serenity"
	"github.com/serenity-ml/serenity/internal/govern"
)

// metricsNormalizers blank the only samples that legitimately differ between
// two runs of the same scenario: wall-clock stage times, the rate derived
// from them, and a trace's random ID. Each pattern pins the number format, so
// a changed verb stops matching and shows up in the diff.
var metricsNormalizers = []struct {
	re   *regexp.Regexp
	repl string
}{
	{regexp.MustCompile(`(?m)^(serenityd_stage_seconds_total\{stage="[a-z]+"\}) \d+\.\d{6}$`), "$1 <seconds>"},
	{regexp.MustCompile(`(?m)^(serenityd_dp_states_per_second) \d+\.\d$`), "$1 <rate>"},
	{regexp.MustCompile(`(?m)^(serenityd_stage_exemplar_seconds\{stage="[a-z]+",trace_id=")[0-9a-f]{32}("\}) \d+\.\d{6}$`), "$1<id>$2 <seconds>"},
}

// checkMetricsGolden compares the normalized /metrics page with a golden
// captured from the hand-written exposition this table replaced.
func checkMetricsGolden(t *testing.T, ts *httptest.Server, golden string) {
	t.Helper()
	_, data := getJSON(t, ts, "/metrics")
	got := string(data)
	for _, n := range metricsNormalizers {
		got = n.re.ReplaceAllString(got, n.repl)
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("/metrics diverged from %s:\n--- got\n%s", golden, got)
	}
}

// driveMetricsTraffic is the deterministic request mix both goldens were
// captured under: a cold compile, its cache hit, a 400, and a 2-item batch.
func driveMetricsTraffic(t *testing.T, ts *httptest.Server) {
	t.Helper()
	body := graphBody(t, smallCell(1))
	for i := 0; i < 2; i++ {
		if resp, data := postSchedule(t, ts, "", body); resp.StatusCode != http.StatusOK {
			t.Fatalf("schedule %d: status %d: %s", i, resp.StatusCode, data)
		}
	}
	if resp, _ := postSchedule(t, ts, "", []byte("{not json")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: status %d, want 400", resp.StatusCode)
	}
	batch, err := json.Marshal(batchRequest{Items: []json.RawMessage{
		graphBody(t, smallCell(2)), graphBody(t, smallCell(3)),
	}})
	if err != nil {
		t.Fatal(err)
	}
	if resp, data := postBatch(t, ts, "", batch); resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d: %s", resp.StatusCode, data)
	}
}

// TestMetricsGolden pins the exposition byte for byte — family order, HELP
// and TYPE text, label order, number formats, and which counter feeds which
// row — for a bare server and for one with every optional layer on.
func TestMetricsGolden(t *testing.T) {
	t.Run("bare", func(t *testing.T) {
		_, ts := testServer(t)
		driveMetricsTraffic(t, ts)
		checkMetricsGolden(t, ts, "testdata/metrics_bare.golden")
	})
	t.Run("full", func(t *testing.T) {
		const peer = "http://127.0.0.1:7434" // never dialed
		cfg := testConfig()
		cfg.compileSlots, cfg.admitQueue = 4, 16
		cfg.storeDir = t.TempDir()
		cfg.peerAddr, cfg.peerList, cfg.peerSlots = "http://127.0.0.1:7433", peer, 4
		cfg.probe.Interval, cfg.sync.Interval = time.Hour, time.Hour // both loops idle
		cfg.govern = govern.Options{
			Limit: 64 << 20, Headroom: 1, SampleInterval: 5 * time.Millisecond,
			ReadLoad: func() int64 { return 0 },
		}
		cfg.refineOpts = serenity.RefinePoolOptions{Workers: 1, QueueDepth: 64, RequeueInterval: 2 * time.Millisecond}
		s, ts := startServer(t, cfg)
		// The peer is declared dead up front: every key it owns fails over
		// to this node, so ownership is deterministic and nothing dials out.
		for i := 0; i < 3; i++ {
			s.health.ReportFailure(peer)
		}
		driveMetricsTraffic(t, ts)
		for i, q := range []string{"?strategy=best-effort&degrade=force", "?debug=trace"} {
			if resp, data := postSchedule(t, ts, q, graphBody(t, smallCell(int64(4+i)))); resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d: %s", q, resp.StatusCode, data)
			}
		}
		drainRefine(t, s.refine)
		s.peers.Drain()
		ballast := s.gov.Reserve(int64(0.72 * float64(s.gov.Stats().Limit)))
		defer ballast.Release()
		s.gov.Refresh()
		checkMetricsGolden(t, ts, "testdata/metrics_full.golden")
	})
}

// TestMetricsReadmeInSync keeps README §Observability's metrics table and
// the exposition table listing the same families (brace groups expanded).
func TestMetricsReadmeInSync(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, _ := strings.Cut(string(readme), "\n## Observability\n")
	section, _, _ = strings.Cut(section, "\n## ")
	documented := map[string]bool{}
	name := regexp.MustCompile("`(serenityd_[a-z_]*)(?:\\{([a-z_,]+)\\}([a-z_]*))?`")
	for _, row := range strings.Split(section, "\n") {
		if !strings.HasPrefix(row, "| `serenityd_") {
			continue
		}
		cell, _, _ := strings.Cut(row[2:], " | ")
		for _, m := range name.FindAllStringSubmatch(cell, -1) {
			if m[2] == "" {
				documented[m[1]] = true
			}
			for _, alt := range strings.Split(m[2], ",") {
				if alt != "" {
					documented[m[1]+alt+m[3]] = true
				}
			}
		}
	}
	var drift []string
	for _, f := range metricFamilies {
		if !documented[f.name] {
			drift = append(drift, f.name+" (exported, not in README)")
		}
		delete(documented, f.name)
	}
	for n := range documented {
		drift = append(drift, n+" (in README, not exported)")
	}
	sort.Strings(drift)
	if len(drift) > 0 {
		t.Errorf("README §Observability metrics table is out of sync:\n%s", strings.Join(drift, "\n"))
	}
}
