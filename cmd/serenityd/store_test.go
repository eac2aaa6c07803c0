package main

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"testing"
	"time"

	serenity "github.com/serenity-ml/serenity"
	"github.com/serenity-ml/serenity/internal/store"
)

// storeServer builds a server backed by a persistent schedule store in dir,
// simulating one serenityd process lifetime per call.
func storeServer(t *testing.T, dir string) (*server, *httptest.Server, *serenity.ScheduleStore) {
	t.Helper()
	cfg := testConfig()
	cfg.opts.StepTimeout = time.Minute // fully deterministic across "restarts"
	cfg.opts.Parallelism = 2
	cfg.storeDir = dir
	s, ts := startServer(t, cfg)
	return s, ts, s.store
}

func metricValue(t *testing.T, ts *httptest.Server, name string) int64 {
	t.Helper()
	_, page := getJSON(t, ts, "/metrics")
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`)
	m := re.FindSubmatch(page)
	if m == nil {
		t.Fatalf("metric %s not found in:\n%s", name, page)
	}
	v, err := strconv.ParseInt(string(m[1]), 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestServerStoreWarmRestart is the serving-layer half of the warm-restart
// contract: a second server process over the same store directory must
// produce the identical schedule with the disk tier demonstrably answering,
// visible in both the response body and /metrics.
func TestServerStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()
	body := graphBody(t, smallCell(41))

	// First lifetime: compile cold, flush, shut down.
	_, ts1, ss1 := storeServer(t, dir)
	resp, cold := postSchedule(t, ts1, "", body)
	if resp.StatusCode != 200 {
		t.Fatalf("cold schedule: %d %s", resp.StatusCode, cold)
	}
	if hits := metricValue(t, ts1, "serenityd_store_hits_total"); hits != 0 {
		t.Errorf("first lifetime reported %d store hits on an empty store", hits)
	}
	ts1.Close()
	if err := ss1.Close(); err != nil {
		t.Fatal(err)
	}
	if st := ss1.Stats(); st.Entries == 0 {
		t.Fatal("first lifetime persisted nothing")
	}

	// Second lifetime: fresh server, fresh memo, same directory.
	_, ts2, _ := storeServer(t, dir)
	resp, warm := postSchedule(t, ts2, "", body)
	if resp.StatusCode != 200 {
		t.Fatalf("warm schedule: %d %s", resp.StatusCode, warm)
	}
	var coldR, warmR scheduleResponse
	if err := json.Unmarshal(cold, &coldR); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(warm, &warmR); err != nil {
		t.Fatal(err)
	}
	if !sameOrder(coldR.Order, warmR.Order) || coldR.Peak != warmR.Peak ||
		coldR.ArenaSize != warmR.ArenaSize || coldR.StatesExplored != warmR.StatesExplored {
		t.Errorf("restart changed the schedule:\ncold: %+v\nwarm: %+v", coldR, warmR)
	}
	if warmR.SegmentMemoDiskHits == 0 {
		t.Errorf("warm response reports no disk hits:\n%s", warm)
	}
	if warmR.Cached {
		t.Error("warm response claims schedule-cache hit; the cache cannot survive a restart")
	}
	if hits := metricValue(t, ts2, "serenityd_store_hits_total"); hits == 0 {
		t.Error("serenityd_store_hits_total still zero after a warm compile")
	}
	if entries := metricValue(t, ts2, "serenityd_store_entries"); entries == 0 {
		t.Error("serenityd_store_entries zero despite a populated store")
	}
}

func sameOrder(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestServerPlantedArtifactsRecompute: a store holding artifacts whose
// orders are permutations that break their segments' dependencies — planted
// through PutArtifact, the replication receiver's write — costs a recompute,
// never a 500. The answer is the order a clean server gives, and the planted
// records are counted corrupt.
func TestServerPlantedArtifactsRecompute(t *testing.T) {
	body := graphBody(t, smallCell(47))
	cleanDir := t.TempDir()
	_, ts1, ss1 := storeServer(t, cleanDir)
	resp, clean := postSchedule(t, ts1, "", body)
	if resp.StatusCode != 200 {
		t.Fatalf("clean schedule: %d %s", resp.StatusCode, clean)
	}
	ts1.Close()
	ss1.Close()

	raw, err := store.Open(cleanDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	plantDir := t.TempDir()
	plant, err := serenity.OpenScheduleStore(plantDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range raw.Entries() {
		payload, _ := raw.Get(e.Key)
		sr, err := serenity.UnmarshalSegmentArtifact(payload)
		if err != nil {
			t.Fatal(err)
		}
		slices.Reverse(sr.Order)
		if payload, err = serenity.MarshalSegmentArtifact(sr); err != nil {
			t.Fatal(err)
		}
		if !plant.PutArtifact(e.Key, payload) {
			t.Fatalf("PutArtifact refused the planted %q", e.Key)
		}
	}
	if err := plant.Close(); err != nil {
		t.Fatal(err)
	}

	_, ts2, _ := storeServer(t, plantDir)
	resp, got := postSchedule(t, ts2, "", body)
	if resp.StatusCode != 200 {
		t.Fatalf("schedule over planted artifacts: %d %s", resp.StatusCode, got)
	}
	var cleanR, gotR scheduleResponse
	json.Unmarshal(clean, &cleanR)
	json.Unmarshal(got, &gotR)
	if !sameOrder(cleanR.Order, gotR.Order) || cleanR.Peak != gotR.Peak {
		t.Errorf("planted artifacts changed the answer:\nclean: %+v\ngot:   %+v", cleanR, gotR)
	}
	if corrupt := metricValue(t, ts2, "serenityd_store_corrupt_records_total"); corrupt == 0 {
		t.Error("planted artifacts went uncounted in /metrics")
	}
}

// TestServerStoreCorruptionRecovery: a server booted over a vandalized store
// file must serve correct schedules (recomputed) and count the corruption,
// never 500 or crash.
func TestServerStoreCorruptionRecovery(t *testing.T) {
	dir := t.TempDir()
	body := graphBody(t, smallCell(43))

	_, ts1, ss1 := storeServer(t, dir)
	resp, cold := postSchedule(t, ts1, "", body)
	if resp.StatusCode != 200 {
		t.Fatalf("cold schedule: %d", resp.StatusCode)
	}
	ts1.Close()
	ss1.Close()

	// Vandalize the record region.
	path := filepath.Join(dir, store.DataFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := 30; off < len(data); off += 17 {
		data[off] ^= 0xA5
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts2, _ := storeServer(t, dir)
	resp, rec := postSchedule(t, ts2, "", body)
	if resp.StatusCode != 200 {
		t.Fatalf("schedule over corrupt store: %d %s", resp.StatusCode, rec)
	}
	var coldR, recR scheduleResponse
	json.Unmarshal(cold, &coldR)
	json.Unmarshal(rec, &recR)
	if !sameOrder(coldR.Order, recR.Order) || coldR.Peak != recR.Peak {
		t.Errorf("recomputed schedule diverged after corruption:\ncold: %+v\ngot:  %+v", coldR, recR)
	}
	if corrupt := metricValue(t, ts2, "serenityd_store_corrupt_records_total"); corrupt == 0 {
		t.Error("corruption went uncounted in /metrics")
	}
}
