package serenity

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/serenity-ml/serenity/internal/graph"
	"github.com/serenity-ml/serenity/internal/models"
	"github.com/serenity-ml/serenity/internal/store"
)

// --- artifact codec -------------------------------------------------------

func TestSegmentArtifactRoundTrip(t *testing.T) {
	cases := []SearchResult{
		{Order: Order{0, 2, 1, 3}, StatesExplored: 12345, MaxFrontier: 7, Quality: QualityOptimal},
		{Order: Order{0}, StatesExplored: 0, MaxFrontier: 0, Quality: QualityHeuristic},
		{Order: Order{}, Quality: QualityOptimal},
	}
	for i, sr := range cases {
		b, err := MarshalSegmentArtifact(sr)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		got, err := UnmarshalSegmentArtifact(b)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(got.Order, sr.Order) || got.StatesExplored != sr.StatesExplored ||
			got.MaxFrontier != sr.MaxFrontier || got.Quality != sr.Quality {
			t.Errorf("case %d: round trip %+v -> %+v", i, sr, got)
		}
	}
}

func TestSegmentArtifactRefusesDegraded(t *testing.T) {
	_, err := MarshalSegmentArtifact(SearchResult{
		Order: Order{0, 1}, Quality: QualityHeuristic, FellBack: true,
	})
	if err == nil {
		t.Fatal("a degraded (FellBack) result marshaled; the poison rule has a persistent bypass")
	}
}

func TestSegmentArtifactDecodeRejectsMalformed(t *testing.T) {
	good, err := MarshalSegmentArtifact(SearchResult{Order: Order{0, 1, 2}, Quality: QualityOptimal})
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string][]byte{
		"empty":           {},
		"short header":    good[:10],
		"truncated body":  good[:len(good)-2],
		"trailing junk":   append(append([]byte{}, good...), 0xAA),
		"alien version":   append([]byte{99}, good[1:]...),
		"alien quality":   append([]byte{good[0], 7}, good[2:]...),
		"repeated id":     append(append([]byte{}, good[:len(good)-4]...), 1, 0, 0, 0),
		"id out of range": append(append([]byte{}, good[:len(good)-4]...), 3, 0, 0, 0),
	}
	for name, b := range bad {
		if _, err := UnmarshalSegmentArtifact(b); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

// FuzzSegmentArtifact: no payload, however mangled, may panic the decoder,
// and whatever decodes must re-encode to the same result. Each payload is
// also planted under a fixed segment's key, on disk and as a peer's answer:
// the compile never errors and always returns the exact order. The segment is
// a ladder (every node consumes the two before it), which the partition keeps
// whole and which has one topological order, so an order the check lets
// through can only be the right one.
func FuzzSegmentArtifact(f *testing.F) {
	g := NewGraph("ladder")
	g.AddNode(graph.OpInput, "in", Shape{8})
	g.AddNode(graph.OpReLU, "relu", Shape{8}, 0)
	for i := 2; i < 8; i++ {
		g.AddNode(graph.OpAdd, fmt.Sprintf("add%d", i), Shape{8}, i-1, i-2)
	}
	opts := DefaultOptions()
	probe := &fakeFleet{corpus: map[string][]byte{}}
	pp := memoPipeline(f, opts, NewSegmentMemo(8))
	pp.Peers = probe
	want, err := pp.Run(context.Background(), g)
	if err != nil || len(probe.corpus) != 1 {
		f.Fatalf("reference run: %d keys, err %v; want the ladder as one segment", len(probe.corpus), err)
	}
	var key string
	for k, valid := range probe.corpus {
		key = k
		f.Add(valid)
		for _, bad := range reversedArtifacts(f, probe.corpus) {
			f.Add(bad)
		}
		swapped := bytes.Clone(valid)
		swapped[artifactHeaderLen], swapped[artifactHeaderLen+4] = swapped[artifactHeaderLen+4], swapped[artifactHeaderLen]
		f.Add(swapped)
	}
	seed, _ := MarshalSegmentArtifact(SearchResult{
		Order: Order{0, 3, 1, 2}, StatesExplored: 99, MaxFrontier: 4, Quality: QualityOptimal,
	})
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{1, 0})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		if sr, err := UnmarshalSegmentArtifact(data); err == nil {
			re, err := MarshalSegmentArtifact(sr)
			if err != nil {
				t.Fatalf("decoded artifact failed to re-encode: %v", err)
			}
			sr2, err := UnmarshalSegmentArtifact(re)
			if err != nil || !reflect.DeepEqual(sr, sr2) {
				t.Fatalf("re-encode round trip diverged: %+v vs %+v (%v)", sr, sr2, err)
			}
		}
		ss := openStoreT(t, t.TempDir())
		if _, err := ss.st.PutIfAbsent(key, data); err != nil {
			t.Fatal(err)
		}
		p := storePipeline(t, opts, NewSegmentMemo(8), ss)
		p.Peers = &fakeFleet{corpus: map[string][]byte{key: data}}
		got, err := p.Run(context.Background(), g)
		if err != nil {
			t.Fatalf("compile over a planted payload: %v", err)
		}
		if !reflect.DeepEqual(got.Order, want.Order) {
			t.Fatalf("compile over a planted payload returned %v, want %v", got.Order, want.Order)
		}
	})
}

// --- tiered memo behavior -------------------------------------------------

func openStoreT(t *testing.T, dir string) *ScheduleStore {
	t.Helper()
	ss, err := OpenScheduleStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ss.Close() })
	return ss
}

func storePipeline(t testing.TB, opts Options, memo *SegmentMemo, ss *ScheduleStore) *Pipeline {
	t.Helper()
	p, err := NewPipeline(opts)
	if err != nil {
		t.Fatal(err)
	}
	p.SegmentMemo = memo
	p.Store = ss
	return p
}

// TestScheduleStoreTierPromotion walks one key set through all three tiers:
// fresh search → disk hit (new memo, old store) → memory hit (same memo).
func TestScheduleStoreTierPromotion(t *testing.T) {
	g := uniformStack("store-tiers", 4, 12)
	opts := DefaultOptions()
	opts.StepTimeout = time.Minute
	dir := t.TempDir()
	ss := openStoreT(t, dir)

	memo := NewSegmentMemo(256)
	cold, err := storePipeline(t, opts, memo, ss).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if cold.SegmentMemoDiskHits != 0 {
		t.Errorf("cold run on an empty store reports %d disk hits", cold.SegmentMemoDiskHits)
	}
	if st := ss.Stats(); st.Writes == 0 || st.Entries == 0 {
		t.Fatalf("cold run wrote nothing through: %+v", st)
	}

	// Every fresh segment is in the data file by the time Run returns, with
	// no flush: another process opening the directory reads them all.
	ro, err := store.OpenReadOnly(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries := ro.Entries()
	if fresh := memo.Stats().Misses; int64(len(entries)) != fresh {
		t.Errorf("a read-only open right after Run sees %d artifacts; the run searched %d fresh segments", len(entries), fresh)
	}
	for _, e := range entries {
		if payload, ok := ro.Get(e.Key); !ok || !artifactSelfConsistent(payload) {
			t.Errorf("a read-only open right after Run cannot read %q", e.Key)
		}
	}
	ro.Close()

	// Fresh memo, same store: simulates a restart inside one process. Every
	// distinct segment loads from disk once and is promoted; its structural
	// twins then hit memory.
	memo2 := NewSegmentMemo(256)
	warm, err := storePipeline(t, opts, memo2, ss).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	nsegs := len(warm.SegmentQuality)
	if warm.SegmentMemoHits != nsegs {
		t.Errorf("warm run hit %d of %d segments", warm.SegmentMemoHits, nsegs)
	}
	if warm.SegmentMemoDiskHits == 0 || warm.SegmentMemoDiskHits >= nsegs {
		t.Errorf("disk hits %d of %d: want >=1 (the store answered) and <nsegs (promotion served the twins)",
			warm.SegmentMemoDiskHits, nsegs)
	}
	if warm.FreshStatesExplored != 0 {
		t.Errorf("warm run explored %d fresh states", warm.FreshStatesExplored)
	}
	assertSameResult(t, "disk-warm", cold, warm)
	if ms := memo2.Stats(); ms.DiskHits != int64(warm.SegmentMemoDiskHits) {
		t.Errorf("memo disk-hit counter %d != result's %d", ms.DiskHits, warm.SegmentMemoDiskHits)
	}

	// Same memo again: everything is promoted now; the disk stays idle.
	hot, err := storePipeline(t, opts, memo2, ss).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if hot.SegmentMemoDiskHits != 0 {
		t.Errorf("fully promoted run still read %d segments from disk", hot.SegmentMemoDiskHits)
	}
	if hot.SegmentMemoHits != nsegs {
		t.Errorf("fully promoted run hit %d of %d segments", hot.SegmentMemoHits, nsegs)
	}
	assertSameResult(t, "memory-hot", cold, hot)
}

// TestScheduleStoreWithoutMemo: the store and the fleet are tiers beneath a
// SegmentMemo, so RunIn refuses a Pipeline that sets either one without a
// memo, before it touches them; with neither, the Pipeline runs unmemoized.
func TestScheduleStoreWithoutMemo(t *testing.T) {
	g := uniformStack("store-only", 3, 12)
	opts := DefaultOptions()
	opts.StepTimeout = time.Minute
	ss := openStoreT(t, t.TempDir())
	fleet := &fakeFleet{corpus: map[string][]byte{}}
	for _, tc := range []struct {
		name  string
		store *ScheduleStore
		peers PeerTier
	}{
		{"store", ss, nil},
		{"peers", nil, fleet},
		{"store and peers", ss, fleet},
	} {
		p := storePipeline(t, opts, nil, tc.store)
		p.Peers = tc.peers
		if res, err := p.Run(context.Background(), g); err == nil || !strings.Contains(err.Error(), "no SegmentMemo") {
			t.Errorf("%s without a memo: result %v, err %v; want a refusal naming the missing SegmentMemo", tc.name, res, err)
		}
	}
	if st := ss.Stats(); st.Writes != 0 || st.Hits+st.Misses != 0 {
		t.Errorf("a refused run reached the store: %+v", st)
	}
	if fleet.fetches != 0 || fleet.replicas != 0 {
		t.Errorf("a refused run reached the fleet: %d fetches, %d replicas", fleet.fetches, fleet.replicas)
	}
	plain, err := storePipeline(t, opts, nil, nil).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if plain.SegmentMemoHits != 0 || plain.FreshStatesExplored == 0 {
		t.Errorf("unmemoized run: %d hits, %d fresh states; want every segment searched", plain.SegmentMemoHits, plain.FreshStatesExplored)
	}
}

// TestScheduleStorePoisonRule: a deadline-degraded run must leave nothing on
// disk that a later process could mistake for the exact answer — the
// SegmentMemo's poison rule extended to the persistent tier. The deadline
// expires by construction, not by machine speed: a hookSearcher parks every
// search until it has passed, as runPastDeadline does.
func TestScheduleStorePoisonRule(t *testing.T) {
	g := models.StackedUniformRandWire("store-poison", 4, models.WSConfig{
		Nodes: 40, K: 6, P: 0.9, Seed: 5, HW: 16, Channel: 8,
	})
	opts := DefaultOptions()
	opts.Strategy = StrategyBestEffort
	dir := t.TempDir()
	ss := openStoreT(t, dir)

	ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
	defer cancel()
	memo := NewSegmentMemo(256)
	p := storePipeline(t, opts, memo, ss)
	p.Searcher = hookSearcher{p.Searcher, func() { <-ctx.Done() }}
	rushed, err := p.Run(ctx, g)
	if err != nil {
		t.Fatalf("best-effort errored under deadline: %v", err)
	}
	if rushed.Fallbacks == 0 {
		t.Fatal("expected fallbacks under the 25ms deadline; the poison scenario never happened")
	}
	if st := memo.Stats(); st.Misses+st.Errors == 0 {
		t.Fatalf("the rushed run never went through the memo (%+v); the poison rule was not exercised", st)
	}
	ss.Close()

	// Inspect the raw store: every artifact persisted under the degraded
	// run's best-effort keys must decode to an optimal result.
	raw, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range raw.Entries() {
		payload, ok := raw.Get(e.Key)
		if !ok {
			t.Fatalf("entry %q unreadable", e.Key)
		}
		sr, err := UnmarshalSegmentArtifact(payload)
		if err != nil {
			t.Fatalf("entry %q: %v", e.Key, err)
		}
		if sr.Quality != QualityOptimal {
			t.Errorf("entry %q: persisted quality %q — a degraded result leaked to disk", e.Key, sr.Quality)
		}
	}
	raw.Close()

	// A fresh process over the same store must still earn optimal.
	ss2 := openStoreT(t, dir)
	relaxed, err := storePipeline(t, opts, NewSegmentMemo(256), ss2).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if relaxed.Quality != QualityOptimal {
		t.Fatalf("restarted run served %q; the store was poisoned", relaxed.Quality)
	}
}

// TestScheduleStoreCorruptionDegrades: a corrupted store file must cost only
// performance. Open skips the bad records (counted), the pipeline recomputes
// them, and the answers match a store-less reference bit for bit.
func TestScheduleStoreCorruptionDegrades(t *testing.T) {
	g := uniformStack("store-corrupt", 4, 12)
	opts := DefaultOptions()
	opts.StepTimeout = time.Minute
	dir := t.TempDir()

	ss := openStoreT(t, dir)
	ref, err := storePipeline(t, opts, NewSegmentMemo(256), ss).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	ss.Close()

	// Flip bytes throughout the record region of the data file.
	path := filepath.Join(dir, store.DataFileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for off := 40; off < len(data); off += 37 {
		data[off] ^= 0x5A
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	ss2 := openStoreT(t, dir)
	if st := ss2.Stats(); st.CorruptRecords == 0 {
		t.Error("corrupted file opened with zero corrupt records counted")
	}
	res, err := storePipeline(t, opts, NewSegmentMemo(256), ss2).Run(context.Background(), g)
	if err != nil {
		t.Fatalf("pipeline failed over a corrupted store: %v", err)
	}
	assertSameResult(t, "corrupt-store", ref, res)

	// Total garbage must also cost only performance.
	if err := os.WriteFile(path, bytes.Repeat([]byte{0xDB}, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	ss3 := openStoreT(t, dir)
	res3, err := storePipeline(t, opts, NewSegmentMemo(256), ss3).Run(context.Background(), g)
	if err != nil {
		t.Fatalf("pipeline failed over a garbage store: %v", err)
	}
	assertSameResult(t, "garbage-store", ref, res3)
}

// TestScheduleStoreClosedIsInert: lookups and writes against a closed store
// neither panic nor wedge a compilation — shutdown races degrade to cold
// searches.
func TestScheduleStoreClosedIsInert(t *testing.T) {
	g := uniformStack("store-closed", 3, 12)
	opts := DefaultOptions()
	opts.StepTimeout = time.Minute
	ss := openStoreT(t, t.TempDir())
	ss.Close()
	res, err := storePipeline(t, opts, NewSegmentMemo(256), ss).Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if res.SegmentMemoDiskHits != 0 {
		t.Errorf("closed store served %d disk hits", res.SegmentMemoDiskHits)
	}
}

func mustMarshalArtifact(t testing.TB, sr SearchResult) []byte {
	t.Helper()
	payload, err := MarshalSegmentArtifact(sr)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}

// TestScheduleStoreConcurrentCloseDrain is the shutdown race test (run under
// -race in CI): lookups, writes, compactions, stats snapshots and the fleet's
// reads run through a store while another goroutine closes it mid-storm.
// Every entry point must be closed-inert — return without panicking,
// deadlocking, or touching the released file — and a closed get must not
// count a miss (nothing was looked up, and shutdown must not skew the hit
// rate the daemon prints on exit).
func TestScheduleStoreConcurrentCloseDrain(t *testing.T) {
	ss, err := OpenScheduleStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	payload := mustMarshalArtifact(t, SearchResult{Order: Order{0, 1, 2}, Quality: QualityOptimal})
	ss.put("seed", payload)

	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for i := 0; i < 200; i++ {
				switch (w + i) % 7 {
				case 0:
					ss.get("seed", anyOrderOf(3))
				case 1:
					ss.put(fmt.Sprintf("k%d-%d", w, i), payload)
				case 2:
					ss.KeyHashes()
				case 3:
					_ = ss.Compact()
				case 4:
					ss.Stats()
				case 5:
					ss.GetArtifact("seed")
				case 6:
					_, _ = ss.ExportMissing(io.Discard, nil, 4)
				}
			}
		}(w)
	}
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		<-start
		if err := ss.Close(); err != nil {
			t.Errorf("Close mid-storm: %v", err)
		}
	}()
	close(start)
	wg.Wait()
	<-closed

	before := ss.Stats()
	if _, ok := ss.get("seed", anyOrderOf(3)); ok {
		t.Error("closed store served a lookup")
	}
	ss.put("late", payload)
	if ss.PutArtifact("late", payload) {
		t.Error("closed store took a peer's artifact")
	}
	if _, ok := ss.GetArtifact("seed"); ok || len(ss.KeyHashes()) != 0 {
		t.Error("closed store served the fleet")
	}
	if err := ss.Compact(); !errors.Is(err, store.ErrClosed) {
		t.Errorf("Compact on a closed store: %v, want store.ErrClosed", err)
	}
	if n, err := ss.ExportMissing(io.Discard, nil, 4); n != 0 || !errors.Is(err, store.ErrClosed) {
		t.Errorf("ExportMissing on a closed store: %d records, %v", n, err)
	}
	after := ss.Stats()
	if after.Misses != before.Misses {
		t.Errorf("closed get counted a miss (%d -> %d)", before.Misses, after.Misses)
	}
	if after != before {
		t.Errorf("closed store's stats moved: %+v -> %+v", before, after)
	}
	if err := ss.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestScheduleStoreReplaceUpgradesOnly pins the disk tier's write rule, the
// one every write obeys (PutIfAbsent): the first artifact under a key stands
// against any later write, a record that fails validation is deleted by the
// one lookup that finds it — so the recompute's write replaces it — and a
// degraded result cannot even be encoded for the store.
func TestScheduleStoreReplaceUpgradesOnly(t *testing.T) {
	ss := openStoreT(t, t.TempDir())
	first := SearchResult{Order: Order{0, 1, 2}, StatesExplored: 9, Quality: QualityOptimal}
	write := ss.put

	// Hits must stay bit-identical to whichever run populated the entry.
	write("k", mustMarshalArtifact(t, first))
	write("k", mustMarshalArtifact(t, SearchResult{Order: Order{0, 1, 2}, StatesExplored: 7, Quality: QualityOptimal}))
	write("k", mustMarshalArtifact(t, SearchResult{Order: Order{2, 1, 0}, StatesExplored: 3, Quality: QualityHeuristic}))
	if got, ok := ss.get("k", anyOrderOf(3)); !ok || !reflect.DeepEqual(got, first) {
		t.Errorf("a later write clobbered the established artifact: got %+v ok=%v", got, ok)
	}

	// A standing record that does not decode (CRC-clean, so the byte layer
	// serves it) blocks writes only until it is looked up once.
	corrupt := mustMarshalArtifact(t, first)
	corrupt[0] = ArtifactVersion + 1
	write("c", corrupt)
	write("c", mustMarshalArtifact(t, first))
	if _, ok := ss.get("c", anyOrderOf(3)); ok {
		t.Fatal("the corrupt record was served")
	}
	if st := ss.Stats(); st.CorruptRecords != 1 {
		t.Errorf("the failed decode counted %d corrupt records, want 1", st.CorruptRecords)
	}
	write("c", mustMarshalArtifact(t, first))
	if got, ok := ss.get("c", anyOrderOf(3)); !ok || !reflect.DeepEqual(got, first) {
		t.Errorf("after one lookup the corrupt record was not replaced: got %+v ok=%v", got, ok)
	}

	if _, err := MarshalSegmentArtifact(SearchResult{Order: Order{0, 1, 2}, Quality: QualityOptimal, FellBack: true}); err == nil {
		t.Error("a degraded result encoded as a store artifact")
	}
}

// --- golden fixture -------------------------------------------------------

// TestGoldenStoreFixture pins on-disk artifact format v1 end to end: the
// committed store under testdata/golden/store_v1 (written by gen.go) must
// open clean, decode fully, and warm-start a fresh pipeline to the
// pre-redesign schedule goldens with zero fresh searches. If this test fails
// after a deliberate format change, regenerate the fixture with
// `go run testdata/golden/gen.go` — committing it is the explicit act that
// acknowledges the break; deployed stores will cold-start across it.
func TestGoldenStoreFixture(t *testing.T) {
	dir := copyGoldenStore(t, "store_v1")

	raw, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st := raw.Stats(); st.Entries == 0 || st.CorruptRecords != 0 {
		t.Fatalf("golden store opened with stats %+v; want clean entries — format v1 no longer reads", st)
	}
	for _, e := range raw.Entries() {
		payload, ok := raw.Get(e.Key)
		if !ok {
			t.Fatalf("golden artifact %q unreadable", e.Key)
		}
		sr, err := UnmarshalSegmentArtifact(payload)
		if err != nil {
			t.Fatalf("golden artifact %q no longer decodes: %v", e.Key, err)
		}
		if sr.Quality != QualityOptimal || !fitsSegment(edgeless(len(sr.Order)), sr.Order) {
			t.Errorf("golden artifact %q decoded to %+v", e.Key, sr)
		}
	}
	raw.Close()

	// Warm-start from the fixture: SwiftNet cells A and B (the graphs gen.go
	// compiled) must come back bit-identical to the pre-redesign goldens —
	// peak, arena, order — without a single fresh search.
	ss, err := OpenScheduleStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	memo := NewSegmentMemo(256)
	golden := []struct {
		g  *Graph
		tc int // index into compatGolden
	}{
		{SwiftNetCellA(), 1},
		{SwiftNetCellB(), 2},
	}
	for _, gc := range golden {
		p, err := NewPipeline(compatOptions())
		if err != nil {
			t.Fatal(err)
		}
		p.SegmentMemo = memo
		p.Store = ss
		res, err := p.Run(context.Background(), gc.g)
		if err != nil {
			t.Fatal(err)
		}
		tc := compatGolden[gc.tc]
		checkCompat(t, "golden store "+tc.name, res, tc.peak, tc.arenaSize, tc.order)
		if res.SegmentMemoHits != len(res.SegmentQuality) {
			t.Errorf("%s: %d of %d segments hit; a key or format drift forced fresh searches",
				tc.name, res.SegmentMemoHits, len(res.SegmentQuality))
		}
		if res.FreshStatesExplored != 0 {
			t.Errorf("%s: %d fresh states explored warm-starting from the golden store", tc.name, res.FreshStatesExplored)
		}
	}
	if st := ss.Stats(); st.Hits == 0 {
		t.Errorf("golden warm-start never hit the disk tier: %+v", st)
	}
}

// copyGoldenStore copies a committed store fixture into a scratch directory:
// Open repairs files in place, and a test must never mutate a committed
// fixture.
func copyGoldenStore(t *testing.T, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "golden", name, store.DataFileName))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, store.DataFileName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestGoldenStoreOldMemoKeysReadAsMiss is the other half of every MemoKey
// version bump: a store written by a build that keyed exact results
// "exact|a=…|t=…|s=…" (the fixture store_v1 held until "exact|v2", kept as
// store_v1_exact_v1_keys) or "exact|v2" (held until "exact|v3", kept as
// store_v1_exact_v2_keys) must open clean and serve nothing — its orders
// predate the node-id tie-break or the DP's safe-move rule, so a hit would
// break warm ≡ cold. Old stores go cold, never wrong.
func TestGoldenStoreOldMemoKeysReadAsMiss(t *testing.T) {
	for _, fixture := range []string{"store_v1_exact_v1_keys", "store_v1_exact_v2_keys"} {
		t.Run(fixture, func(t *testing.T) {
			ss, err := OpenScheduleStore(copyGoldenStore(t, fixture), 0)
			if err != nil {
				t.Fatal(err)
			}
			defer ss.Close()
			if st := ss.Stats(); st.Entries != 2 || st.CorruptRecords != 0 {
				t.Fatalf("old-key store opened with stats %+v; want 2 clean entries", st)
			}
			for _, tc := range []int{1, 2} { // SwiftNet cells A and B, as gen.go compiled them
				p, err := NewPipeline(compatOptions())
				if err != nil {
					t.Fatal(err)
				}
				p.SegmentMemo, p.Store = NewSegmentMemo(64), ss
				res, err := p.Run(context.Background(), models.BenchmarkCells()[tc].Build())
				if err != nil {
					t.Fatal(err)
				}
				golden := compatGolden[tc]
				checkCompat(t, "old-key store "+golden.name, res, golden.peak, golden.arenaSize, golden.order)
				if res.SegmentMemoHits != 0 || res.FreshStatesExplored == 0 {
					t.Errorf("%s: %d segment hits, %d fresh states; want an all-miss recompute",
						golden.name, res.SegmentMemoHits, res.FreshStatesExplored)
				}
			}
			if st := ss.Stats(); st.Hits != 0 {
				t.Errorf("old-key artifacts were served: %+v", st)
			}
		})
	}
}

// --- cross-process warm restart ------------------------------------------

// storeDifferentialWorkload is the suite both halves of the cross-process
// test compile: the paper's nine cells plus deterministic random DAGs. Both
// processes must derive it identically.
func storeDifferentialWorkload() []*Graph {
	var gs []*Graph
	for _, c := range models.BenchmarkCells() {
		gs = append(gs, c.Build())
	}
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		gs = append(gs, graph.RandomDAG(rng, graph.RandomDAGConfig{
			Nodes:    6 + int(seed)*3,
			EdgeProb: 0.35,
			MaxFanIn: 3,
		}))
	}
	return gs
}

func storeDifferentialOptions() Options {
	opts := DefaultOptions()
	opts.StepTimeout = time.Minute // no probe ever times out: fully deterministic
	return opts
}

// storeRunSummary is the wire format between the cold (child) and warm
// (parent) processes.
type storeRunSummary struct {
	Order       []int     `json:"order"`
	Peak        int64     `json:"peak"`
	ArenaSize   int64     `json:"arena_size"`
	Quality     Quality   `json:"quality"`
	SegQuality  []Quality `json:"segment_quality"`
	States      int64     `json:"states_explored"`
	MaxFrontier int       `json:"max_frontier"`
}

func summarize(res *Result) storeRunSummary {
	return storeRunSummary{
		Order:       res.Order,
		Peak:        res.Peak,
		ArenaSize:   res.ArenaSize,
		Quality:     res.Quality,
		SegQuality:  res.SegmentQuality,
		States:      res.StatesExplored,
		MaxFrontier: res.MaxFrontier,
	}
}

// TestScheduleStoreHelperProcess is the cold half of the cross-process
// differential: re-executed as a child process, it compiles the workload
// against a fresh store, compacts, and reports its results as JSON. It is a
// no-op under normal test runs.
func TestScheduleStoreHelperProcess(t *testing.T) {
	dir := os.Getenv("SERENITY_STORE_HELPER_DIR")
	if dir == "" {
		t.Skip("helper process for TestScheduleStoreWarmRestartCrossProcess")
	}
	ss, err := OpenScheduleStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	memo := NewSegmentMemo(1024)
	var out []storeRunSummary
	for _, g := range storeDifferentialWorkload() {
		p, err := NewPipeline(storeDifferentialOptions())
		if err != nil {
			t.Fatal(err)
		}
		p.SegmentMemo = memo
		p.Store = ss
		res, err := p.Run(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, summarize(res))
	}
	if err := ss.Compact(); err != nil { // exercises the GC pass cross-process
		t.Fatal(err)
	}
	if err := ss.Close(); err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("STORE_HELPER_BEGIN%sSTORE_HELPER_END\n", enc)
}

// TestScheduleStoreWarmRestartCrossProcess is the acceptance differential: a
// cold process populates the store and exits; a second process (this one)
// opens the same directory and must produce bit-identical schedules — order,
// peak, arena, quality, states accounting, MaxFrontier — for the nine-cell
// suite and random DAGs, with the disk tier demonstrably answering.
func TestScheduleStoreWarmRestartCrossProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a child process compiling the full nine-cell suite")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=TestScheduleStoreHelperProcess$", "-test.count=1")
	cmd.Env = append(os.Environ(), "SERENITY_STORE_HELPER_DIR="+dir)
	outBytes, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("cold (child) process failed: %v\n%s", err, outBytes)
	}
	outStr := string(outBytes)
	begin := bytes.Index(outBytes, []byte("STORE_HELPER_BEGIN"))
	end := bytes.Index(outBytes, []byte("STORE_HELPER_END"))
	if begin < 0 || end < 0 || end <= begin {
		t.Fatalf("child produced no result block:\n%s", outStr)
	}
	var cold []storeRunSummary
	if err := json.Unmarshal(outBytes[begin+len("STORE_HELPER_BEGIN"):end], &cold); err != nil {
		t.Fatalf("parsing child results: %v", err)
	}

	// Warm restart: a brand-new process image (this test binary run) with
	// nothing in memory but the store directory.
	ss, err := OpenScheduleStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if st := ss.Stats(); st.Entries == 0 || st.CorruptRecords != 0 {
		t.Fatalf("store after cold process: %+v, want clean entries", st)
	}
	memo := NewSegmentMemo(1024)
	workload := storeDifferentialWorkload()
	if len(cold) != len(workload) {
		t.Fatalf("child compiled %d graphs, workload has %d", len(cold), len(workload))
	}
	var totalDisk, totalFresh int
	for i, g := range workload {
		p, err := NewPipeline(storeDifferentialOptions())
		if err != nil {
			t.Fatal(err)
		}
		p.SegmentMemo = memo
		p.Store = ss
		warm, err := p.Run(context.Background(), g)
		if err != nil {
			t.Fatalf("graph %d: %v", i, err)
		}
		w := summarize(warm)
		if !reflect.DeepEqual(w, cold[i]) {
			t.Errorf("graph %d (%s) diverged across restart:\ncold: %+v\nwarm: %+v", i, g.Name, cold[i], w)
		}
		totalDisk += warm.SegmentMemoDiskHits
		totalFresh += len(warm.SegmentQuality) - warm.SegmentMemoHits
	}
	if totalDisk == 0 {
		t.Error("warm restart never read the disk tier; the store contributed nothing")
	}
	if totalFresh != 0 {
		t.Errorf("warm restart ran %d fresh searches; every segment should come from the store", totalFresh)
	}
	if st := ss.Stats(); st.Hits == 0 {
		t.Errorf("store counters after warm restart: %+v, want hits > 0", st)
	}
}
