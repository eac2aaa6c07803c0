package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	serenity "github.com/serenity-ml/serenity"
	"github.com/serenity-ml/serenity/internal/models"
)

// oracle renders v the way the handlers did before the hand-written
// encoders: json.Encoder, two-space indent, HTML escaping, trailing newline.
func oracle(t testing.TB, v any) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// fill sets every exported field under v to a distinct non-zero value, so an
// `omitempty` field cannot hide and a field the appenders do not know shows
// up as a byte difference. Strings carry what encoding/json escapes. Recursive
// types (span trees) stop at maxDepth.
func fill(v reflect.Value, n *int, depth int) {
	const maxDepth = 14
	*n++
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n) * 1001)
	case reflect.Float64:
		v.SetFloat([]float64{0.125, 1234.5678, 1e-7, 2.5e21, 3}[*n%5])
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d <&> \"q\" \u2028 \xff\t", *n))
	case reflect.Pointer:
		if depth < maxDepth {
			v.Set(reflect.New(v.Type().Elem()))
			fill(v.Elem(), n, depth+1)
		}
	case reflect.Slice:
		if depth < maxDepth {
			v.Set(reflect.MakeSlice(v.Type(), 2, 2))
			for i := 0; i < 2; i++ {
				fill(v.Index(i), n, depth+1)
			}
		}
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
		k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
		fill(k, n, depth+1)
		fill(e, n, depth+1)
		v.SetMapIndex(k, e)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fill(v.Field(i), n, depth+1)
			}
		}
	default:
		panic("fill: teach me " + v.Kind().String())
	}
}

// TestResponseEncoderCoversEveryField is what keeps the hand-written
// encoders honest: with every field of scheduleResponse and batchResponse
// (and of everything they contain) set non-zero by reflection, at the single
// endpoint's depth and nested in a batch, their bytes equal json.Encoder's.
// A struct field added without teaching the appender fails here.
func TestResponseEncoderCoversEveryField(t *testing.T) {
	var n int
	full := &scheduleResponse{}
	fill(reflect.ValueOf(full).Elem(), &n, 0)
	if full.Trace == nil || full.RewrittenGraph == nil || len(full.RewrittenGraph.Nodes) == 0 || full.Rewrites == 0 {
		t.Fatal("fill left fields zero")
	}
	batch := &batchResponse{}
	fill(reflect.ValueOf(batch).Elem(), &n, 0)
	if len(batch.Items) != 2 || batch.Items[1].Schedule == nil || batch.Items[1].Error == "" {
		t.Fatal("fill left batch fields zero")
	}

	noTrace := *full
	noTrace.Trace = nil
	floats := *full
	floats.SchedulingMS, floats.StageMS = 0, stageMS{Rewrite: 0.001, Partition: 1e-9, Search: 123456789.125, Alloc: 1e300}
	cases := map[string]*scheduleResponse{
		"full": full, "no trace": &noTrace, "floats": &floats,
		"zero":        {},
		"empty lists": {Order: []int{}, PartitionSizes: []int{}, SegmentQuality: []serenity.Quality{}, RewrittenGraph: &serenity.Graph{}},
	}
	for name, r := range cases {
		if got, want := string(appendScheduleResponse(nil, r, 0))+"\n", oracle(t, r); got != want {
			t.Errorf("%s: single response differs from encoding/json\n got: %s\nwant: %s", name, got, want)
		}
	}
	batches := map[string]*batchResponse{
		"full": batch, "zero": {}, "empty": {Items: []batchItemResult{}},
		"mixed": {Items: []batchItemResult{{Index: 0, Status: 400, Error: "parsing graph: <bad>"}, {Index: 1, Status: 200, Schedule: &noTrace}}, Scheduled: 1, Failed: 1},
	}
	for name, b := range batches {
		if got, want := string(appendBatchResponse(nil, b))+"\n", oracle(t, b); got != want {
			t.Errorf("%s: batch response differs from encoding/json\n got: %s\nwant: %s", name, got, want)
		}
	}
}

// TestETagPinned pins the entity tag to two values captured from the
// commit before tags were stored on the response (where etagFor ran on every
// request): a client revalidating across the deploy still gets its 304.
func TestETagPinned(t *testing.T) {
	order := []int{0, 2, 1, 3, 5, 4}
	for want, r := range map[string]*scheduleResponse{
		`"ae18cf9325926e98"`: {Fingerprint: "9f2c4e1a7b3d5f60", Quality: serenity.QualityOptimal, Peak: 123904, ArenaSize: 131072, Order: order},
		`"404f9ba479155d74"`: {Fingerprint: "00ab", Quality: serenity.QualityHeuristic, Peak: 1 << 40, ArenaSize: 1<<40 + 64, Fallbacks: 3},
	} {
		if got := etagFor(r); got != want {
			t.Errorf("etagFor(%+v) = %s, want %s", r, got, want)
		}
	}

	// And the stored tag is that function's value, on first compile and on
	// a cache hit alike.
	s, ts := testServer(t)
	body := graphBody(t, smallCell(1))
	for i := 0; i < 2; i++ {
		_, resp := postScheduleOK(t, ts, "", body)
		cached, ok := s.cache.Get(cachedKey(t, s, body))
		if !ok || cached.etag != etagFor(cached) || resp.Header.Get("ETag") != cached.etag {
			t.Errorf("request %d: header ETag %q, stored %+v", i, resp.Header.Get("ETag"), cached)
		}
	}
}

// TestETagMatchesFmtForm holds etagFor to the fmt.Fprintf form it replaced,
// kept here as the oracle, over random orders, qualities, peaks and
// fallbacks: the tag is hashed from the same bytes, so no client's tag moves.
func TestETagMatchesFmtForm(t *testing.T) {
	fmtForm := func(r *scheduleResponse) string {
		h := fnv.New64a()
		fmt.Fprintf(h, "%s|1|%s|%d|%d|%d|%v",
			r.Fingerprint, r.Quality,
			r.Peak, r.ArenaSize, r.Fallbacks, r.Order)
		return fmt.Sprintf("%q", fmt.Sprintf("%016x", h.Sum64()))
	}
	qualities := []serenity.Quality{serenity.QualityOptimal, serenity.QualityHeuristic, ""}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		r := &scheduleResponse{
			Fingerprint: strconv.FormatUint(rng.Uint64(), 16)[:rng.Intn(8)],
			Quality:     qualities[rng.Intn(len(qualities))],
			Peak:        rng.Int63() >> rng.Intn(63),
			ArenaSize:   rng.Int63() >> rng.Intn(63),
			Fallbacks:   rng.Intn(4) * rng.Intn(100),
		}
		if rng.Intn(8) == 0 {
			r.Peak = -r.Peak
		}
		switch rng.Intn(4) {
		case 0: // nil order
		case 1:
			r.Order = []int{}
		default:
			r.Order = rng.Perm(rng.Intn(2000))
		}
		if got, want := etagFor(r), fmtForm(r); got != want {
			t.Fatalf("etagFor(%+v) = %s, fmt form gives %s", r, got, want)
		}
	}
}

func cachedKey(t *testing.T, s *server, body []byte) string {
	t.Helper()
	prm, err := s.requestOptions(httptest.NewRequest(http.MethodPost, "/v1/schedule", nil))
	if err != nil {
		t.Fatal(err)
	}
	job, _, err := s.decodeGraph(body, prm, new(serenity.Workspace))
	if err != nil {
		t.Fatal(err)
	}
	return job.key
}

// TestOversizeBodyAnswers413: a body one byte past the limit is 413 on both
// endpoints (it used to surface as a 400 read error), one at the limit is
// judged on its content.
func TestOversizeBodyAnswers413(t *testing.T) {
	s, err := build(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	s.maxBody = 4 << 10
	ts := httptest.NewServer(s.handler())
	defer func() {
		ts.Close()
		s.close()
	}()
	pad := func(n int64) []byte { return bytes.Repeat([]byte(" "), int(n)) }
	for _, path := range []string{"/v1/schedule", "/v1/schedule/batch"} {
		for size, want := range map[int64]int{s.maxBody + 1: http.StatusRequestEntityTooLarge, s.maxBody: http.StatusBadRequest} {
			resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(pad(size)))
			if err != nil {
				t.Fatal(err)
			}
			var e errorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Errorf("%s, %d bytes: error body: %v", path, size, err)
			}
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Errorf("%s, %d bytes: status %d (%s), want %d", path, size, resp.StatusCode, e.Error, want)
			}
		}
	}
}

// TestNoSlotHeldWhileFollowing: with the one compile slot held, an
// interactive request and a batch item for the same graph each lead a flight
// of their own class and queue for the slot. Neither holds a slot while it
// waits, so releasing the held one lets both finish.
func TestNoSlotHeldWhileFollowing(t *testing.T) {
	cfg := testConfig()
	cfg.compileSlots, cfg.admitQueue = 1, 4
	s, _ := startServer(t, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	release, err := s.admit.acquire(ctx, classInteractive)
	if err != nil {
		t.Fatal(err)
	}
	prm, err := s.requestOptions(httptest.NewRequest(http.MethodPost, "/v1/schedule", nil))
	if err != nil {
		t.Fatal(err)
	}
	job, _, err := s.decodeGraph(graphBody(t, smallCell(3)), prm, new(serenity.Workspace))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	run := func(class admitClass) chan int {
		done := make(chan int, 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, code, _ := s.runGraph(ctx, job, prm, class, new(serenity.Workspace))
			done <- code
		}()
		return done
	}
	done := map[admitClass]chan int{classInteractive: run(classInteractive), classBatch: run(classBatch)}
	waitWaiting(t, s.admit, classInteractive, 1)
	waitWaiting(t, s.admit, classBatch, 1)
	release()
	for class, ch := range done {
		select {
		case code := <-ch:
			if code != http.StatusOK {
				t.Errorf("%s compilation answered %d", class, code)
			}
		case <-time.After(20 * time.Second):
			cancel()
			t.Fatalf("%s compilation never finished after the slot was released", class)
		}
	}
}

// TestCachedBatchTakesNoSlot: a batch whose items are all whole-response
// cache hits compiles nothing, so it must answer at once even while the only
// compile slot is held.
func TestCachedBatchTakesNoSlot(t *testing.T) {
	cfg := testConfig()
	cfg.compileSlots, cfg.admitQueue = 1, 4
	s, ts := startServer(t, cfg)
	body := graphBody(t, smallCell(5))
	postScheduleOK(t, ts, "", body)

	release, err := s.admit.acquire(context.Background(), classInteractive)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	batch, err := json.Marshal(map[string]any{"items": []json.RawMessage{body, body}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/schedule/batch", bytes.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatalf("cached batch got no answer while the only slot was held: %v", err)
	}
	defer resp.Body.Close()
	var br batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, decode error %v", resp.StatusCode, err)
	}
	for _, it := range br.Items {
		if it.Status != http.StatusOK || it.Schedule == nil || !it.Schedule.Cached {
			t.Errorf("item %d: status %d (%s), want a cached 200", it.Index, it.Status, it.Error)
		}
	}
	if got := s.admit.admitted[classBatch].Load(); got != 0 {
		t.Errorf("cached batch took %d batch-class slots, want 0", got)
	}
}

// TestWireBuffersUnderConcurrency posts hot and never-seen bodies, single
// and batched, from several goroutines at once, so request and response
// buffers cycle through the pool while others are in use. Each answer must be
// byte-equal to what a serial re-post of the same body gets afterwards: every
// answer to a key is the one response the cache keeps (first writer wins),
// so only the cached flag may differ.
func TestWireBuffersUnderConcurrency(t *testing.T) {
	_, ts := testServer(t)
	var bodies [][]byte
	for seed := int64(1); seed <= 12; seed++ {
		bodies = append(bodies, graphBody(t, smallCell(seed)))
	}
	for _, b := range bodies[:4] {
		postScheduleOK(t, ts, "", b) // hot before the concurrent round
	}
	type request struct {
		path string
		body []byte
	}
	var reqs []request
	for i, b := range bodies {
		reqs = append(reqs, request{"/v1/schedule", b})
		if i%3 == 0 {
			items := bytes.Join([][]byte{b, bodies[(i+5)%len(bodies)]}, []byte(","))
			reqs = append(reqs, request{"/v1/schedule/batch", append(append([]byte(`{"items": [`), items...), "]}"...)})
		}
	}
	post := func(r request) ([]byte, error) {
		resp, err := ts.Client().Post(ts.URL+r.path, "application/json", bytes.NewReader(r.body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("%s: status %d: %s", r.path, resp.StatusCode, data)
		}
		// Whether this request compiled, joined a flight or hit the cache
		// shows in the flag alone.
		return bytes.ReplaceAll(data, []byte(`"cached": false`), []byte(`"cached": true`)), err
	}

	const workers = 6
	got := make([][][]byte, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range got {
		got[w] = make([][]byte, len(reqs))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range reqs {
				i := (k + 5*w) % len(reqs) // each worker starts elsewhere
				if got[w][i], errs[w] = post(reqs[i]); errs[w] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", w, err)
		}
	}
	for i, r := range reqs {
		want, err := post(r)
		if err != nil {
			t.Fatal(err)
		}
		for w := range got {
			if !bytes.Equal(got[w][i], want) {
				t.Errorf("%s body %d: worker %d got %d bytes that differ from the serial answer's %d", r.path, i, w, len(got[w][i]), len(want))
			}
		}
	}
}

// wireBenchResponse is a real answer for six stacked WS(24) cells carrying
// its (re)written graph: ~87 KB on the wire, the warm-memo workload's shape.
func wireBenchResponse(t testing.TB) *scheduleResponse {
	t.Helper()
	s, err := build(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	g := models.StackedUniformRandWire("ws24x6", 6, models.WSConfig{Nodes: 24, K: 4, P: 0.75, Seed: 7, HW: 16, Channel: 16})
	r, err := s.compute(context.Background(), g, s.opts, g.Fingerprint(), false, new(serenity.Workspace))
	if err != nil {
		t.Fatal(err)
	}
	if r.RewrittenGraph == nil {
		r.RewrittenGraph = g
	}
	return r
}

func TestScheduleResponseEncodeAllocs(t *testing.T) {
	r := wireBenchResponse(t)
	if got, want := string(appendScheduleResponse(nil, r, 0))+"\n", oracle(t, r); got != want {
		t.Fatal("real response differs from encoding/json")
	}
	var buf []byte
	allocs := testing.AllocsPerRun(20, func() {
		buf = append(appendScheduleResponse(buf[:0], r, 0), '\n')
	})
	if allocs > 0 {
		t.Errorf("encoding one response took %.0f allocations, want none once a recycled buffer has grown", allocs)
	}
}

func BenchmarkScheduleResponseEncode(b *testing.B) {
	r := wireBenchResponse(b)
	buf := appendScheduleResponse(nil, r, 0)
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for b.Loop() {
		buf = appendScheduleResponse(buf[:0], r, 0)
	}
}

// FuzzScheduleRequest drives the single endpoint with arbitrary bodies and
// query parameters through the daemon's own constructor. The contract: one
// of the documented statuses, never a 500, never a panic, and a 200 body is
// JSON. The seeds sit on the decoder's fast-path/reference seam: canonical
// bodies, truncated and bit-flipped.
func FuzzScheduleRequest(f *testing.F) {
	for i, body := range [][]byte{graphBody(f, smallCell(1)), graphBody(f, smallCell(2)), graphBody(f, serenity.SwiftNetCellA())} {
		f.Add(body, "", "", "", "", "", "", "")
		f.Add(body, "best-effort", "50", "64KiB", "false", "false", "force", "trace")
		f.Add(body, "greedy", "1", "1", "true", "true", "", "")
		f.Add(body[:len(body)*(i+1)/4], "exact", "", "", "", "", "", "")
		flipped := bytes.Clone(body)
		flipped[len(flipped)/(i+2)] ^= 0x20
		f.Add(flipped, "", "", "1GiB", "", "", "", "")
	}
	f.Add([]byte(`{}`), "", "", "", "", "", "", "")
	f.Add([]byte(`{"nodes":[{"id":0,"op":"Input","shape":[1]}]}`), "bogus", "-1", "x", "maybe", "2", "yes", "all")

	cfg := testConfig()
	cfg.maxNodes, cfg.computeTimeout = 64, 2*time.Second
	s, err := build(cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(s.close)
	s.maxBody = 1 << 16
	h := s.handler()
	allowed := map[int]bool{200: true, 304: true, 400: true, 413: true, 422: true, 429: true, 503: true}
	f.Fuzz(func(t *testing.T, body []byte, strategy, deadlineMS, budget, rewrite, partition, degrade, debug string) {
		q := url.Values{}
		for k, v := range map[string]string{"strategy": strategy, "deadline_ms": deadlineMS, "budget": budget,
			"rewrite": rewrite, "partition": partition, "degrade": degrade, "debug": debug} {
			if v != "" {
				q.Set(k, v)
			}
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule?"+q.Encode(), bytes.NewReader(body)))
		if !allowed[rec.Code] {
			t.Fatalf("status %d for ?%s body %q: %s", rec.Code, q.Encode(), body, rec.Body)
		}
		if rec.Code == http.StatusOK && !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("200 body is not JSON: %s", rec.Body)
		}
		if rec.Code >= 400 && !strings.Contains(rec.Body.String(), `"error"`) {
			t.Fatalf("status %d without an error body: %s", rec.Code, rec.Body)
		}
	})
}
