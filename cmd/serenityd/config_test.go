package main

import (
	"bytes"
	"context"
	"flag"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	serenity "github.com/serenity-ml/serenity"
	"github.com/serenity-ml/serenity/internal/fleet"
	"github.com/serenity-ml/serenity/internal/govern"
	"github.com/serenity-ml/serenity/internal/trace"
)

// TestFlagSurfaceGolden pins -h: the names, types, defaults and usage text of
// the 23 values an operator sets. A value no flag sets keeps the default of
// the option that reads it (TestZeroConfigRunsDaemonDefaults). The two
// GOMAXPROCS-derived defaults are normalized so the golden is portable.
func TestFlagSurfaceGolden(t *testing.T) {
	fs := flag.NewFlagSet("serenityd", flag.ContinueOnError)
	bindFlags(fs)
	var buf bytes.Buffer
	fs.SetOutput(&buf)
	fs.PrintDefaults()
	procs := regexp.MustCompile(`(?m)^(  -(?:parallelism|compile-slots) int\n.*\(default )\d+\)$`)
	got := procs.ReplaceAllString(buf.String(), "${1}GOMAXPROCS)")
	want, err := os.ReadFile("testdata/flags.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("flag surface diverged from testdata/flags.golden:\n%s", got)
	}
}

// TestFlagValidation pins the rules finish applies: each rejected value or
// combination fails at flag time with an error naming the flag at fault. A
// component the daemon always builds cannot be switched off with a value
// below 1.
func TestFlagValidation(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name    string
		args    []string
		wantErr string // "" = accepted
	}{
		{"fleet with the default prober", []string{"-peer-addr", "http://a:1", "-store-dir", dir}, ""},
		{"peers without peer-addr", []string{"-peers", "http://a:1"}, "-peers requires -peer-addr"},
		{"peer-addr without a store", []string{"-peer-addr", "http://a:1"}, "-peer-addr requires -store-dir"},
		{"store bound without a store", []string{"-store-max-bytes", "1MiB"}, "-store-max-bytes requires -store-dir"},
		{"unparseable byte size", []string{"-mem-limit", "12XB"}, "-mem-limit"},
		{"no admission control", []string{"-compile-slots", "0"}, "-compile-slots must be positive: the component it sets is always on and can no longer be switched off"},
		{"no refinement", []string{"-refine-workers", "0"}, "-refine-workers must be positive"},
		{"no segment memo", []string{"-segment-memo-size", "0"}, "-segment-memo-size must be positive"},
		{"unlimited peer lane", []string{"-peer-slots", "-1"}, "-peer-slots must be positive"},
		{"no compute budget", []string{"-compute-timeout", "0s"}, "-compute-timeout must be positive"},
		{"no node cap", []string{"-max-nodes", "0"}, "-max-nodes must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("serenityd", flag.ContinueOnError)
			_, finish := bindFlags(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			err := finish()
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("rejected: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("error %v, want one containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestZeroConfigRunsDaemonDefaults: a daemon started without flags and a
// test's zero config run the same values — each value has one default, owned
// by the flag or the option that reads it — and build the same components:
// the zero config switches on nothing but the syncer, which the flags leave
// to -peer-sync-interval.
func TestZeroConfigRunsDaemonDefaults(t *testing.T) {
	fs := flag.NewFlagSet("serenityd", flag.ContinueOnError)
	daemon, finish := bindFlags(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := finish(); err != nil {
		t.Fatal(err)
	}
	zero := config{sync: fleet.SyncerOptions{Interval: time.Hour}}
	type effective struct {
		compileSlots, admitQueue, refineWorkers, refineQueue int
		memoCap, peerSlots, maxNodes, traceRing, syncBatch   int
		computeBudget, probeEvery, probeTimeout              time.Duration
		suspectAfter, deadAfter, reviveAfter                 int
		memLimit                                             int64
	}
	measure := func(cfg *config) effective {
		cfg.storeDir = t.TempDir()
		cfg.peerAddr = "http://127.0.0.1:1"
		cfg.govern.Limit = 64 << 20
		s, _ := startServer(t, *cfg)
		h := s.health.Options()
		return effective{
			compileSlots:  s.admit.slots,
			admitQueue:    s.admit.limit,
			refineWorkers: s.refine.Options().Workers,
			refineQueue:   s.refine.Options().QueueDepth,
			memoCap:       s.segMemo.Cap(),
			peerSlots:     cap(s.peerLane),
			maxNodes:      s.maxNodes,
			traceRing:     s.tracer.RingSize(),
			syncBatch:     s.syncer.Options().Batch,
			computeBudget: s.computeTimeout,
			probeEvery:    h.Interval,
			probeTimeout:  h.Timeout,
			suspectAfter:  h.SuspectAfter,
			deadAfter:     h.DeadAfter,
			reviveAfter:   h.ReviveAfter,
			memLimit:      s.gov.Stats().Limit,
		}
	}
	if got, want := measure(&zero), measure(daemon); got != want {
		t.Errorf("zero config runs %+v, the flagless daemon %+v", got, want)
	}
}

// TestRunBusyPortFailsBeforeBuild: a fleet node started on an occupied port
// must fail at the bind — before it opens (and warm-starts) its store, starts
// a prober, or pulls the fleet corpus.
func TestRunBusyPortFailsBeforeBuild(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cfg := testConfig()
	cfg.addr = ln.Addr().String()
	cfg.storeDir = filepath.Join(t.TempDir(), "store")
	cfg.peerAddr = "http://" + cfg.addr
	cfg.sync.Interval = time.Hour
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := run(ctx, cfg); err == nil {
		t.Fatal("run on an occupied port returned no error")
	}
	if _, err := os.Stat(cfg.storeDir); !os.IsNotExist(err) {
		t.Errorf("store directory exists (stat err %v): the store was opened before the bind failed", err)
	}
}

// TestRunDrainClosesUnusedConnections: connections that were accepted but
// have sent no request must not hold the drain. http.Server.Shutdown alone
// waits 5 seconds for them.
func TestRunDrainClosesUnusedConnections(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.addr, cfg.drainTimeout = ln.Addr().String(), 10*time.Second
	ln.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg) }()

	var first net.Conn
	for deadline := time.Now().Add(10 * time.Second); first == nil; time.Sleep(5 * time.Millisecond) {
		if first, err = net.Dial("tcp", cfg.addr); err != nil && time.Now().After(deadline) {
			t.Fatalf("run never listened: %v", err)
		}
	}
	defer first.Close()
	for i := 0; i < 3; i++ {
		c, err := net.Dial("tcp", cfg.addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
	}
	// The server accepts in order, so once a later connection is answered it
	// has accepted the unused ones too.
	resp, err := http.Get("http://" + cfg.addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	cancel()
	start := time.Now()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
		if took := time.Since(start); took > time.Second {
			t.Errorf("drain took %v with four unused connections open, want under 1s", took)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return within 10s of its context ending")
	}
}

// TestBuildWiresWhatMainWired certifies the hooks build installs between
// components — wiring that used to be exercised only by process-level smokes.
func TestBuildWiresWhatMainWired(t *testing.T) {
	t.Run("refinement is gated and pressure-parked", func(t *testing.T) {
		cfg := testConfig()
		cfg.compileSlots, cfg.admitQueue = 2, 4
		cfg.govern = govern.Options{Limit: 64 << 20, Headroom: 1, ReadLoad: func() int64 { return 0 }}
		cfg.refineOpts = serenity.RefinePoolOptions{Workers: 1, QueueDepth: 4, RequeueInterval: 2 * time.Millisecond}
		s, ts := startServer(t, cfg)

		postScheduleOK(t, ts, "?strategy=best-effort&degrade=force", graphBody(t, smallCell(6)))
		drainRefine(t, s.refine)
		if st, got := s.refine.Stats(), s.admit.admitted[classRefine].Load(); st.Done != 1 || st.Failed != 0 || got != 1 {
			t.Fatalf("refinement %+v took %d refinement-class slots, want one successful run and 1", st, got)
		}

		var ran atomic.Int64
		job := func(context.Context) error { ran.Add(1); return nil }

		ballast := s.gov.Reserve(int64(0.72 * float64(s.gov.Stats().Limit)))
		if lvl := s.gov.Refresh(); lvl != govern.LevelElevated {
			t.Fatalf("ballast yields level %s, want elevated", lvl)
		}
		s.refine.Enqueue(context.Background(), "parked", job)
		for deadline := time.Now().Add(10 * time.Second); s.refine.Stats().Parked == 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("refinement never parked at elevated pressure: %+v", s.refine.Stats())
			}
		}
		if ran.Load() != 0 {
			t.Fatal("a refinement ran at elevated pressure")
		}
		ballast.Release()
		s.gov.Refresh()
		drainRefine(t, s.refine)
		if ran.Load() != 1 || s.refine.Stats().Requeued == 0 {
			t.Errorf("parked refinement did not requeue and run once pressure cleared: %+v", s.refine.Stats())
		}
	})

	t.Run("fleet probes readyz and stitches peer spans", func(t *testing.T) {
		probed := make(chan string, 1)
		peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			select {
			case probed <- r.URL.Path:
			default:
			}
		}))
		defer peer.Close()
		cfg := testConfig()
		cfg.storeDir = t.TempDir()
		cfg.peerAddr, cfg.peerList = "http://127.0.0.1:7433", peer.URL
		cfg.probe.Interval = 10 * time.Millisecond
		s, ts := startServer(t, cfg)
		select {
		case path := <-probed:
			if path != "/readyz" {
				t.Errorf("health probe hit %s, want /readyz", path)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("the prober never probed the peer")
		}

		caller := trace.New(trace.Options{}).StartTrace("caller")
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/peer/segment/absent", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(fleet.TraceparentHeader, caller.Traceparent())
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		frag := s.tracer.Get(caller.TraceID().String())
		if frag == nil || len(frag.Spans) == 0 || frag.Spans[0].Name != "peer.serve.segment" {
			t.Errorf("peer surface recorded no serve span under the caller's trace: %+v", frag)
		}
	})
}
