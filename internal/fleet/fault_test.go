package fleet

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// FaultRule describes the failure injected for traffic toward one peer (or,
// via SetAll, toward everyone). Fields compose: a Delay is applied first,
// then Drop/DropProb, then ErrorStatus.
type FaultRule struct {
	// Drop fails the request with a transport error — what a kill -9'd or
	// partitioned peer looks like from this side of the wire.
	Drop bool
	// DropProb drops the request with this probability, using the
	// transport's seeded RNG: deterministic flaky-network soak.
	DropProb float64
	// Delay stalls the request before anything else happens; the request's
	// own context keeps ticking, so a Delay beyond the caller's budget is a
	// timeout. Models a slow peer.
	Delay time.Duration
	// ErrorStatus, when nonzero, answers with this HTTP status and no body
	// instead of forwarding — a peer that is up but failing (5xx).
	ErrorStatus int
}

// zero reports an all-defaults rule, i.e. "no fault".
func (r FaultRule) zero() bool {
	return !r.Drop && r.DropProb == 0 && r.Delay == 0 && r.ErrorStatus == 0
}

// FaultStats counts the faults the transport actually injected.
type FaultStats struct {
	Dropped int64
	Delayed int64
	Errored int64
}

// FaultTransport is an http.RoundTripper that injects per-peer faults —
// drops, delays, partitions, synthesized error statuses — in front of a real
// transport. It is the chaos harness's network: tests and the fleet drill
// wrap every fleet HTTP client (fetch, replication, sync, health probes)
// with one, so killing, partitioning, and healing a node is a rule edit, not
// process surgery, and a seeded RNG makes probabilistic faults replayable.
//
// Rules are keyed by the peer's URL host ("10.0.0.5:7433"); SetRule accepts
// the same base-URL form ring members use. Safe for concurrent use.
type FaultTransport struct {
	base http.RoundTripper

	mu    sync.Mutex
	rng   *rand.Rand
	rules map[string]FaultRule
	all   *FaultRule

	dropped, delayed, errored atomic.Int64
}

// NewFaultTransport wraps base (nil selects http.DefaultTransport) with a
// fault layer seeded for deterministic probabilistic rules.
func NewFaultTransport(base http.RoundTripper, seed int64) *FaultTransport {
	if base == nil {
		base = http.DefaultTransport
	}
	return &FaultTransport{
		base:  base,
		rng:   rand.New(rand.NewSource(seed)),
		rules: make(map[string]FaultRule),
	}
}

// hostOf normalizes a peer base URL ("http://10.0.0.5:7433/") to the host
// requests will carry.
func hostOf(peer string) string {
	peer = strings.TrimSuffix(strings.TrimSpace(peer), "/")
	if u, err := url.Parse(peer); err == nil && u.Host != "" {
		return u.Host
	}
	return peer
}

// SetRule installs (or, for a zero rule, clears) the fault applied to
// traffic toward peer.
func (t *FaultTransport) SetRule(peer string, rule FaultRule) {
	host := hostOf(peer)
	t.mu.Lock()
	defer t.mu.Unlock()
	if rule.zero() {
		delete(t.rules, host)
		return
	}
	t.rules[host] = rule
}

// ClearRule removes peer's fault rule.
func (t *FaultTransport) ClearRule(peer string) { t.SetRule(peer, FaultRule{}) }

// SetAll installs a rule applied to every request regardless of peer —
// isolating this node's whole outbound side. Per-peer rules take precedence.
func (t *FaultTransport) SetAll(rule FaultRule) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if rule.zero() {
		t.all = nil
		return
	}
	r := rule
	t.all = &r
}

// Partition makes peer unreachable from this node (a one-directional cut;
// partition the reverse direction on peer's own transports).
func (t *FaultTransport) Partition(peer string) { t.SetRule(peer, FaultRule{Drop: true}) }

// Heal removes peer's fault rule — the cut is repaired.
func (t *FaultTransport) Heal(peer string) { t.ClearRule(peer) }

// Isolate cuts this node off from everyone (its half of a full partition).
func (t *FaultTransport) Isolate() { t.SetAll(FaultRule{Drop: true}) }

// Rejoin clears the Isolate rule and every per-peer rule.
func (t *FaultTransport) Rejoin() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.all = nil
	t.rules = make(map[string]FaultRule)
}

// Stats returns how many faults were actually injected.
func (t *FaultTransport) Stats() FaultStats {
	return FaultStats{
		Dropped: t.dropped.Load(),
		Delayed: t.delayed.Load(),
		Errored: t.errored.Load(),
	}
}

// ruleFor picks the effective rule for a request host and rolls the
// probabilistic drop under the lock so replays see the same dice.
func (t *FaultTransport) ruleFor(host string) (FaultRule, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	rule, ok := t.rules[host]
	if !ok {
		if t.all == nil {
			return FaultRule{}, false
		}
		rule = *t.all
	}
	if rule.DropProb > 0 && t.rng.Float64() < rule.DropProb {
		rule.Drop = true
	}
	return rule, true
}

// RoundTrip implements http.RoundTripper.
func (t *FaultTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	rule, ok := t.ruleFor(req.URL.Host)
	if !ok {
		return t.base.RoundTrip(req)
	}
	if rule.Delay > 0 {
		t.delayed.Add(1)
		timer := time.NewTimer(rule.Delay)
		select {
		case <-req.Context().Done():
			timer.Stop()
			if req.Body != nil {
				req.Body.Close()
			}
			return nil, req.Context().Err()
		case <-timer.C:
		}
	}
	if rule.Drop {
		t.dropped.Add(1)
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("fleet: injected fault: %s unreachable", req.URL.Host)
	}
	if rule.ErrorStatus != 0 {
		t.errored.Add(1)
		if req.Body != nil {
			req.Body.Close()
		}
		return &http.Response{
			Status:     fmt.Sprintf("%d injected fault", rule.ErrorStatus),
			StatusCode: rule.ErrorStatus,
			Proto:      "HTTP/1.1",
			ProtoMajor: 1, ProtoMinor: 1,
			Header:  make(http.Header),
			Body:    io.NopCloser(strings.NewReader("injected fault")),
			Request: req,
		}, nil
	}
	return t.base.RoundTrip(req)
}

// faultClient wraps srv behind a FaultTransport-backed http.Client.
func faultClient(seed int64) (*FaultTransport, *http.Client) {
	ft := NewFaultTransport(nil, seed)
	return ft, &http.Client{Transport: ft}
}

func TestFaultTransportPassthrough(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	defer srv.Close()
	_, hc := faultClient(1)
	resp, err := hc.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || string(body) != "ok" {
		t.Fatalf("passthrough answered %d %q", resp.StatusCode, body)
	}
}

func TestFaultTransportPartitionAndHeal(t *testing.T) {
	var served int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served++
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()
	ft, hc := faultClient(1)
	ft.Partition(srv.URL)
	if _, err := hc.Get(srv.URL); err == nil {
		t.Fatal("partitioned peer answered")
	}
	if served != 0 {
		t.Fatal("the request crossed the partition")
	}
	ft.Heal(srv.URL)
	if _, err := hc.Get(srv.URL); err != nil {
		t.Fatalf("healed peer still unreachable: %v", err)
	}
	if st := ft.Stats(); st.Dropped != 1 {
		t.Errorf("Dropped=%d, want 1", st.Dropped)
	}
}

func TestFaultTransportIsolateAndRejoin(t *testing.T) {
	a := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	defer a.Close()
	b := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	defer b.Close()
	ft, hc := faultClient(1)
	ft.Isolate()
	if _, err := hc.Get(a.URL); err == nil {
		t.Fatal("isolated node reached peer a")
	}
	if _, err := hc.Get(b.URL); err == nil {
		t.Fatal("isolated node reached peer b")
	}
	ft.Rejoin()
	if _, err := hc.Get(a.URL); err != nil {
		t.Fatalf("rejoin did not restore a: %v", err)
	}
	if _, err := hc.Get(b.URL); err != nil {
		t.Fatalf("rejoin did not restore b: %v", err)
	}
}

func TestFaultTransportErrorStatus(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t.Error("request reached the real server through an ErrorStatus rule")
	}))
	defer srv.Close()
	ft, hc := faultClient(1)
	ft.SetRule(srv.URL, FaultRule{ErrorStatus: http.StatusBadGateway})
	resp, err := hc.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status=%d, want 502", resp.StatusCode)
	}
	if st := ft.Stats(); st.Errored != 1 {
		t.Errorf("Errored=%d, want 1", st.Errored)
	}
}

func TestFaultTransportDelayHonorsContext(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()
	ft, hc := faultClient(1)
	ft.SetRule(srv.URL, FaultRule{Delay: time.Minute})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL, nil)
	start := time.Now()
	if _, err := hc.Do(req); err == nil {
		t.Fatal("delayed request succeeded before its context expired")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("delay ignored the request context: took %v", elapsed)
	}
}

// TestFaultTransportSeededDropsReplay pins determinism: two transports with
// the same seed must roll the same probabilistic drops in the same order.
func TestFaultTransportSeededDropsReplay(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()
	run := func(seed int64) []bool {
		ft, hc := faultClient(seed)
		ft.SetRule(srv.URL, FaultRule{DropProb: 0.5})
		out := make([]bool, 40)
		for i := range out {
			resp, err := hc.Get(srv.URL)
			if err == nil {
				resp.Body.Close()
			}
			out[i] = err != nil
		}
		return out
	}
	a, b := run(42), run(42)
	dropped := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at request %d", i)
		}
		if a[i] {
			dropped++
		}
	}
	if dropped == 0 || dropped == len(a) {
		t.Fatalf("DropProb=0.5 dropped %d/%d; the dice are not rolling", dropped, len(a))
	}
}

// TestFaultTransportPerPeerPrecedence: a per-peer rule wins over SetAll.
func TestFaultTransportPerPeerPrecedence(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	defer srv.Close()
	ft, hc := faultClient(1)
	ft.SetAll(FaultRule{Drop: true})
	ft.SetRule(srv.URL, FaultRule{ErrorStatus: http.StatusTeapot})
	resp, err := hc.Get(srv.URL)
	if err != nil {
		t.Fatalf("per-peer rule lost to SetAll: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTeapot {
		t.Fatalf("status=%d, want 418", resp.StatusCode)
	}
}

func TestHostOfNormalizesPeerForms(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"http://10.0.0.5:7433", "10.0.0.5:7433"},
		{"http://10.0.0.5:7433/", "10.0.0.5:7433"},
		{" http://host:1 ", "host:1"},
		{"host-only", "host-only"},
	} {
		if got := hostOf(tc.in); got != tc.want {
			t.Errorf("hostOf(%q)=%q, want %q", tc.in, got, tc.want)
		}
	}
}
