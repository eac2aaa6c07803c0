package main

import (
	"bytes"
	"context"
	"hash/maphash"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	serenity "github.com/serenity-ml/serenity"
)

// class names one kind of request inside a workload; per-class latency is a
// per-layer figure, and validation expects a class-specific quality.
type class uint8

const (
	classCold     class = iota // never-seen graph: a fresh DP search
	classHot                   // preloaded graph: whole-response cache hit
	classSegwarm               // never-seen stacking of preloaded cells: memo hits only
	classDisk                  // compiled before a restart: disk hits only
	classPeer                  // compiled on another node: peer fetches and disk hits
	classDegraded              // forced heuristic answer, refined in the background
	numClasses
)

func (c class) String() string {
	return [...]string{"cold", "hot", "segwarm", "disk", "peer", "degraded"}[c]
}

// degradeQuery forces the best-effort searcher straight to its heuristic.
const degradeQuery = "?strategy=best-effort&degrade=force"

// request is one pre-generated /v1/schedule call. Everything the timed loop
// needs is built before timing starts.
type request struct {
	class class
	g     *serenity.Graph
	body  []byte
	query string
	// ref indexes the set-up answer this request's order must equal byte for
	// byte (warm ≡ cold); -1 when the graph was never sent before.
	ref int
}

// sample is one attempted request. Times are offsets from the phase start;
// for a closed loop due == sent.
type sample struct {
	req    *request
	due    time.Duration
	sent   time.Duration
	done   time.Duration // last body byte read
	status int
	body   []byte
	err    error
}

// latency is what the user waits: from the moment the request was due.
func (s *sample) latency() time.Duration { return s.done - s.due }

// bodies interns response bodies: every repeat of a hot graph answers with the
// same bytes, and keeping one copy instead of thousands keeps the client's
// heap, and so its collector and the kernel's page zeroing, off the two cores
// the server is being measured on.
type bodies struct {
	mu   sync.Mutex
	seed maphash.Seed
	seen map[uint64][]byte
}

func newBodies() *bodies {
	return &bodies{seed: maphash.MakeSeed(), seen: map[uint64][]byte{}}
}

func (b *bodies) intern(body []byte) []byte {
	sum := maphash.Bytes(b.seed, body)
	b.mu.Lock()
	defer b.mu.Unlock()
	if old, ok := b.seen[sum]; ok && bytes.Equal(old, body) {
		return old
	}
	b.seen[sum] = body
	return body
}

// newClient returns a keep-alive client capped at conns connections to one
// server, so the generator never holds more than the workload states.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// fire sends r and reads the whole answer. The response is kept as raw bytes:
// validation runs after the timed phase so it never competes with the server
// for the two cores.
func fire(ctx context.Context, client *http.Client, kept *bodies, url string, r *request, s *sample, start time.Time) {
	s.req = r
	s.sent = time.Since(start)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/schedule"+r.query, bytes.NewReader(r.body))
	if err != nil {
		s.err, s.done = err, time.Since(start)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		s.err, s.done = err, time.Since(start)
		return
	}
	buf := bytes.NewBuffer(make([]byte, 0, len(r.body)+len(r.body)/2))
	_, err = io.Copy(buf, resp.Body)
	resp.Body.Close()
	s.done = time.Since(start)
	s.status, s.body, s.err = resp.StatusCode, kept.intern(buf.Bytes()), err
}

// drive sends reqs in order over at most conns connections and returns one
// sample per request and the wall time of the phase. With dues nil it is a
// closed loop: conns callers, each sending its next request only after the
// previous answer is complete. With dues it is an open loop: each sender takes
// the next request in due order and sleeps until it is due, whatever happened
// to earlier ones; when every connection is busy past a due time the request
// leaves late, and the wait counts into its latency because latency runs from
// the due time. Requests the context cut off carry its error and count as
// failed.
func drive(ctx context.Context, url string, reqs []*request, dues []time.Duration, conns int) ([]sample, time.Duration) {
	client := newClient(conns)
	defer client.CloseIdleConnections()
	samples := make([]sample, len(reqs))
	kept := newBodies()
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				s := &samples[i]
				if dues == nil {
					fire(ctx, client, kept, url, reqs[i], s, start)
					s.due = s.sent
					continue
				}
				if wait := dues[i] - time.Since(start); wait > 0 {
					select {
					case <-time.After(wait):
					case <-ctx.Done():
					}
				}
				s.due = dues[i]
				fire(ctx, client, kept, url, reqs[i], s, start)
			}
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}
