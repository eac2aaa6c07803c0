package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"github.com/serenity-ml/serenity/internal/trace"
)

// Peer endpoint paths, shared by Client and Server so the two sides cannot
// drift apart.
const (
	segmentPathPrefix = "/v1/peer/segment/"
	syncPath          = "/v1/peer/sync"
	// PingPath is the fleet-native liveness probe target: ungated, bodyless,
	// 204. Health probes default to it; serenityd points them at /readyz
	// instead so readiness (including join pre-streaming) gates ownership.
	PingPath = "/v1/peer/ping"
	// TraceparentHeader carries the caller's trace context on every peer
	// request (fetch, replication, anti-entropy), W3C-style, so the owner's
	// serve spans stitch under the caller's trace.
	TraceparentHeader = "traceparent"
)

// replicationQueue bounds the write-behind replication queue; overflow drops
// the replication (the owner converges later via anti-entropy).
const replicationQueue = 256

// maxArtifactBytes bounds one fetched artifact body: at 4 bytes per scheduled
// node this is far beyond any real segment, and it keeps a confused or
// malicious peer from ballooning a fetch into an allocation incident.
const maxArtifactBytes = 16 << 20

// ClientOptions tune the fetch path. The zero value is usable: every field
// falls back to the default documented on it.
type ClientOptions struct {
	// Timeout bounds each fetch attempt. The budget exists so a slow peer
	// costs a small constant instead of the DP time it was trying to save;
	// default 250ms.
	Timeout time.Duration
	// Concurrency bounds in-flight peer fetches. Arrivals beyond the bound
	// miss immediately rather than queue — queueing behind slow fetches is
	// exactly the cost bound this client exists to enforce. Default 8.
	Concurrency int
	// NegativeTTL is how long a fetched miss (owner answered 404) is
	// remembered so a storm of identical cold keys costs one round trip, not
	// one per request. Default 2s.
	NegativeTTL time.Duration
	// HTTPClient overrides the transport (tests); nil uses a dedicated
	// client with sane connection pooling. A Syncer over this client uses
	// the same transport.
	HTTPClient *http.Client
	// Health is the member health view, the fleet's one failure detector:
	// fetches skip any owner that is not Alive and go straight to the next
	// live ring point (a dead owner costs zero added latency once its first
	// probe or fetch fails), replication reroutes only around Dead owners (a
	// Suspect blip is still worth one cheap push), and every transport
	// failure this client observes is fed back into the view. A Syncer over
	// this client syncs only with peers the view reads Alive. Nil builds an
	// unprobed view over the ring's peers that only this client's own
	// outcomes drive; a peer it demotes then never revives.
	Health *Health
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.Timeout <= 0 {
		o.Timeout = 250 * time.Millisecond
	}
	if o.Concurrency <= 0 {
		o.Concurrency = 8
	}
	if o.NegativeTTL <= 0 {
		o.NegativeTTL = 2 * time.Second
	}
	if o.HTTPClient == nil {
		o.HTTPClient = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	return o
}

// ClientStats is a snapshot of the fetch/replication counters.
type ClientStats struct {
	// Hits are fetches that returned an artifact payload; Misses everything
	// else the compile path asked for (404s, errors, negative cache,
	// concurrency shedding). Timeouts is the subset of misses whose
	// attempts ran out the per-attempt budget.
	Hits     int64
	Misses   int64
	Timeouts int64
	// Failovers counts fetches and replications routed to a failover owner
	// because the key's primary owner was not healthy enough for that path.
	Failovers int64
	// Replicated counts write-behind artifact pushes accepted by owners;
	// ReplicationDropped counts pushes shed on queue overflow or shutdown.
	Replicated         int64
	ReplicationDropped int64
}

// replicaPush is one queued write-behind replication. traceparent is the
// originating request's trace context, captured at Replicate time because
// the push itself runs later, under the replicator's own context.
type replicaPush struct {
	key         string
	payload     []byte
	traceparent string
}

// Client is the compile path's peer tier: Fetch asks a key's ring owner for
// the artifact before the caller falls back to running the DP, and Replicate
// pushes locally computed non-owned artifacts to their owners in the
// background. It implements serenity.PeerTier. Safe for concurrent use.
type Client struct {
	ring atomic.Pointer[Ring]
	opts ClientOptions
	sem  chan struct{}

	mu       sync.Mutex
	negative map[string]time.Time // key -> expiry of a remembered miss
	closed   bool

	pushCh  chan replicaPush
	pending atomic.Int64 // enqueued replications not yet fully processed
	wg      sync.WaitGroup

	hits, misses, timeouts atomic.Int64
	failovers              atomic.Int64
	replicated, repDropped atomic.Int64
}

// NewClient builds the peer fetch client for ring. Close it on shutdown to
// stop the replication worker.
func NewClient(ring *Ring, opts ClientOptions) *Client {
	o := opts.withDefaults()
	if o.Health == nil {
		o.Health = NewHealth(ring.Peers(), HealthOptions{})
	}
	c := &Client{
		opts:     o,
		sem:      make(chan struct{}, o.Concurrency),
		negative: make(map[string]time.Time),
		pushCh:   make(chan replicaPush, replicationQueue),
	}
	c.ring.Store(ring)
	c.wg.Add(1)
	go c.replicator()
	return c
}

// Ring returns the membership the client currently routes over.
func (c *Client) Ring() *Ring { return c.ring.Load() }

// UpdateRing swaps the membership the client routes over — a join or leave
// took effect — and hands the new peer set to the health view. In-flight
// fetches finish against the old ring; that is safe because any owner answers
// only from its store and a misrouted fetch is at worst a 404 miss.
func (c *Client) UpdateRing(r *Ring) {
	c.ring.Store(r)
	c.opts.Health.SetMembers(r.Peers())
}

// route resolves key's owner under one health view, Live for fetches and
// Reachable for replication, counting a failover when that is not the static
// ring owner.
func (c *Client) route(r *Ring, key string, view func(string) bool) string {
	owner := r.LiveOwner(key, view)
	if owner != r.Owner(key) {
		c.failovers.Add(1)
	}
	return owner
}

// Owns implements serenity.PeerTier: whether this node is key's CURRENT
// authoritative owner — the static ring owner, unless health failed
// ownership over to this node. A compile miss on a key this node owns runs
// the DP locally and serves peers afterward, which is exactly what
// ownership failover means.
func (c *Client) Owns(key string) bool {
	r := c.ring.Load()
	return r.LiveOwner(key, c.opts.Health.Live) == r.Self()
}

// Stats returns a snapshot of the client's counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Hits:               c.hits.Load(),
		Misses:             c.misses.Load(),
		Timeouts:           c.timeouts.Load(),
		Failovers:          c.failovers.Load(),
		Replicated:         c.replicated.Load(),
		ReplicationDropped: c.repDropped.Load(),
	}
}

// Fetch implements serenity.PeerTier: it asks key's ring owner for the raw
// artifact payload. Every failure mode — dead peer, slow peer, 404, overload,
// shutdown — returns ok=false so the caller computes locally; Fetch never
// surfaces an error. One retry; every transport failure is reported to the
// health view, which is what stops later fetches from dialing a dead owner.
func (c *Client) Fetch(ctx context.Context, key string) ([]byte, bool) {
	r := c.ring.Load()
	owner := c.route(r, key, c.opts.Health.Live)
	if owner == r.Self() {
		return nil, false
	}
	c.mu.Lock()
	if c.closed || time.Now().Before(c.negative[key]) {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	c.mu.Unlock()

	// Bounded concurrency, non-queueing: if every fetch slot is busy the
	// fleet is already saturating its peer budget, and waiting in line would
	// add unbounded latency to a path whose whole contract is "cheap or not
	// at all".
	select {
	case c.sem <- struct{}{}:
	default:
		c.misses.Add(1)
		return nil, false
	}
	defer func() { <-c.sem }()

	reqURL := owner + segmentPathPrefix + url.PathEscape(key)
	tp := trace.FromContext(ctx).Traceparent()
	for attempt := 0; attempt < 2; attempt++ {
		var payload []byte
		status, err := roundTrip(ctx, c.opts.HTTPClient, c.opts.Timeout, http.MethodGet, reqURL, tp, nil,
			func(body io.Reader) (err error) {
				payload, err = io.ReadAll(io.LimitReader(body, maxArtifactBytes+1))
				if err == nil && len(payload) > maxArtifactBytes {
					err = fmt.Errorf("fleet: artifact exceeds %d bytes", maxArtifactBytes)
				}
				return err
			})
		switch {
		case err == nil && status == http.StatusOK:
			c.hits.Add(1)
			c.opts.Health.ReportSuccess(owner)
			return payload, true
		case err == nil && status == http.StatusNotFound:
			// The authoritative owner does not have it; nobody does. Remember
			// the miss so the herd behind this key computes instead of dialing.
			c.mu.Lock()
			c.negative[key] = time.Now().Add(c.opts.NegativeTTL)
			c.pruneNegativeLocked()
			c.mu.Unlock()
			c.misses.Add(1)
			return nil, false
		case err == nil:
			// Overload (429) or an unexpected status: one retry, then miss.
			// The peer is alive, just busy, so the detector hears nothing.
		case ctx.Err() != nil:
			// The compile itself is done waiting; not the peer's fault.
			c.misses.Add(1)
			return nil, false
		default:
			// Feed the detector immediately: with SuspectAfter 1 the very next
			// fetch routed at this owner already fails over, so a dead owner
			// costs the fleet SuspectAfter failed attempts, total.
			c.timeouts.Add(1)
			c.opts.Health.ReportFailure(owner)
		}
	}
	c.misses.Add(1)
	return nil, false
}

// roundTrip is every peer request's one round trip: a per-call timeout, the
// caller's trace context, and a drained body on any non-2xx answer. A 2xx
// body goes to read (nil drains it too). err is set only when the request
// never got an answer or read failed; an answered status comes back with a
// nil error, and each caller applies its own rule to it.
func roundTrip(ctx context.Context, hc *http.Client, timeout time.Duration, method, target, traceparent string,
	body io.Reader, read func(io.Reader) error) (int, error) {
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, method, target, body)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	if traceparent != "" {
		req.Header.Set(TraceparentHeader, traceparent)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 || read == nil {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return resp.StatusCode, nil
	}
	return resp.StatusCode, read(resp.Body)
}

// pruneNegativeLocked bounds the negative cache; expired entries go first,
// and if a flood of distinct cold keys outruns expiry the whole map resets —
// losing remembered misses only costs extra 404s, never correctness.
func (c *Client) pruneNegativeLocked() {
	if len(c.negative) < 4096 {
		return
	}
	now := time.Now()
	for k, exp := range c.negative {
		if now.After(exp) {
			delete(c.negative, k)
		}
	}
	if len(c.negative) >= 4096 {
		c.negative = make(map[string]time.Time)
	}
}

// Replicate implements serenity.PeerTier: it enqueues a write-behind push of
// a locally computed artifact to key's ring owner. Non-blocking — the compile
// path never waits on replication; overflow is dropped and counted, and
// anti-entropy heals whatever the drops missed. ctx contributes only the
// caller's trace context, captured here because the push runs after the
// request (and its context) are gone. The enqueue happens under the lock
// Close holds while it closes the queue, so a push racing Close is dropped,
// never sent on a closed channel.
func (c *Client) Replicate(ctx context.Context, key string, payload []byte) {
	if r := c.ring.Load(); r.Owner(key) == r.Self() {
		return
	}
	p := replicaPush{key: key, payload: payload, traceparent: trace.FromContext(ctx).Traceparent()}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.pending.Add(1)
		select {
		case c.pushCh <- p:
			return
		default:
			c.pending.Add(-1)
		}
	}
	c.repDropped.Add(1)
}

// replicator drains the write-behind queue, PUTting each artifact to its
// owner. Failures are dropped and counted: the artifact still exists locally
// and in the local store, so the only cost is that the owner converges via
// anti-entropy instead of immediately.
func (c *Client) replicator() {
	defer c.wg.Done()
	for p := range c.pushCh {
		c.replicateOne(p)
		c.pending.Add(-1)
	}
}

// replicateOne pushes one artifact. A Dead owner's push goes to the failover
// owner instead, so the keys a dead member would have held keep converging
// onto the member that is actually serving them; a merely Suspect owner still
// gets the push, because a blip is cheaper to retry than to route around.
// A push the owner never answered is reported to the health view, so an
// unreachable owner turns Dead after DeadAfter of them and later pushes
// reroute. Successes are not reported: a joiner still pre-streaming accepts
// PUTs, yet must stay out of routing until its own probes pass.
func (c *Client) replicateOne(p replicaPush) {
	r := c.ring.Load()
	owner := c.route(r, p.key, c.opts.Health.Reachable)
	if owner == r.Self() {
		return
	}
	status, err := roundTrip(context.Background(), c.opts.HTTPClient, c.opts.Timeout, http.MethodPut,
		owner+segmentPathPrefix+url.PathEscape(p.key), p.traceparent, bytes.NewReader(p.payload), nil)
	if err != nil {
		c.opts.Health.ReportFailure(owner)
	}
	if err != nil || (status != http.StatusOK && status != http.StatusNoContent) {
		c.repDropped.Add(1)
		return
	}
	c.replicated.Add(1)
}

// Drain blocks until every replication enqueued before the call has been
// fully attempted (not merely dequeued) — a test and drill barrier, not a
// production path.
func (c *Client) Drain() {
	for {
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed || c.pending.Load() == 0 {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// Close stops the replication worker and makes every later Fetch miss and
// every later Replicate drop. Idempotent.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	close(c.pushCh)
	c.mu.Unlock()
	c.wg.Wait()
}

var _ interface {
	Owns(string) bool
	Fetch(context.Context, string) ([]byte, bool)
	Replicate(context.Context, string, []byte)
} = (*Client)(nil)

// errAlien guards the sync stream decoding paths.
var errAlien = errors.New("fleet: alien sync stream")
