package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/serenity-ml/serenity/internal/trace"
)

// SyncerOptions tune the anti-entropy loop. The zero value is usable.
type SyncerOptions struct {
	// Interval between rounds; each round talks to exactly one peer. Jittered
	// ±20% so a fleet restarted together does not synchronize its pulls.
	// Default 15s.
	Interval time.Duration
	// Batch caps the records pulled per round. A rebooted node converges over
	// several rounds instead of slamming one peer for the whole corpus — the
	// no-thundering-herd rule. Default 512.
	Batch int
	// Timeout bounds each exchange. Sync moves bulk in the background, so it
	// gets a far more lenient budget than the compile path's fetches.
	// Default 10s.
	Timeout time.Duration
	// OnRound, when non-nil, observes every completed exchange (including
	// Converge's) — a deterministic test and logging hook. Called from the
	// syncing goroutine; must not block for long.
	OnRound func(peer string, added int, err error)
	// Tracer, when non-nil, opens a "sync.round" trace per exchange and
	// propagates its context to the peer, so the peer's sync serve span
	// stitches under this node's round trace.
	Tracer *trace.Tracer
}

func (o SyncerOptions) withDefaults() SyncerOptions {
	if o.Interval <= 0 {
		o.Interval = 15 * time.Second
	}
	if o.Batch <= 0 {
		o.Batch = 512
	}
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	return o
}

// SyncerStats is a snapshot of the anti-entropy counters.
type SyncerStats struct {
	// Rounds counts completed peer exchanges (including no-op ones); Pulled
	// the records imported from peers; Errors rounds that failed (unreachable
	// peer, alien stream).
	Rounds int64
	Pulled int64
	Errors int64
}

// Syncer is the pull-based anti-entropy loop: every interval it posts the
// digest of the keys it holds to the next peer (round-robin), and the peer
// streams back a capped batch of the records the digest lacks. Convergence is
// eventual and deliberately unhurried — the compile path's owner fetches
// serve the latency-sensitive traffic; the syncer's job is that a rebooted,
// rejoined, or drop-afflicted node ends up with the full corpus anyway.
type Syncer struct {
	store  Store
	client *Client
	opts   SyncerOptions

	next   int // round-robin cursor over the live peer list
	cancel context.CancelFunc
	wg     sync.WaitGroup
	once   sync.Once

	rounds, pulled, errors atomic.Int64
}

// NewSyncer builds the anti-entropy loop over store. Every round reads the
// membership, the health view and the transport from client, so a join or
// leave applied to the client reaches the syncer too, and rounds skip peers
// that are not Alive. Call Start to run it; SyncOnce works without Start for
// drills and tests.
func NewSyncer(store Store, client *Client, opts SyncerOptions) *Syncer {
	return &Syncer{store: store, client: client, opts: opts.withDefaults()}
}

// livePeers returns the Alive peers: the ones worth syncing against now.
func (s *Syncer) livePeers() []string {
	peers := s.client.Ring().Peers()
	out := peers[:0]
	for _, p := range peers {
		if s.client.opts.Health.Live(p) {
			out = append(out, p)
		}
	}
	return out
}

// Options returns the options the syncer runs with, defaults applied.
func (s *Syncer) Options() SyncerOptions { return s.opts }

// Stats returns a snapshot of the syncer's counters.
func (s *Syncer) Stats() SyncerStats {
	return SyncerStats{Rounds: s.rounds.Load(), Pulled: s.pulled.Load(), Errors: s.errors.Load()}
}

// Start launches the background loop. The loop idles through rounds where
// no live peer exists — membership is dynamic now, so a node booted alone
// still syncs the moment a peer joins. Stop it with Stop.
func (s *Syncer) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	s.wg.Add(1)
	go s.loop(ctx)
}

// Stop halts the loop and waits for an in-flight round to finish. Idempotent;
// safe to call even if Start never ran.
func (s *Syncer) Stop() {
	s.once.Do(func() {
		if s.cancel != nil {
			s.cancel()
		}
		s.wg.Wait()
	})
}

func (s *Syncer) loop(ctx context.Context) {
	defer s.wg.Done()
	rng := rand.New(rand.NewSource(int64(hash64(s.client.Ring().Self()))))
	for {
		// ±20% jitter, seeded from the member address so each node wanders
		// its own schedule: a fleet restarted together must not line up its
		// pulls on the same peer at the same instant.
		d := s.opts.Interval + time.Duration((rng.Float64()-0.5)*0.4*float64(s.opts.Interval))
		select {
		case <-ctx.Done():
			return
		case <-time.After(d):
		}
		peers := s.livePeers()
		if len(peers) == 0 {
			continue // alone, or everyone is down; try again next round
		}
		peer := peers[s.next%len(peers)]
		s.next++
		if _, err := s.SyncOnce(ctx, peer); err != nil {
			s.errors.Add(1)
		}
	}
}

// Converge runs sync passes against every live peer until one
// full pass imports nothing, and returns the total records imported. This is
// the join/rejoin handoff: a node entering the ring pre-streams the corpus —
// its owned keys included — BEFORE reporting ready, so the moment peers
// start routing to it, it serves from its store instead of re-running DPs.
// An unreachable peer's error is remembered but does not abort the pass; the
// last error is returned alongside whatever did converge, and the caller
// (which has a boot deadline) decides whether partial convergence is
// acceptable. ctx cancellation aborts between exchanges.
func (s *Syncer) Converge(ctx context.Context) (int, error) {
	total := 0
	var lastErr error
	// A pass cap guards against a peer that grows its corpus faster than we
	// pull; 10k passes of Batch records each is far beyond any real store.
	for pass := 0; pass < 10000; pass++ {
		peers := s.livePeers()
		if len(peers) == 0 {
			return total, lastErr
		}
		added := 0
		lastErr = nil
		for _, peer := range peers {
			if err := ctx.Err(); err != nil {
				return total, err
			}
			n, err := s.SyncOnce(ctx, peer)
			if err != nil {
				s.errors.Add(1)
				lastErr = err
				continue
			}
			added += n
		}
		total += added
		if added == 0 {
			return total, lastErr
		}
	}
	return total, lastErr
}

// SyncOnce performs one exchange with peer and returns the number of records
// imported. Exported so drills and shutdown paths can force a deterministic
// convergence step.
func (s *Syncer) SyncOnce(ctx context.Context, peer string) (int, error) {
	var span *trace.SpanHandle
	if s.opts.Tracer != nil && trace.FromContext(ctx) == nil {
		// Anti-entropy runs on its own schedule with no caller to inherit a
		// trace from, so each sampled round opens its own.
		if s.opts.Tracer.Sample() {
			span = s.opts.Tracer.StartTrace("sync.round", trace.Str("peer", peer))
			ctx = trace.ContextWith(ctx, span)
		}
	}
	added, err := s.syncOnce(ctx, peer)
	if span != nil {
		span.Annotate(trace.Int("added", int64(added)))
		s.opts.Tracer.Finish(span, trace.Outcome{Err: err})
	}
	s.rounds.Add(1)
	if s.opts.OnRound != nil {
		s.opts.OnRound(peer, added, err)
	}
	return added, err
}

// syncOnce POSTs the digest of every key this node holds, capped at Batch
// records, and imports the record stream the peer answers with; the rest
// converges on later rounds. The store's ImportMissing skips keys that
// arrived locally in the meantime and payloads that fail validation, so a
// stale or lying peer can waste a round but never poison the store.
func (s *Syncer) syncOnce(ctx context.Context, peer string) (added int, err error) {
	body := bytes.NewReader(encodeDigest(s.opts.Batch, s.store.KeyHashes()))
	status, err := roundTrip(ctx, s.client.opts.HTTPClient, s.opts.Timeout, http.MethodPost, peer+syncPath,
		trace.FromContext(ctx).Traceparent(), body, func(stream io.Reader) (err error) {
			added, err = s.store.ImportMissing(stream)
			return err
		})
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("fleet: sync with %s answered %d", peer, status)
	}
	s.pulled.Add(int64(added))
	return added, err
}
