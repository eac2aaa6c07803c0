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
	// Timeout bounds each HTTP call. Sync moves bulk in the background, so it
	// gets a far more lenient budget than the compile path's fetches.
	// Default 10s.
	Timeout time.Duration
	// HTTPClient overrides the transport (tests).
	HTTPClient *http.Client
	// Health steers rounds away from peers that are not Alive: syncing
	// against a dead peer only burns the round's budget, and anti-entropy is
	// exactly the machinery that heals it once it revives. Nil builds an
	// unprobed view over the ring's peers, under which every peer reads Alive.
	Health *Health
	// OnRound, when non-nil, observes every completed exchange (including
	// Converge's) — a deterministic test and logging hook. Called from the
	// syncing goroutine; must not block for long.
	OnRound func(peer string, added int, err error)
	// Tracer, when non-nil, opens a "sync.round" trace per exchange and
	// propagates its context to the peer, so the peer's digest/sync serve
	// spans stitch under this node's round trace.
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
	if o.HTTPClient == nil {
		o.HTTPClient = &http.Client{}
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

// Syncer is the pull-based anti-entropy loop: every interval it asks the next
// peer (round-robin) for its key digest, diffs against the local store, and
// pulls a capped batch of the records it is missing. Convergence is eventual
// and deliberately unhurried — the compile path's owner fetches serve the
// latency-sensitive traffic; the syncer's job is that a rebooted, rejoined,
// or drop-afflicted node ends up with the full corpus anyway.
type Syncer struct {
	store Store
	ring  atomic.Pointer[Ring]
	opts  SyncerOptions

	next   int // round-robin cursor over the live peer list
	cancel context.CancelFunc
	wg     sync.WaitGroup
	once   sync.Once

	rounds, pulled, errors atomic.Int64
}

// NewSyncer builds the anti-entropy loop over store and ring. Call Start to
// run it; SyncOnce works without Start for drills and tests.
func NewSyncer(store Store, ring *Ring, opts SyncerOptions) *Syncer {
	s := &Syncer{store: store, opts: opts.withDefaults()}
	if s.opts.Health == nil {
		s.opts.Health = NewHealth(ring.Peers(), HealthOptions{})
	}
	s.ring.Store(ring)
	return s
}

// UpdateRing swaps the membership the syncer pulls over — a join or leave
// took effect. The next round sees the new peer list.
func (s *Syncer) UpdateRing(r *Ring) { s.ring.Store(r) }

// livePeers returns the Alive peers: the ones worth syncing against now.
func (s *Syncer) livePeers() []string {
	peers := s.ring.Load().Peers()
	out := peers[:0]
	for _, p := range peers {
		if s.opts.Health.Live(p) {
			out = append(out, p)
		}
	}
	return out
}

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
	rng := rand.New(rand.NewSource(int64(hash64(s.ring.Load().Self()))))
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

// Converge runs digest-diff-pull passes against every live peer until one
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

// SyncOnce performs one digest-diff-pull exchange with peer and returns the
// number of records imported. Exported so drills and shutdown paths can force
// a deterministic convergence step.
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

func (s *Syncer) syncOnce(ctx context.Context, peer string) (int, error) {
	theirs, err := s.fetchDigest(ctx, peer)
	if err != nil {
		return 0, err
	}
	mine := make(map[uint64]bool, 1024)
	for _, h := range s.store.KeyHashes() {
		mine[h] = true
	}
	missing := make([]uint64, 0, 64)
	for _, h := range theirs {
		if !mine[h] {
			missing = append(missing, h)
			if len(missing) >= s.opts.Batch {
				break // the rest converges on later rounds
			}
		}
	}
	if len(missing) == 0 {
		return 0, nil
	}
	added, err := s.pull(ctx, peer, missing)
	s.pulled.Add(int64(added))
	return added, err
}

// fetchDigest GETs peer's key digest.
func (s *Syncer) fetchDigest(ctx context.Context, peer string) (hashes []uint64, err error) {
	status, err := roundTrip(ctx, s.opts.HTTPClient, s.opts.Timeout, http.MethodGet, peer+digestPath,
		trace.FromContext(ctx).Traceparent(), nil, func(body io.Reader) (err error) {
			hashes, err = readDigest(body)
			return err
		})
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("fleet: digest from %s answered %d", peer, status)
	}
	return hashes, err
}

// pull POSTs the wanted hashes to peer and imports the record stream it
// answers with. The store's ImportMissing skips keys that arrived locally in
// the meantime and payloads that fail validation, so a stale or lying peer
// can waste a round but never poison the store.
func (s *Syncer) pull(ctx context.Context, peer string, want []uint64) (added int, err error) {
	var body bytes.Buffer
	if err := writeDigest(&body, want); err != nil {
		return 0, err
	}
	status, err := roundTrip(ctx, s.opts.HTTPClient, s.opts.Timeout, http.MethodPost, peer+syncPath,
		trace.FromContext(ctx).Traceparent(), &body, func(stream io.Reader) (err error) {
			added, err = s.store.ImportMissing(stream)
			return err
		})
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("fleet: sync pull from %s answered %d", peer, status)
	}
	return added, err
}
