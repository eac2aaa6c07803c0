package serenity

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/serenity-ml/serenity/internal/trace"
)

// RefinePoolOptions configures a RefinePool.
type RefinePoolOptions struct {
	// Workers is the number of background refinement goroutines; values < 1
	// mean 1.
	Workers int
	// QueueDepth bounds the refinement queue. An enqueue against a full
	// queue is dropped and counted — refinement is best-effort repair, and
	// the serving path must never block on it. Values < 1 mean 256.
	QueueDepth int
	// Pressure, when non-nil, is the memory governor's shed signal: while it
	// returns true, a worker holds the job it picked up instead of running
	// it — refinement is the first work the pressure ladder sheds, since a
	// refining search builds exactly the DP frontiers the process is short of
	// memory for. A held job keeps its key pending (dedup and wait_refined
	// revalidation still see the repair coming), keeps its place ahead of the
	// queue, and runs once pressure clears, so a pressure-forced degradation
	// is never silently permanent. Held jobs count against QueueDepth's bound:
	// at most Workers are held, and the queue behind them stays bounded.
	Pressure func() bool
	// RequeueInterval is how often a worker holding a job re-checks the
	// Pressure signal. Values <= 0 mean 250ms.
	RequeueInterval time.Duration
	// Tracer, when non-nil, records the refinement lifecycle (queued →
	// parked → run) as spans linked back to the trace of the request whose
	// degraded answer the job repairs, so a forced-degraded trace shows its
	// background repair after the fact.
	Tracer *trace.Tracer
}

// RefinePoolStats is a snapshot of a pool's counters. Queued - Done -
// Dropped is the work still in flight (Outstanding).
type RefinePoolStats struct {
	// Queued counts jobs accepted into the queue (deduplicated re-enqueues
	// of a pending key are not accepted and count nowhere).
	Queued int64
	// Done counts jobs that ran to completion, successfully or not; Failed
	// is the subset that returned an error.
	Done   int64
	Failed int64
	// Dropped counts jobs rejected at enqueue (full queue, closed pool) or
	// abandoned before running (pool closed while the job was queued or
	// held).
	Dropped int64
	// Outstanding is the number of accepted jobs not yet finished.
	Outstanding int64
	// Shed counts jobs that had to wait because the Pressure signal was high
	// when a worker picked them up. Requeued counts held jobs resumed after
	// pressure cleared. Parked is the gauge of jobs held right now, at most
	// Workers; they remain Outstanding until run or dropped by Close.
	Shed     int64
	Requeued int64
	Parked   int64
}

// refineJob is one queued refinement: a key (for pending-set dedup), the
// work to run, and the originating request's trace link (zero when the
// request was untraced) plus the lifecycle bookkeeping the trace spans
// report.
type refineJob struct {
	key        string
	run        func(ctx context.Context) error
	link       trace.Link
	enqueuedAt time.Time
	parks      int // 1 when the job waited out pressure
}

// RefinePool is the background half of serve-then-refine: a keyed,
// pressure-held job queue that makes fallbacks provisional instead of
// final. It knows nothing about schedules — a job is a key and a function.
//
// The poison rule (see SegmentMemo) keeps degraded results out of every
// cache tier, which protects future requests from one overloaded moment —
// but it also means a hot key compiled under pressure stays cold for
// everyone until some quiet request happens to recompute it. The pool closes
// that gap without a second write path: the owner of a degraded answer
// enqueues a job that re-runs the same compilation with the pressure removed
// (serenityd: the whole request, keyed by its schedule key), and the exact
// segments that run finds enter memory, disk and the fleet through walkMemo's
// own fill, behind the same singleflight and the same validation every
// request's results pass. A refinement is a recompute, not a repair
// mechanism of its own.
//
// Enqueue order is FIFO and keys are deduplicated while pending, so a hot
// degraded key costs one refinement no matter how many requests hit it.
// The pool is bounded (QueueDepth) and drops on overflow: under sustained
// overload refinement sheds load first, which is exactly its place in the
// priority order (serenityd's jobs additionally compile in its lowest
// admission class). With a Tracer installed every job is bracketed by
// refine.queued and refine.run spans linked to the enqueuing request's trace.
//
// A RefinePool is safe for concurrent use. Close it on shutdown: queued and
// held jobs are dropped, running jobs are canceled, and workers exit.
type RefinePool struct {
	opts RefinePoolOptions

	ctx    context.Context
	cancel context.CancelFunc
	jobs   chan refineJob
	wg     sync.WaitGroup

	mu      sync.Mutex
	pending map[string]struct{}
	closed  bool

	queued      atomic.Int64
	done        atomic.Int64
	failed      atomic.Int64
	dropped     atomic.Int64
	outstanding atomic.Int64
	shed        atomic.Int64
	requeued    atomic.Int64
	parked      atomic.Int64
}

// NewRefinePool starts a pool. The caller owns it and must Close it.
func NewRefinePool(opts RefinePoolOptions) *RefinePool {
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if opts.QueueDepth < 1 {
		opts.QueueDepth = 256
	}
	if opts.RequeueInterval <= 0 {
		opts.RequeueInterval = 250 * time.Millisecond
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &RefinePool{
		opts:    opts,
		ctx:     ctx,
		cancel:  cancel,
		jobs:    make(chan refineJob, opts.QueueDepth),
		pending: make(map[string]struct{}),
	}
	p.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go p.worker()
	}
	return p
}

// Enqueue queues run under key and reports whether it was accepted. Keys
// deduplicate: while a job for key is queued, held or running, further
// enqueues of the same key are declined — the pending job repairs the key
// for everyone — and count nowhere; a full queue or a closed pool declines
// too, counted in Dropped. ctx is consulted only for trace context (when the
// degrading request was traced, the job's lifecycle spans link back to its
// trace ID); it is not a cancellation signal — run receives the pool's own
// context, which has no deadline and ends only at Close.
func (p *RefinePool) Enqueue(ctx context.Context, key string, run func(ctx context.Context) error) bool {
	job := refineJob{key: key, run: run, link: trace.LinkFromContext(ctx), enqueuedAt: time.Now()}
	// The whole admission — closed check, dedup, and the non-blocking send —
	// happens under mu, the same lock Close holds while closing the channel,
	// so a send can never race the close.
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		p.dropped.Add(1)
		return false
	}
	if _, dup := p.pending[key]; dup {
		return false
	}
	select {
	case p.jobs <- job:
		p.pending[key] = struct{}{}
		p.queued.Add(1)
		p.outstanding.Add(1)
		return true
	default:
		p.dropped.Add(1)
		return false
	}
}

// Pending reports whether a refinement for key is queued or running. It is
// the revalidation primitive: serenityd's ?wait_refined= poll and 304
// responses consult it to tell "refinement coming" from "this is final".
func (p *RefinePool) Pending(key string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.pending[key]
	return ok
}

// worker drains the queue. Each job waits out memory pressure, runs under the
// pool's root context — no deadline, canceled only by Close — and retires
// into the counters.
func (p *RefinePool) worker() {
	defer p.wg.Done()
	for job := range p.jobs {
		if !p.waitOutPressure(&job) {
			// Closing: abandon without running.
			p.retire(job.key, &p.dropped)
			continue
		}
		if p.opts.Tracer != nil {
			// The queued span covers enqueue → the moment the job got a
			// worker and pressure let it run.
			p.opts.Tracer.RecordLinked(job.link, "refine.queued", job.enqueuedAt,
				time.Since(job.enqueuedAt), nil,
				trace.Str("key", job.key), trace.Int("parks", int64(job.parks)))
		}
		start := time.Now()
		err := job.run(p.ctx)
		if p.opts.Tracer != nil {
			p.opts.Tracer.RecordLinked(job.link, "refine.run", start, time.Since(start), err,
				trace.Str("key", job.key))
		}
		p.done.Add(1)
		if err != nil {
			p.failed.Add(1)
		}
		p.retire(job.key, nil)
	}
}

// waitOutPressure holds job in its worker while the Pressure signal is high,
// re-checking every RequeueInterval. The key stays pending, so dedup and
// wait_refined still see the repair coming, and the queue behind the worker
// keeps both its order and its bound. It reports false when the pool closes
// first.
func (p *RefinePool) waitOutPressure(job *refineJob) bool {
	if p.ctx.Err() != nil {
		return false
	}
	if p.opts.Pressure == nil || !p.opts.Pressure() {
		return true
	}
	job.parks = 1
	p.shed.Add(1)
	p.parked.Add(1)
	defer p.parked.Add(-1)
	if p.opts.Tracer != nil {
		p.opts.Tracer.RecordLinked(job.link, "refine.parked", time.Now(), 0, nil,
			trace.Str("key", job.key), trace.Int("parks", 1))
	}
	t := time.NewTicker(p.opts.RequeueInterval)
	defer t.Stop()
	for {
		select {
		case <-p.ctx.Done():
			return false
		case <-t.C:
		}
		if !p.opts.Pressure() {
			p.requeued.Add(1)
			return true
		}
	}
}

// retire removes key from the pending set, bumps counter (when non-nil),
// and decrements the outstanding gauge.
func (p *RefinePool) retire(key string, counter *atomic.Int64) {
	if counter != nil {
		counter.Add(1)
	}
	p.mu.Lock()
	delete(p.pending, key)
	p.mu.Unlock()
	p.outstanding.Add(-1)
}

// Quiesce blocks until every accepted job has finished (or been dropped by
// a concurrent Close), or ctx ends. Jobs enqueued after Quiesce is called
// extend the wait. Tests and drains use it as the "refinement has caught
// up" barrier.
func (p *RefinePool) Quiesce(ctx context.Context) error {
	for {
		if p.outstanding.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
}

// Options returns the options the pool runs with, defaults applied.
func (p *RefinePool) Options() RefinePoolOptions { return p.opts }

// Stats returns a snapshot of the pool's counters.
func (p *RefinePool) Stats() RefinePoolStats {
	return RefinePoolStats{
		Queued:      p.queued.Load(),
		Done:        p.done.Load(),
		Failed:      p.failed.Load(),
		Dropped:     p.dropped.Load(),
		Outstanding: p.outstanding.Load(),
		Shed:        p.shed.Load(),
		Requeued:    p.requeued.Load(),
		Parked:      p.parked.Load(),
	}
}

// Close stops the pool: no further jobs are accepted, queued and held jobs
// are dropped, running jobs are canceled promptly, and workers exit before
// Close returns. Closing twice is safe.
func (p *RefinePool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.cancel()
	close(p.jobs) // under mu: no Enqueue can be mid-send (see Enqueue)
	p.mu.Unlock()
	p.wg.Wait()
}
