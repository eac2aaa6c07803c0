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
	// the serving path must never block on it. Values < 1 mean 64.
	QueueDepth int
	// Gate, when non-nil, is acquired around every refinement run. It is
	// how serenityd subordinates refinement to live traffic: the gate is an
	// admission-control slot in the lowest priority class, so a refinement
	// only occupies a compile slot when no interactive or batch request
	// wants it. Gate blocks until a slot is free and returns its release,
	// or an error when ctx ends (the job is then dropped, not failed).
	Gate func(ctx context.Context) (release func(), err error)
	// Pressure, when non-nil, is the memory governor's shed signal: while it
	// returns true, workers park jobs instead of running them — refinement
	// is the first work the pressure ladder sheds, since a refining search
	// builds exactly the DP frontiers the process is short of memory for. A
	// parked job keeps its key pending (dedup and wait_refined revalidation
	// still see the repair coming) and is re-enqueued once pressure clears,
	// so a pressure-forced degradation is never silently permanent.
	Pressure func() bool
	// RequeueInterval is the cadence at which parked jobs are re-tried
	// against the Pressure signal. Values <= 0 mean 250ms.
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
	// abandoned before running (pool closed while the job waited, gate
	// refused).
	Dropped int64
	// Outstanding is the number of accepted jobs not yet finished.
	Outstanding int64
	// Shed counts jobs parked because the Pressure signal was high when a
	// worker picked them up (a job parked, requeued, and parked again
	// counts each time). Requeued counts re-injections of parked jobs after
	// pressure cleared. Parked is the gauge of jobs currently waiting out
	// pressure; they remain Outstanding until run or dropped by Close.
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
	parks      int
}

// RefinePool is the background half of serve-then-refine: a keyed, gated,
// pressure-parked job queue that makes fallbacks provisional instead of
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
// priority order (serenityd additionally routes every job through the lowest
// admission class via Gate). With a Tracer installed every job is bracketed
// by refine.queued and refine.run spans linked to the enqueuing request's
// trace.
//
// A RefinePool is safe for concurrent use. Close it on shutdown: queued
// jobs are dropped, running jobs are canceled, and workers exit.
type RefinePool struct {
	opts RefinePoolOptions

	ctx    context.Context
	cancel context.CancelFunc
	jobs   chan refineJob
	wg     sync.WaitGroup

	mu      sync.Mutex
	pending map[string]struct{}
	parked  []refineJob
	closed  bool

	queued      atomic.Int64
	done        atomic.Int64
	failed      atomic.Int64
	dropped     atomic.Int64
	outstanding atomic.Int64
	shed        atomic.Int64
	requeued    atomic.Int64
}

// NewRefinePool starts a pool. The caller owns it and must Close it.
func NewRefinePool(opts RefinePoolOptions) *RefinePool {
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if opts.QueueDepth < 1 {
		opts.QueueDepth = 64
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
	if opts.Pressure != nil {
		iv := opts.RequeueInterval
		if iv <= 0 {
			iv = 250 * time.Millisecond
		}
		p.wg.Add(1)
		go p.requeueLoop(iv)
	}
	return p
}

// Enqueue queues run under key and reports whether it was accepted. Keys
// deduplicate: while a job for key is queued, parked or running, further
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

// worker drains the queue. Each job acquires the Gate (when configured),
// runs under the pool's root context — no deadline, canceled only by Close
// — and retires into the counters.
func (p *RefinePool) worker() {
	defer p.wg.Done()
	for job := range p.jobs {
		if p.ctx.Err() != nil {
			// Closing: abandon without running.
			p.retire(job.key, &p.dropped)
			continue
		}
		if p.opts.Pressure != nil && p.opts.Pressure() {
			// Memory pressure: park instead of running. The key stays
			// pending, so dedup and wait_refined still see the repair
			// coming; requeueLoop re-injects once pressure clears.
			p.park(job)
			continue
		}
		var release func()
		if p.opts.Gate != nil {
			var err error
			release, err = p.opts.Gate(p.ctx)
			if err != nil {
				p.retire(job.key, &p.dropped)
				continue
			}
		}
		if p.opts.Tracer != nil {
			// The queued span covers enqueue → the moment the job got a
			// worker AND a gate slot: the full wait a degraded answer sat
			// unrepaired, parks included.
			p.opts.Tracer.RecordLinked(job.link, "refine.queued", job.enqueuedAt,
				time.Since(job.enqueuedAt), nil,
				trace.Str("key", job.key), trace.Int("parks", int64(job.parks)))
		}
		start := time.Now()
		err := job.run(p.ctx)
		if release != nil {
			release()
		}
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

// park sets a job aside under memory pressure. The job remains pending and
// outstanding; only Close or a successful requeue moves it on. If the pool
// closed while the worker was deciding, the job is dropped instead.
func (p *RefinePool) park(job refineJob) {
	job.parks++
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.retire(job.key, &p.dropped)
		return
	}
	p.parked = append(p.parked, job)
	p.mu.Unlock()
	p.shed.Add(1)
	if p.opts.Tracer != nil {
		p.opts.Tracer.RecordLinked(job.link, "refine.parked", time.Now(), 0, nil,
			trace.Str("key", job.key), trace.Int("parks", int64(job.parks)))
	}
}

// requeueLoop re-injects parked jobs into the queue once the Pressure signal
// clears. Sends happen under mu with the closed flag checked — the same
// discipline as Enqueue — so they can never race Close's channel close. A
// full queue leaves the remainder parked for the next tick.
func (p *RefinePool) requeueLoop(iv time.Duration) {
	defer p.wg.Done()
	t := time.NewTicker(iv)
	defer t.Stop()
	for {
		select {
		case <-p.ctx.Done():
			return
		case <-t.C:
		}
		if p.opts.Pressure() {
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return
		}
		moved := 0
		for moved < len(p.parked) {
			select {
			case p.jobs <- p.parked[moved]:
				moved++
			default:
				// Queue full: stop here, keep the rest parked.
				goto drained
			}
		}
	drained:
		if moved > 0 {
			p.parked = append(p.parked[:0], p.parked[moved:]...)
			p.requeued.Add(int64(moved))
		}
		p.mu.Unlock()
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

// Stats returns a snapshot of the pool's counters.
func (p *RefinePool) Stats() RefinePoolStats {
	p.mu.Lock()
	parked := int64(len(p.parked))
	p.mu.Unlock()
	return RefinePoolStats{
		Queued:      p.queued.Load(),
		Done:        p.done.Load(),
		Failed:      p.failed.Load(),
		Dropped:     p.dropped.Load(),
		Outstanding: p.outstanding.Load(),
		Shed:        p.shed.Load(),
		Requeued:    p.requeued.Load(),
		Parked:      parked,
	}
}

// Close stops the pool: no further jobs are accepted, queued jobs are
// dropped, running jobs are canceled promptly, and workers exit before
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
	parked := p.parked
	p.parked = nil
	p.mu.Unlock()
	for _, job := range parked {
		p.retire(job.key, &p.dropped)
	}
	p.wg.Wait()
}
