package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/serenity-ml/serenity/internal/govern"
)

// admitClass is a request's admission priority. Lower values are admitted
// first: a live caller waiting on one schedule beats a batch sweep, and both
// beat the background refinement of answers already served.
type admitClass int

const (
	classInteractive admitClass = iota
	classBatch
	classRefine
	numClasses
)

func (c admitClass) String() string {
	switch c {
	case classInteractive:
		return "interactive"
	case classBatch:
		return "batch"
	case classRefine:
		return "refinement"
	}
	return "unknown"
}

// errAdmission is the typed rejection the admission controller returns when a
// class's wait queue is full; the HTTP layer maps it to 429 + Retry-After.
type errAdmission struct {
	class      admitClass
	retryAfter time.Duration
}

func (e *errAdmission) Error() string {
	return fmt.Sprintf("server overloaded: %s admission queue is full, retry in %s", e.class, e.retryAfter)
}

// memPressureRetryAfter is the backoff advice attached to memory-pressure
// rejections. Coarse, like retryAfterFor: heap relief depends on GC and on
// running searches releasing their reservations, both of which resolve in
// seconds, not milliseconds.
const memPressureRetryAfter = 2 * time.Second

// errMemPressure is the typed rejection for memory-governor shedding. Unlike
// errAdmission (the client sent more than the server's queues hold: 429),
// pressure is the server's own condition, so the HTTP layer answers 503 +
// Retry-After — "I am unwell, come back" rather than "you are too eager".
type errMemPressure struct {
	level      govern.Level
	retryAfter time.Duration
	cause      error
}

func (e *errMemPressure) Error() string {
	msg := fmt.Sprintf("server under memory pressure (%s), retry in %s", e.level, e.retryAfter)
	if e.cause != nil {
		msg += ": " + e.cause.Error()
	}
	return msg
}

func (e *errMemPressure) Unwrap() error { return e.cause }

// admission is a strictly prioritized semaphore over the server's compile
// slots. Capacity is the number of concurrently executing compilations
// (-compile-slots); every compilation — an interactive request's, a batch
// item's, a background refinement's — takes exactly one slot and blocks until
// it is granted. Grants are strict priority with FIFO order within each
// class: no slot goes to a class while a higher class has a waiter —
// predictable degradation over maximal utilization. Each class's wait queue
// is bounded; an acquire against a full queue fails immediately with
// errAdmission (the caller answers 429 + Retry-After) rather than hanging the
// connection.
type admission struct {
	mu      sync.Mutex
	free    int
	slots   int
	limit   int
	queues  [numClasses][]chan struct{}
	waiting [numClasses]atomic.Int64 // gauge: queued acquires per class

	admitted [numClasses]atomic.Int64
	rejected [numClasses]atomic.Int64
}

// newAdmission builds a controller with the given slot capacity (minimum 1)
// and per-class wait-queue depth (below 1 means 64).
func newAdmission(slots, queue int) *admission {
	if queue < 1 {
		queue = 64
	}
	return &admission{free: max(slots, 1), slots: max(slots, 1), limit: queue}
}

// acquire takes one compile slot in class, blocking until it is granted or
// ctx ends. The returned release returns the slot and wakes the next waiter;
// it must be called exactly once. A full class queue fails fast with
// *errAdmission.
func (a *admission) acquire(ctx context.Context, class admitClass) (func(), error) {
	a.mu.Lock()
	if len(a.queues[class]) >= a.limit {
		depth := 0
		for c := admitClass(0); c < numClasses; c++ {
			depth += len(a.queues[c])
		}
		a.mu.Unlock()
		a.rejected[class].Add(1)
		return nil, &errAdmission{class: class, retryAfter: retryAfterFor(depth, a.slots)}
	}
	granted := make(chan struct{})
	a.queues[class] = append(a.queues[class], granted)
	a.waiting[class].Add(1)
	a.grantLocked()
	a.mu.Unlock()

	release := func() {
		a.mu.Lock()
		a.free++
		a.grantLocked()
		a.mu.Unlock()
	}
	select {
	case <-granted:
		a.waiting[class].Add(-1)
		a.admitted[class].Add(1)
		return release, nil
	case <-ctx.Done():
	}
	// The waiter gave up; it may have been granted concurrently, in which
	// case the slot must go back.
	a.mu.Lock()
	select {
	case <-granted:
		a.mu.Unlock()
		a.waiting[class].Add(-1)
		release()
		return nil, ctx.Err()
	default:
	}
	q := a.queues[class]
	for i, cand := range q {
		if cand == granted {
			a.queues[class] = append(q[:i], q[i+1:]...)
			break
		}
	}
	a.mu.Unlock()
	a.waiting[class].Add(-1)
	return nil, ctx.Err()
}

// grantLocked hands free slots to waiters in strict priority order, FIFO
// within each class.
func (a *admission) grantLocked() {
	for c := admitClass(0); c < numClasses; c++ {
		for a.free > 0 && len(a.queues[c]) > 0 {
			a.free--
			close(a.queues[c][0])
			a.queues[c] = a.queues[c][1:]
		}
	}
}

// peerLane is the fleet tier's own admission lane: a plain non-queueing
// semaphore of -peer-slots over the peer-facing handlers, which its admit
// method gates. Deliberately separate from the compile-slot controller — a
// peer artifact fetch must never wait behind a long local DP (its caller
// budgets a few hundred milliseconds, then computes), and a flood of peer
// traffic must never starve interactive compiles. Saturation sheds with 429;
// the fetching peer treats that as a miss and does not report this node as
// failing.
type peerLane chan struct{}

// admit is the lane's fleet.Gate.
func (l peerLane) admit() (func(), bool) {
	select {
	case l <- struct{}{}:
		return func() { <-l }, true
	default:
		return nil, false
	}
}

// retryAfterFor estimates when a rejected client should retry: one second
// per queued compile-slot generation, floored at one second and capped at
// 30. Coarse on purpose — it is backoff advice, not a reservation.
func retryAfterFor(queueDepth, slots int) time.Duration {
	return min(time.Duration(1+queueDepth/slots)*time.Second, 30*time.Second)
}
