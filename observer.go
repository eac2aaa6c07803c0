package serenity

import (
	"sync"
	"time"
)

// Stage names one of the pipeline's four stages (Figure 4).
type Stage string

// Pipeline stages.
const (
	StageRewrite   Stage = "rewrite"
	StagePartition Stage = "partition"
	StageSearch    Stage = "search"
	StageAlloc     Stage = "alloc"
)

// EventKind classifies an Observer event.
type EventKind int

// Observer event kinds.
const (
	// EventStageStart / EventStageDone bracket one enabled pipeline stage;
	// disabled stages emit nothing.
	EventStageStart EventKind = iota
	EventStageDone
	// EventSegmentStart / EventSegmentDone bracket one segment's search.
	EventSegmentStart
	EventSegmentDone
	// EventFallback reports a degradable searcher abandoning its exact
	// search for a segment; Err carries the reason.
	EventFallback
)

// String renders the kind.
func (k EventKind) String() string {
	switch k {
	case EventStageStart:
		return "stage-start"
	case EventStageDone:
		return "stage-done"
	case EventSegmentStart:
		return "segment-start"
	case EventSegmentDone:
		return "segment-done"
	case EventFallback:
		return "fallback"
	}
	return "unknown"
}

// Event is one observation from a running Pipeline.
type Event struct {
	Kind  EventKind
	Stage Stage // the stage (segment events report StageSearch)
	// Segment is the partition segment index, -1 for whole-pipeline events.
	Segment int
	// Nodes is the segment's node count (segment events).
	Nodes int
	// Quality and States report the segment's outcome (EventSegmentDone).
	Quality Quality
	States  int64
	// Fingerprint is the segment's memo fingerprint (EventSegmentDone), the
	// same value the memo hierarchy keys on, so an Observer can correlate a
	// segment event with store/peer traffic for the same artifact.
	Fingerprint string
	// MemoTier reports which memo tier answered the segment (EventSegmentDone):
	// "memory", "disk", "peer", or "fresh" when the DP actually ran.
	MemoTier string
	// Elapsed is the stage or segment duration (done events), or — on
	// EventFallback — how long the doomed exact attempt burned before the
	// searcher abandoned it.
	Elapsed time.Duration
	// Err is the fallback reason (EventFallback).
	Err error
}

// Observer receives pipeline events. The Pipeline serializes calls — even
// with Options.Parallelism > 1 an Observer never sees concurrent
// invocations — so implementations need no locking of their own. Segment
// events may arrive in any segment order when searches run in parallel; use
// Event.Segment, not arrival order.
//
// A compilation that fails mid-stage returns its error to the caller
// without emitting the corresponding done events — the error, not the event
// stream, is the authoritative completion signal. Observers tracking
// in-flight work must reset when Run returns.
type Observer interface {
	Observe(Event)
}

// ObserverFunc adapts a function to the Observer interface.
type ObserverFunc func(Event)

// Observe implements Observer.
func (f ObserverFunc) Observe(e Event) { f(e) }

// emitter serializes event delivery to an optional Observer.
type emitter struct {
	mu  sync.Mutex
	obs Observer
}

func (e *emitter) emit(ev Event) {
	if e.obs == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.obs.Observe(ev)
}

func (e *emitter) stageStart(s Stage) {
	e.emit(Event{Kind: EventStageStart, Stage: s, Segment: -1})
}

func (e *emitter) stageDone(s Stage, d time.Duration) {
	e.emit(Event{Kind: EventStageDone, Stage: s, Segment: -1, Elapsed: d})
}

func (e *emitter) segmentStart(idx, nodes int) {
	e.emit(Event{Kind: EventSegmentStart, Stage: StageSearch, Segment: idx, Nodes: nodes})
}

func (e *emitter) segmentDone(idx, nodes int, sr SearchResult, d time.Duration, fp, tier string) {
	e.emit(Event{
		Kind: EventSegmentDone, Stage: StageSearch, Segment: idx, Nodes: nodes,
		Quality: sr.Quality, States: sr.StatesExplored, Elapsed: d,
		Fingerprint: fp, MemoTier: tier,
	})
}

func (e *emitter) fallback(idx int, reason error, elapsed time.Duration) {
	e.emit(Event{Kind: EventFallback, Stage: StageSearch, Segment: idx, Err: reason, Elapsed: elapsed})
}
