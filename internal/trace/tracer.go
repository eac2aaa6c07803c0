package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// TraceData is one retained trace: the root request's metadata plus every
// span collected for its ID, including Remote spans recorded by fleet
// handlers and linked spans appended later by background refinement.
type TraceData struct {
	ID       TraceID       `json:"trace_id"`
	Root     string        `json:"root"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Status   int           `json:"status,omitempty"`
	Degraded bool          `json:"degraded,omitempty"`
	Err      string        `json:"error,omitempty"`
	Spans    []Span        `json:"spans"`
	Dropped  int           `json:"dropped_spans,omitempty"`
	// fragment marks a TraceData holding only remote/linked spans whose
	// root lives on another node (or was not retained here).
	fragment bool
}

// Outcome describes how a traced request ended; Finish uses it for the
// tail-sampling retention decision.
type Outcome struct {
	Status   int
	Degraded bool
	Err      error
	// Force retains the trace unconditionally (?debug=trace requests — the
	// caller was explicitly promised the trace would be retrievable).
	Force bool
}

// IncidentReport is a flight-recorder snapshot taken when the server issued
// a 429/503 or a search fell back: the most recent finished spans across
// all requests, plus (when the triggering request was traced) that
// request's own spans so far.
type IncidentReport struct {
	Reason  string    `json:"reason"`
	Time    time.Time `json:"time"`
	TraceID string    `json:"trace_id,omitempty"`
	Spans   []Span    `json:"spans"`
}

// Options sizes a Tracer.
type Options struct {
	// RingSize bounds retained traces (default 256).
	RingSize int
	// FlightSize bounds the flight recorder's span ring (default 128).
	FlightSize int
	// SampleEvery ambiently traces one request in N (0 disables ambient
	// sampling; ?debug=trace requests are always traced).
	SampleEvery int
	// MaxIncidents bounds retained incident reports (default 8).
	MaxIncidents int
}

// Tracer owns trace lifecycle on one node: it starts root spans, retains
// finished traces with tail-sampling, collects remote and linked span
// fragments by trace ID, and keeps the flight recorder.
type Tracer struct {
	sampleEvery int64
	counter     atomic.Int64

	mu           sync.Mutex
	ringSize     int
	order        []TraceID // retention order, oldest first
	byID         map[TraceID]*TraceData
	frags        map[TraceID]*TraceData
	fragOrder    []TraceID
	durs         [64]time.Duration // reservoir of recent durations for the slow-percentile keep
	durN         int
	tick         int64 // finished-trace counter for the 1-in-16 residual keep
	flight       []Span
	flightNext   int
	flightFull   bool
	incidents    []IncidentReport
	maxIncidents int
}

const (
	defaultRingSize   = 256
	defaultFlight     = 128
	defaultIncidents  = 8
	maxFragments      = 256
	residualKeepEvery = 16
)

// New builds a Tracer. The zero Options value yields a 256-trace ring, a
// 128-span flight recorder, and no ambient sampling.
func New(opts Options) *Tracer {
	if opts.RingSize <= 0 {
		opts.RingSize = defaultRingSize
	}
	if opts.FlightSize <= 0 {
		opts.FlightSize = defaultFlight
	}
	if opts.MaxIncidents <= 0 {
		opts.MaxIncidents = defaultIncidents
	}
	return &Tracer{
		sampleEvery:  int64(opts.SampleEvery),
		ringSize:     opts.RingSize,
		byID:         make(map[TraceID]*TraceData),
		frags:        make(map[TraceID]*TraceData),
		flight:       make([]Span, opts.FlightSize),
		maxIncidents: opts.MaxIncidents,
	}
}

// RingSize returns how many finished traces the tracer retains.
func (t *Tracer) RingSize() int { return t.ringSize }

// Sample reports whether the next ambient (non-?debug=trace) request should
// be traced: one in SampleEvery, counter-based so load tests sample
// deterministically. Nil-safe; a nil Tracer never samples.
func (t *Tracer) Sample() bool {
	if t == nil || t.sampleEvery <= 0 {
		return false
	}
	return t.counter.Add(1)%t.sampleEvery == 0
}

// StartTrace opens a new trace and returns its root span. Nil-safe: a nil
// Tracer returns a nil handle, which every downstream site tolerates.
func (t *Tracer) StartTrace(name string, attrs ...Attr) *SpanHandle {
	if t == nil {
		return nil
	}
	rec := &Recorder{traceID: newTraceID(), start: time.Now()}
	return newSpan(rec, SpanID{}, name, attrs)
}

// Finish ends the root span and decides retention. Tail-sampling always
// keeps forced, degraded, and erred traces plus anything slower than the
// recent ~p90; the rest are thinned to one in sixteen so steady-state
// healthy traffic still leaves a pulse in /debug/traces. The finished
// trace's spans also feed the flight recorder. Returns the retained trace
// (merged with any fleet/refinement fragments) or nil when sampled out.
func (t *Tracer) Finish(h *SpanHandle, out Outcome) *TraceData {
	if t == nil || h == nil {
		return nil
	}
	var errMsg string
	if out.Err != nil {
		errMsg = out.Err.Error()
	}
	h.end(errMsg)
	spans, dropped := h.rec.snapshot()
	dur := time.Duration(0)
	for i := range spans {
		if spans[i].SpanID == h.spanID {
			dur = spans[i].Duration
			break
		}
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	t.feedFlightLocked(spans)
	keep := out.Force || out.Degraded || out.Err != nil || out.Status >= 400
	if !keep {
		keep = dur >= t.slowBarLocked()
	}
	t.durs[t.durN%len(t.durs)] = dur
	t.durN++
	if !keep {
		t.tick++
		keep = t.tick%residualKeepEvery == 0
	}
	if !keep {
		return nil
	}
	td := &TraceData{
		ID:       h.rec.traceID,
		Root:     h.name,
		Start:    h.rec.start,
		Duration: dur,
		Status:   out.Status,
		Degraded: out.Degraded,
		Err:      errMsg,
		Spans:    spans,
		Dropped:  dropped,
	}
	// Fleet child spans or refinement spans may have landed before the root
	// finished; fold the fragment in.
	if frag, ok := t.frags[td.ID]; ok {
		td.Spans = append(td.Spans, frag.Spans...)
		td.Dropped += frag.Dropped
		t.dropFragLocked(td.ID)
	}
	t.retainLocked(td)
	// The caller reads the result outside the lock while late fragments
	// (refinement, fleet serves) may still append to the retained trace;
	// hand out a snapshot, not the live object.
	cp := *td
	cp.Spans = append([]Span(nil), td.Spans...)
	return &cp
}

// slowBarLocked estimates the recent p90 duration from the reservoir.
func (t *Tracer) slowBarLocked() time.Duration {
	n := t.durN
	if n > len(t.durs) {
		n = len(t.durs)
	}
	if n < 8 {
		return 1 << 62 // not enough signal; nothing qualifies as "slow" yet
	}
	buf := make([]time.Duration, n)
	copy(buf, t.durs[:n])
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	return buf[n*9/10]
}

func (t *Tracer) retainLocked(td *TraceData) {
	if old, ok := t.byID[td.ID]; ok {
		// A fragment for this ID was promoted earlier (remote spans arriving
		// before the local Finish); merge rather than duplicate.
		td.Spans = append(td.Spans, old.Spans...)
		td.Dropped += old.Dropped
		for i, id := range t.order {
			if id == td.ID {
				t.order = append(t.order[:i], t.order[i+1:]...)
				break
			}
		}
	}
	t.byID[td.ID] = td
	t.order = append(t.order, td.ID)
	for len(t.order) > t.ringSize {
		evict := t.order[0]
		t.order = t.order[1:]
		delete(t.byID, evict)
	}
}

func (t *Tracer) feedFlightLocked(spans []Span) {
	for i := range spans {
		t.flight[t.flightNext] = spans[i]
		t.flightNext++
		if t.flightNext == len(t.flight) {
			t.flightNext = 0
			t.flightFull = true
		}
	}
}

func (t *Tracer) dropFragLocked(id TraceID) {
	delete(t.frags, id)
	for i, fid := range t.fragOrder {
		if fid == id {
			t.fragOrder = append(t.fragOrder[:i], t.fragOrder[i+1:]...)
			break
		}
	}
}

// fragLocked finds or creates the fragment collector for id.
func (t *Tracer) fragLocked(id TraceID) *TraceData {
	if td, ok := t.byID[id]; ok {
		return td
	}
	if td, ok := t.frags[id]; ok {
		return td
	}
	if len(t.fragOrder) >= maxFragments {
		t.dropFragLocked(t.fragOrder[0])
	}
	td := &TraceData{ID: id, Start: time.Now(), fragment: true}
	t.frags[id] = td
	t.fragOrder = append(t.fragOrder, id)
	return td
}

func (t *Tracer) appendSpanLocked(td *TraceData, sp Span) {
	if len(td.Spans) >= maxSpansPerTrace {
		td.Dropped++
		return
	}
	td.Spans = append(td.Spans, sp)
	t.feedFlightLocked(td.Spans[len(td.Spans)-1:])
}

// RecordRemote records a child span for a caller on another node, parsed
// from its traceparent header. The span lands in this node's fragment store
// under the caller's trace ID; GET /debug/traces/{id} on this node then
// shows the owner-side view, and the caller's node shows its own. Returns
// false when the header is absent or malformed. Nil-safe.
func (t *Tracer) RecordRemote(traceparent, name string, start time.Time, d time.Duration, attrs ...Attr) bool {
	if t == nil || traceparent == "" {
		return false
	}
	tid, sid, ok := ParseTraceparent(traceparent)
	if !ok {
		return false
	}
	sp := Span{
		TraceID:  tid,
		SpanID:   newSpanID(),
		ParentID: sid,
		Name:     name,
		Start:    start,
		Duration: d,
		Attrs:    attrs,
		Remote:   true,
	}
	t.mu.Lock()
	t.appendSpanLocked(t.fragLocked(tid), sp)
	t.mu.Unlock()
	return true
}

// RecordLinked records an out-of-band span (refinement lifecycle) attached
// to the originating request's trace via the Link captured at enqueue time.
// Nil-safe; zero links are ignored.
func (t *Tracer) RecordLinked(l Link, name string, start time.Time, d time.Duration, err error, attrs ...Attr) {
	if t == nil || l.TraceID.IsZero() {
		return
	}
	var errMsg string
	if err != nil {
		errMsg = err.Error()
	}
	sp := Span{
		TraceID:  l.TraceID,
		SpanID:   newSpanID(),
		ParentID: l.SpanID,
		Name:     name,
		Start:    start,
		Duration: d,
		Attrs:    attrs,
		Err:      errMsg,
	}
	t.mu.Lock()
	t.appendSpanLocked(t.fragLocked(l.TraceID), sp)
	t.mu.Unlock()
}

// Incident snapshots the flight recorder at the moment of a 429/503/
// fallback. h, when non-nil, attributes the incident to that request's
// trace and folds its spans-so-far into the snapshot.
func (t *Tracer) Incident(reason string, h *SpanHandle) {
	if t == nil {
		return
	}
	var own []Span
	var tid string
	if h != nil {
		own, _ = h.rec.snapshot()
		tid = h.rec.traceID.String()
	}
	t.mu.Lock()
	spans := t.flightSnapshotLocked()
	spans = append(spans, own...)
	t.incidents = append(t.incidents, IncidentReport{
		Reason:  reason,
		Time:    time.Now(),
		TraceID: tid,
		Spans:   spans,
	})
	if len(t.incidents) > t.maxIncidents {
		t.incidents = t.incidents[len(t.incidents)-t.maxIncidents:]
	}
	t.mu.Unlock()
}

func (t *Tracer) flightSnapshotLocked() []Span {
	if !t.flightFull {
		out := make([]Span, t.flightNext)
		copy(out, t.flight[:t.flightNext])
		return out
	}
	out := make([]Span, 0, len(t.flight))
	out = append(out, t.flight[t.flightNext:]...)
	out = append(out, t.flight[:t.flightNext]...)
	return out
}

// Incidents returns retained incident reports, newest last.
func (t *Tracer) Incidents() []IncidentReport {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]IncidentReport, len(t.incidents))
	copy(out, t.incidents)
	t.mu.Unlock()
	return out
}

// Summary is one line of GET /debug/traces.
type Summary struct {
	ID       TraceID       `json:"trace_id"`
	Root     string        `json:"root"`
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Status   int           `json:"status,omitempty"`
	Degraded bool          `json:"degraded,omitempty"`
	Err      string        `json:"error,omitempty"`
	Spans    int           `json:"spans"`
	Remote   bool          `json:"remote,omitempty"`
}

// Traces lists retained traces, newest first. Fragments (remote-only
// traces whose root lives on another node) are included and flagged.
func (t *Tracer) Traces() []Summary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Summary, 0, len(t.order)+len(t.fragOrder))
	for i := len(t.order) - 1; i >= 0; i-- {
		td := t.byID[t.order[i]]
		out = append(out, Summary{
			ID: td.ID, Root: td.Root, Start: td.Start, Duration: td.Duration,
			Status: td.Status, Degraded: td.Degraded, Err: td.Err, Spans: len(td.Spans),
		})
	}
	for i := len(t.fragOrder) - 1; i >= 0; i-- {
		td := t.frags[t.fragOrder[i]]
		out = append(out, Summary{
			ID: td.ID, Root: "(remote)", Start: td.Start, Spans: len(td.Spans), Remote: true,
		})
	}
	return out
}

// Get returns a copy of the retained trace (or fragment) with the given
// hex ID, or nil.
func (t *Tracer) Get(id string) *TraceData {
	if t == nil {
		return nil
	}
	tid, err := ParseTraceID(id)
	if err != nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	td, ok := t.byID[tid]
	if !ok {
		td, ok = t.frags[tid]
	}
	if !ok {
		return nil
	}
	cp := *td
	cp.Spans = make([]Span, len(td.Spans))
	copy(cp.Spans, td.Spans)
	return &cp
}

// Node is one vertex of the rendered span tree.
type Node struct {
	Name     string            `json:"name"`
	SpanID   string            `json:"span_id"`
	Remote   bool              `json:"remote,omitempty"`
	Err      string            `json:"error,omitempty"`
	StartUS  int64             `json:"start_us"` // offset from trace start
	DurUS    int64             `json:"duration_us"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []*Node           `json:"children,omitempty"`
}

// Tree assembles spans into parent/child trees ordered by start time.
// Spans whose parent is missing (remote fragments, dropped parents) become
// roots, so a partial trace still renders.
func Tree(start time.Time, spans []Span) []*Node {
	nodes := make(map[SpanID]*Node, len(spans))
	for i := range spans {
		sp := &spans[i]
		n := &Node{
			Name:    sp.Name,
			SpanID:  sp.SpanID.String(),
			Remote:  sp.Remote,
			Err:     sp.Err,
			StartUS: sp.Start.Sub(start).Microseconds(),
			DurUS:   sp.Duration.Microseconds(),
		}
		if len(sp.Attrs) > 0 {
			n.Attrs = make(map[string]string, len(sp.Attrs))
			for _, a := range sp.Attrs {
				n.Attrs[a.Key] = a.Value
			}
		}
		nodes[sp.SpanID] = n
	}
	var roots []*Node
	for i := range spans {
		sp := &spans[i]
		n := nodes[sp.SpanID]
		if parent, ok := nodes[sp.ParentID]; ok && sp.ParentID != sp.SpanID {
			parent.Children = append(parent.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	var sortKids func(n *Node)
	sortKids = func(n *Node) {
		sort.SliceStable(n.Children, func(i, j int) bool { return n.Children[i].StartUS < n.Children[j].StartUS })
		for _, c := range n.Children {
			sortKids(c)
		}
	}
	sort.SliceStable(roots, func(i, j int) bool { return roots[i].StartUS < roots[j].StartUS })
	for _, r := range roots {
		sortKids(r)
	}
	return roots
}
