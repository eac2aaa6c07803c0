package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	serenity "github.com/serenity-ml/serenity"
	"github.com/serenity-ml/serenity/internal/govern"
	"github.com/serenity-ml/serenity/internal/trace"
)

// maxBatchItems bounds one /v1/schedule/batch request. Large model zoos
// should paginate; the bound keeps a single request from monopolizing the
// worker pool (and the response from growing without limit).
const maxBatchItems = 256

// batchRequest is the wire format of POST /v1/schedule/batch: a list of
// graphs in the same JSON IR the single endpoint accepts. Items are decoded
// lazily so one malformed graph fails its item, not the batch.
type batchRequest struct {
	Items []json.RawMessage `json:"items"`
}

// batchItemResult is one item's outcome. Status carries the HTTP status the
// single endpoint would have answered with (200, 400, 413, 422, 429, 500,
// 503); a 429 item found the batch class's admission queue full and its
// Error carries the retry advice. Exactly one of Schedule and Error is set.
type batchItemResult struct {
	Index    int               `json:"index"`
	Status   int               `json:"status"`
	Error    string            `json:"error,omitempty"`
	Schedule *scheduleResponse `json:"schedule,omitempty"`
}

// batchResponse is the wire format of a /v1/schedule/batch reply. The
// enclosing HTTP status is 200 whenever the batch itself was processable;
// per-item failures are reported per item.
type batchResponse struct {
	Items     []batchItemResult `json:"items"`
	Scheduled int               `json:"scheduled"`
	Failed    int               `json:"failed"`
}

// handleScheduleBatch compiles many graphs in one request. Query parameters
// (strategy, deadline_ms, parallelism, budget, rewrite, partition) apply to
// every item; deadline_ms and the server compute timeout are per item, not
// per batch. Items fan out over a worker pool and Parallelism is ONE budget
// for the whole request: the item workers take what they need and each
// item's per-segment fan-out divides the remainder, so total concurrency
// stays ~Parallelism instead of multiplying across the two levels. Each
// item passes through the same schedule cache, request coalescing, and
// segment memo as the single endpoint, so a batch of cell-sharing models
// amortizes their common DP work within the batch itself. Each item that
// compiles takes one compile slot in the batch class, exactly like a single
// request in the interactive class; cached items take none.
func (s *server) handleScheduleBatch(w http.ResponseWriter, r *http.Request) {
	reqID := s.requests.Add(1)
	s.batches.Add(1)
	if r.Method != http.MethodPost {
		s.fail(w, http.StatusMethodNotAllowed, fmt.Errorf("use POST"))
		return
	}
	s.inFlight.Add(1)
	defer s.inFlight.Add(-1)

	prm, err := s.requestOptions(r)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err)
		return
	}
	// The batch's working set carries its body and its response bytes only:
	// items decode and compile concurrently, each on fresh memory of its own.
	set, code, err := s.readBody(w, r)
	if err != nil {
		s.fail(w, code, fmt.Errorf("reading body: %w", err))
		return
	}
	defer s.releaseWorkSet(set)
	var req batchRequest
	if err := json.Unmarshal(set.body, &req); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("parsing batch: %w (want {\"items\": [<graph>, ...]})", err))
		return
	}
	if len(req.Items) == 0 {
		s.fail(w, http.StatusBadRequest, fmt.Errorf("empty batch: items is required and must not be empty"))
		return
	}
	if len(req.Items) > maxBatchItems {
		s.fail(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("batch has %d items, server accepts at most %d", len(req.Items), maxBatchItems))
		return
	}
	s.batchItem.Add(int64(len(req.Items)))

	// Batches trace ambiently only (-trace-sample; the inline ?debug=trace
	// tree is a single-endpoint feature). Items inherit the batch root via
	// ctx, so every item's stage/segment spans share one trace.
	var root *trace.SpanHandle
	if prm.debugTrace || s.tracer.Sample() {
		root = s.tracer.StartTrace("schedule.batch",
			trace.Int("items", int64(len(req.Items))),
			trace.Int("request_id", reqID))
	}

	// High memory pressure sheds batch work before it even queues for compile
	// slots: batch traffic is throughput work nobody is interactively waiting
	// on, so it is the first admission the governor's ladder refuses. 429 (not
	// 503) because the request itself is fine — resubmitting after Retry-After
	// will succeed once the ladder unwinds.
	if lvl := s.gov.Level(); lvl >= govern.LevelHigh {
		s.gov.NoteShed()
		w.Header().Set("Retry-After", strconv.Itoa(int(memPressureRetryAfter/time.Second)))
		err := fmt.Errorf("server under memory pressure (%s): batch admissions are shed, retry in %s", lvl, memPressureRetryAfter)
		s.tracer.Finish(root, trace.Outcome{Status: http.StatusTooManyRequests, Err: err, Force: prm.debugTrace})
		s.fail(w, http.StatusTooManyRequests, err)
		return
	}

	results := make([]batchItemResult, len(req.Items))
	workers, perItem := serenity.SplitParallelism(prm.opts.Parallelism, len(req.Items))
	itemPrm := prm
	itemPrm.opts.Parallelism = perItem
	itemPrm.forceDegrade = false // the ?degrade=force drill is a single-endpoint feature

	ctx := r.Context()
	if root != nil {
		ctx = trace.ContextWith(ctx, root)
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range jobs {
				results[idx] = s.runBatchItem(ctx, idx, req.Items[idx], itemPrm)
			}
		}()
	}
	for i := range req.Items {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	if r.Context().Err() != nil {
		// The client is gone; the batch's work is moot (it still warmed the
		// cache and memo for everyone else).
		s.canceled.Add(1)
		s.tracer.Finish(root, trace.Outcome{Err: r.Context().Err(), Force: prm.debugTrace})
		return
	}
	resp := batchResponse{Items: results}
	for i := range results {
		if results[i].Status == http.StatusOK {
			resp.Scheduled++
		} else {
			resp.Failed++
			s.errored.Add(1)
		}
	}
	if root != nil {
		root.Annotate(trace.Int("scheduled", int64(resp.Scheduled)), trace.Int("failed", int64(resp.Failed)))
	}
	s.tracer.Finish(root, trace.Outcome{Status: http.StatusOK, Degraded: resp.Failed > 0, Force: prm.debugTrace})
	writeBatchResponse(w, &resp, set)
}

// runBatchItem runs one batch item through the same per-graph path as the
// single endpoint (decodeGraph + runGraph). Unlike the single endpoint, the
// item runs on a worker goroutine net/http does not guard, so a panicking
// compilation is converted into that item's 500 instead of killing the
// process (and every other in-flight request with it).
func (s *server) runBatchItem(parent context.Context, idx int, raw json.RawMessage, prm reqParams) (result batchItemResult) {
	fail := func(status int, err error) batchItemResult {
		return batchItemResult{Index: idx, Status: status, Error: err.Error()}
	}
	defer func() {
		if p := recover(); p != nil {
			result = fail(http.StatusInternalServerError, fmt.Errorf("internal panic compiling item %d: %v", idx, p))
		}
	}()
	// Items run concurrently, so each decodes and compiles in a Workspace of
	// its own, on fresh memory.
	ws := new(serenity.Workspace)
	job, code, err := s.decodeGraph(raw, prm, ws)
	if err != nil {
		return fail(code, err)
	}
	resp, cached, code, err := s.runGraph(parent, job, prm, classBatch, ws)
	if err != nil {
		if code == 0 {
			// The whole batch's client hung up; the caller discards results.
			return fail(http.StatusServiceUnavailable, parent.Err())
		}
		return fail(code, err)
	}
	out, err := respForClient(resp, cached, job.g)
	if err != nil {
		return fail(http.StatusInternalServerError, err)
	}
	return batchItemResult{Index: idx, Status: http.StatusOK, Schedule: &out}
}
