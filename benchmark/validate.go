package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"

	serenity "github.com/serenity-ml/serenity"
)

// answer is the part of a /v1/schedule response the benchmark reads: the
// schedule it checks, and the server's own accounting of how it got there.
type answer struct {
	Nodes             int             `json:"nodes"`
	Order             []int           `json:"order"`
	Peak              int64           `json:"peak"`
	ArenaSize         int64           `json:"arena_size"`
	BaselinePeak      int64           `json:"baseline_peak"`
	Rewrites          int             `json:"rewrites"`
	PartitionSizes    []int           `json:"partition_sizes"`
	Quality           string          `json:"quality"`
	Fallbacks         int             `json:"fallbacks"`
	StatesExplored    int64           `json:"states_explored"`
	SegmentMemoHits   int             `json:"segment_memo_hits"`
	SegmentDiskHits   int             `json:"segment_memo_disk_hits"`
	SegmentPeerHits   int             `json:"segment_memo_peer_hits"`
	MaxFrontier       int             `json:"max_frontier"`
	Cached            bool            `json:"cached"`
	RefinementsQueued int             `json:"refinements_queued"`
	RewrittenGraph    *serenity.Graph `json:"rewritten_graph"`
	Trace             *struct {
		Spans []traceNode `json:"spans"`
	} `json:"trace"`
}

// traceNode mirrors the ?debug=trace span tree far enough to count spans.
type traceNode struct {
	Children []traceNode `json:"children"`
}

func countSpans(nodes []traceNode) int {
	n := len(nodes)
	for _, c := range nodes {
		n += countSpans(c.Children)
	}
	return n
}

// wantQuality is the quality a class must answer with: only a forced
// degradation may be heuristic.
func wantQuality(c class) string {
	if c == classDegraded {
		return "heuristic"
	}
	return "optimal"
}

// checkAnswer validates one response against the request that produced it:
// the status, that order is a permutation and a topological order of the
// graph it indexes (the rewritten graph when the server sent one), that the
// peak the server claims is the peak the order really has, and the quality
// the class promises. ref, when non-nil, is the set-up answer for the same
// graph, and the order must equal it (warm ≡ cold).
func checkAnswer(r *request, status int, body []byte, ref *answer) (*answer, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d, want 200: %.200s", status, body)
	}
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return nil, fmt.Errorf("undecodable response: %w", err)
	}
	g := r.g
	if a.RewrittenGraph != nil {
		g = a.RewrittenGraph
	}
	n := g.NumNodes()
	if len(a.Order) != n || a.Nodes != n {
		return nil, fmt.Errorf("order has %d entries and nodes says %d, graph has %d", len(a.Order), a.Nodes, n)
	}
	pos := make([]int, n)
	for i := range pos {
		pos[i] = -1
	}
	for i, v := range a.Order {
		if v < 0 || v >= n || pos[v] >= 0 {
			return nil, fmt.Errorf("order is not a permutation: entry %d is %d", i, v)
		}
		pos[v] = i
	}
	for _, node := range g.Nodes {
		for _, p := range node.Preds {
			if pos[p] > pos[node.ID] {
				return nil, fmt.Errorf("order is not topological: node %d runs before its input %d", node.ID, p)
			}
		}
	}
	peak, err := serenity.PeakOf(g, a.Order)
	if err != nil {
		return nil, fmt.Errorf("evaluating the order: %w", err)
	}
	if peak != a.Peak {
		return nil, fmt.Errorf("response says peak %d, the order's peak is %d", a.Peak, peak)
	}
	// The baseline is Kahn's order on the submitted graph and the peak belongs
	// to the rewritten one, so neither bounds the other: a rewrite that keeps a
	// shared buffer alive longer can cost a graph more than it saves.
	if a.Peak <= 0 || a.BaselinePeak <= 0 {
		return nil, fmt.Errorf("peak %d, baseline %d", a.Peak, a.BaselinePeak)
	}
	if want := wantQuality(r.class); a.Quality != want {
		return nil, fmt.Errorf("quality %q, class %s wants %q", a.Quality, r.class, want)
	}
	if ref != nil && !slices.Equal(a.Order, ref.Order) {
		return nil, errors.New("order differs from the set-up answer for the same graph (warm ≢ cold)")
	}
	return &a, nil
}

// expectedFile is the committed golden answer set of one workload for the
// default seed: request index → [peak, baseline_peak], computed once with
// every cache off. A perf change never regenerates it.
type expectedFile struct {
	Seed  uint64     `json:"seed"`
	Peaks [][2]int64 `json:"peaks"`
}

func expectedPath(dir, workload string) string {
	return filepath.Join(dir, "expected", workload+".json")
}

// loadExpected returns the golden peaks for workload when the run uses the
// seed they were generated for, and nil otherwise.
func loadExpected(dir, workload string, seed uint64) (*expectedFile, error) {
	data, err := os.ReadFile(expectedPath(dir, workload))
	if err != nil {
		return nil, err
	}
	var e expectedFile
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedPath(dir, workload), err)
	}
	if e.Seed != seed {
		return nil, nil
	}
	return &e, nil
}

// referencePeaks schedules g in-process with no memo, store or cache and
// returns what a class's answer must report. It is only used to write
// expected/.
func referencePeaks(r *request) ([2]int64, error) {
	opts := serenity.DefaultOptions()
	if r.class == classDegraded {
		opts.Strategy = serenity.StrategyGreedy
	}
	res, err := serenity.Schedule(r.g, opts)
	if err != nil {
		return [2]int64{}, err
	}
	return [2]int64{res.Peak, res.BaselinePeak}, nil
}
