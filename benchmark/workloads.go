package main

import (
	"fmt"
	"math"
	"time"
)

// workload is one named traffic shape. The five of them are chosen so that
// each stresses different layers; README.md and BENCHMARK.json carry the why.
type workload struct {
	name    string
	why     string
	open    bool // open loop (arrival schedule) instead of closed loop
	clients int  // callers (closed) or connections (open); never more than 2
	// perSecond is how many measured requests one second of -seconds buys.
	// It is a committed constant, not a calibration: the request count, and
	// so the request sequence, depends only on the flags, and parent and
	// change always execute the same sequence.
	perSecond float64
	// corpus is the number of graphs compiled in set-up and replayed in each
	// measured round (disk-restart, peer-fleet); 0 for single-pass workloads.
	corpus int
	// setups is how many times set-up runs; setup_s is their median. Cheap
	// set-ups repeat more, because a short time is a noisy one.
	setups int
	// main is the class the workload exists to measure; searches says whether
	// its requests may run the DP at all (a workload that must not, and does,
	// is incorrect).
	main     class
	searches bool
	// replay is how many requests the traced replay pass samples.
	replay int
	// tracePass is how many extra requests a traced run sends with
	// ?debug=trace after the measured phase, to price the server's own
	// tracing (warm-memo only: it is the workload tracing could slow most).
	tracePass int
	// generate builds one measured pass of n requests, plus tracePass more
	// for the traced pass.
	generate func(seed uint64, n, tracePass int) (*inputs, error)
	setup    func(e *env, in *inputs) (*stage, error)
}

// Cell sizes. A cold cell's search cost is heavy-tailed (standard deviation
// three to four times the mean). On the two-core reference box: WS(20) about
// 1 ms, WS(24) 4 ms, WS(28) 13 ms with a 0.15 s p99, WS(32) 50–100 ms with
// outliers of seconds that reach the DP's 1 s step timeout and stop being
// deterministic; so cold-search searches WS(28), and nothing goes past WS(32).
const (
	coldCellNodes     = 28 // cold-search
	mixedCellNodes    = 24 // the cold and degraded classes of mixed-open (degraded: a greedy answer now, this search later)
	poolCellNodes     = 24 // warm-memo and mixed-open pool cells
	corpusCellNodes   = 20 // disk-restart and peer-fleet corpus cells
	poolCells         = 8  // distinct cells the warm stackings draw from
	stackCells        = 6  // cells per warm graph (~160 nodes, ~73 KB of JSON)
	corpusStackCells  = 3  // cells per corpus graph
	hotGraphs         = 64 // preloaded stackings the hot class repeats
	mixedRate         = 150.0
	tinyScaleRequests = 24 // measured requests per workload at -scale tiny
	tinyScaleCorpus   = 8
	// costSeed names the committed set of cells whose search cost a run pays:
	// the cold and degraded cells and the warm pool. A thousand cells drawn
	// afresh per seed would move req/s by ±10% through the draw alone, and the
	// bounds are tighter than that; so every run searches the same multiset of
	// cells, and -seed decides everything else: their order, which cells are
	// stacked into which graph, how the classes interleave, when requests are
	// due. The cheap corpus cells of disk-restart and peer-fleet do follow
	// -seed.
	costSeed = 2020
)

// Stream ids for subSeed, so every purpose draws from its own sequence. The
// values are part of the generator's definition: changing one changes bodies.
const (
	streamPool       = 1
	streamCold       = 2
	streamDegraded   = 3
	streamCorpusDisk = 4
	streamCorpusPeer = 5
	streamStacks     = 7
	streamOrder      = 8
	streamArrivals   = 9
)

var workloads = []*workload{
	{
		name:      "cold-search",
		why:       "never-seen WS(28) cells, 1 client: the DP search does over 90% of the work and every cache tier only misses and writes through",
		clients:   1,
		main:      classCold,
		searches:  true,
		perSecond: 70,
		setups:    5,
		replay:    24,
		generate:  genCold,
		setup:     setupSingle,
	},
	{
		name:      "warm-memo",
		why:       "alternating whole-response hits and never-seen stackings of 8 preloaded cells, 2 clients: no DP, only decode, fingerprint, rewrite, partition, memo walk, alloc, encode",
		clients:   2,
		main:      classSegwarm,
		perSecond: 430,
		setups:    3,
		replay:    200,
		tracePass: 1000,
		generate:  genWarm,
		setup:     setupSingle,
	},
	{
		name:      "disk-restart",
		why:       "graphs compiled before a SIGTERM restart, replayed with 2 clients: every segment is a disk hit promoted to memory, isolating the store and artifact codec",
		clients:   2,
		main:      classDisk,
		perSecond: 650,
		corpus:    400,
		setups:    1,
		replay:    120,
		generate:  genCorpus(classDisk, streamCorpusDisk),
		setup:     setupRestart,
	},
	{
		name:      "peer-fleet",
		why:       "graphs compiled on node A, replayed on node B of a 3-process ring, 1 client: two thirds of segments are peer fetches, the only workload with the fleet on the blocking path",
		clients:   1,
		main:      classPeer,
		perSecond: 300,
		corpus:    240,
		setups:    1,
		replay:    120,
		generate:  genCorpus(classPeer, streamCorpusPeer),
		setup:     setupFleet,
	},
	{
		name:      "mixed-open",
		why:       "open loop, Poisson 150 req/s over 2 connections: 70% hot, 20% memo-warm, 8% cold, 2% degraded, so cold writes, warm reads, admission and refinement compete",
		open:      true,
		clients:   2,
		main:      classSegwarm,
		searches:  true,
		perSecond: mixedRate,
		setups:    3,
		replay:    200,
		generate:  genMixed,
		setup:     setupSingle,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// passes turns the flags into the measured request sequence's size: requests
// per pass, and how many passes (rounds, with a restart in between) are
// measured. Round-based workloads measure whole rounds; mixed-open keeps its
// class mix exact by measuring whole decks.
func (w *workload) passes(seconds int, tiny bool) (perPass, rounds int) {
	n := int(math.Round(w.perSecond * float64(seconds)))
	switch {
	case w.corpus > 0 && tiny:
		return tinyScaleCorpus, 2
	case w.corpus > 0:
		return w.corpus, max(1, int(math.Round(float64(n)/float64(w.corpus))))
	case w.open && tiny:
		return mixedDeck, 1
	case w.open:
		return max(mixedDeck, n/mixedDeck*mixedDeck), 1
	case tiny:
		return tinyScaleRequests, 1
	}
	return max(2, n&^1), 1
}

// inputs is everything a run sends, generated from the seed before any
// process starts.
type inputs struct {
	// preload is sent during set-up; answer i becomes reference i, which a
	// measured request names through request.ref.
	preload []*request
	// reqs is one measured pass; round-based workloads repeat it with a
	// restart in between.
	reqs []*request
	dues []time.Duration // open loop: when each request is due
	// traced continues reqs with requests carrying ?debug=trace.
	traced []*request
}

func newRequest(c class, name string, cells []cell) (*request, error) {
	g := stack(name, cells)
	body, err := encode(g)
	if err != nil {
		return nil, err
	}
	r := &request{class: c, g: g, body: body, ref: -1}
	if c == classDegraded {
		r.query = degradeQuery
	}
	return r, nil
}

// freshCells returns n cells nobody has seen: their seeds come from a counter
// stream private to (seed, stream).
func freshCells(seed uint64, stream uint64, index, n, nodes int) []cell {
	cells := make([]cell, n)
	for i := range cells {
		cells[i] = newCell(nodes, subSeed(seed, stream, uint64(index), uint64(i)))
	}
	return cells
}

func genCold(seed uint64, n, _ int) (*inputs, error) {
	in := &inputs{}
	for i := 0; i < n; i++ {
		r, err := newRequest(classCold, fmt.Sprintf("cold-%d", i), freshCells(costSeed, streamCold, i, 1, coldCellNodes))
		if err != nil {
			return nil, err
		}
		in.reqs = append(in.reqs, r)
	}
	shuffle(&rng{s: subSeed(seed, streamOrder)}, in.reqs)
	return in, nil
}

// warmSource deals the hot and segwarm graphs of one seed: a pool of cells,
// hotGraphs preloaded stackings, and an endless supply of stackings that were
// never sent before.
type warmSource struct {
	pool []cell
	rng  rng
	seen map[[stackCells]uint8]bool
	hot  []*request // the preload, in reference order
	next int        // hot graphs are dealt in reshuffled cycles
	deck []int
	made int
}

func newWarmSource(seed uint64) (*warmSource, error) {
	s := &warmSource{
		pool: freshCells(costSeed, streamPool, 0, poolCells, poolCellNodes),
		rng:  rng{s: subSeed(seed, streamStacks)},
		seen: map[[stackCells]uint8]bool{},
	}
	for i := 0; i < hotGraphs; i++ {
		r, err := s.stacking(classSegwarm, fmt.Sprintf("hot-%d", i))
		if err != nil {
			return nil, err
		}
		s.hot = append(s.hot, r)
	}
	return s, nil
}

// stacking draws a stacking of pool cells that no earlier draw produced.
func (s *warmSource) stacking(c class, name string) (*request, error) {
	var key [stackCells]uint8
	for {
		for i := range key {
			key[i] = uint8(s.rng.intn(poolCells))
		}
		if !s.seen[key] {
			break
		}
	}
	s.seen[key] = true
	cells := make([]cell, stackCells)
	for i, k := range key {
		cells[i] = s.pool[k]
	}
	return newRequest(c, name, cells)
}

// hotRequest repeats a preloaded graph. The graphs are dealt in reshuffled
// cycles, so two uses of one graph are never more than 2·hotGraphs requests
// apart and the server's 256-entry response LRU always still holds it.
func (s *warmSource) hotRequest() *request {
	if s.next == len(s.deck) {
		s.deck = s.deck[:0]
		for i := range s.hot {
			s.deck = append(s.deck, i)
		}
		shuffle(&s.rng, s.deck)
		s.next = 0
	}
	i := s.deck[s.next]
	s.next++
	h := s.hot[i]
	return &request{class: classHot, g: h.g, body: h.body, ref: i}
}

func (s *warmSource) segwarmRequest() (*request, error) {
	s.made++
	return s.stacking(classSegwarm, fmt.Sprintf("segwarm-%d", s.made))
}

func genWarm(seed uint64, n, tracePass int) (*inputs, error) {
	src, err := newWarmSource(seed)
	if err != nil {
		return nil, err
	}
	in := &inputs{preload: src.hot}
	for i := 0; i < n+tracePass; i++ {
		var r *request
		if i%2 == 0 {
			r = src.hotRequest()
		} else if r, err = src.segwarmRequest(); err != nil {
			return nil, err
		}
		if i < n {
			in.reqs = append(in.reqs, r)
			continue
		}
		r.query = "?debug=trace"
		in.traced = append(in.traced, r)
	}
	return in, nil
}

// mixedDeck is the unit of the mixed-open class mix: every deck of 50
// requests holds exactly 35 hot, 10 segwarm, 4 cold and 1 degraded, shuffled
// by the seed, so the shares (and optimal_share) are the same for every seed.
const mixedDeck = 50

var mixedShares = [numClasses]int{classHot: 35, classSegwarm: 10, classCold: 4, classDegraded: 1}

func genMixed(seed uint64, n, _ int) (*inputs, error) {
	src, err := newWarmSource(seed)
	if err != nil {
		return nil, err
	}
	in := &inputs{preload: src.hot}
	order := rng{s: subSeed(seed, streamOrder)}
	arrivals := rng{s: subSeed(seed, streamArrivals)}
	var due float64
	var made [numClasses]int // the k-th cold (degraded) request searches committed cell k
	for len(in.reqs) < n {
		var deck []class
		for c, k := range mixedShares {
			for ; k > 0; k-- {
				deck = append(deck, class(c))
			}
		}
		shuffle(&order, deck)
		for _, c := range deck {
			k := made[c]
			made[c]++
			var r *request
			switch c {
			case classHot:
				r = src.hotRequest()
			case classSegwarm:
				r, err = src.segwarmRequest()
			case classCold:
				r, err = newRequest(c, fmt.Sprintf("cold-%d", k), freshCells(costSeed, streamCold, k, 1, mixedCellNodes))
			case classDegraded:
				r, err = newRequest(c, fmt.Sprintf("degraded-%d", k), freshCells(costSeed, streamDegraded, k, 1, mixedCellNodes))
			}
			if err != nil {
				return nil, err
			}
			in.reqs = append(in.reqs, r)
			due += arrivals.exp()
			in.dues = append(in.dues, time.Duration(due*float64(time.Second)))
		}
	}
	// Stretch the schedule so that the last request is due at exactly
	// n/mixedRate: the gaps stay Poisson-shaped, and the offered rate no
	// longer wobbles by the ±3% a sum of n random gaps does.
	stretch := float64(n) / mixedRate / due
	for i := range in.dues {
		in.dues[i] = time.Duration(float64(in.dues[i]) * stretch)
	}
	return in, nil
}

// genCorpus builds the disk-restart and peer-fleet inputs: a corpus of
// distinct graphs, each of three cheap never-seen cells, compiled in set-up
// and replayed as class c. The two workloads draw from different streams.
func genCorpus(c class, stream uint64) func(seed uint64, n, _ int) (*inputs, error) {
	return func(seed uint64, n, _ int) (*inputs, error) {
		in := &inputs{}
		for i := 0; i < n; i++ {
			cells := freshCells(seed, stream, i, corpusStackCells, corpusCellNodes)
			pre, err := newRequest(classCold, fmt.Sprintf("%s-%d", c, i), cells)
			if err != nil {
				return nil, err
			}
			in.preload = append(in.preload, pre)
			in.reqs = append(in.reqs, &request{class: c, g: pre.g, body: pre.body, ref: i})
		}
		return in, nil
	}
}
