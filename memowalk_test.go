package serenity

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/serenity-ml/serenity/internal/graph"
	"github.com/serenity-ml/serenity/internal/partition"
	"github.com/serenity-ml/serenity/internal/store"
)

// recordingPeers is a single-goroutine PeerTier fake: it owns the keys in
// owned, serves corpus, and records every call with the exact payload slice
// it was handed.
type recordingPeers struct {
	owned      map[string]bool
	corpus     map[string][]byte
	fetched    []string
	replicated map[string][][]byte
}

func (p *recordingPeers) Owns(key string) bool { return p.owned[key] }

func (p *recordingPeers) Fetch(_ context.Context, key string) ([]byte, bool) {
	p.fetched = append(p.fetched, key)
	payload, ok := p.corpus[key]
	return payload, ok
}

func (p *recordingPeers) Replicate(_ context.Context, key string, payload []byte) {
	p.replicated[key] = append(p.replicated[key], payload)
}

// oneIf is the expected count of an event that must happen exactly once when
// cond holds and not at all otherwise.
func oneIf(cond bool) int {
	if cond {
		return 1
	}
	return 0
}

// TestWalkMemoTierMatrix drives the one walk, which always starts at its memo,
// over every {store, peers} combination beneath it and, per combination,
// through every tier that can answer. For
// each answer it pins which tiers were filled (every local tier above the
// answering one, nothing else; the disk write has landed when the walk
// returns), that only fresh non-owned results replicate (exactly once, with
// the bytes the disk holds), that a peer's payload is written through
// as fetched, that degraded results and errors reach no tier, and that the
// memo's counters reconcile: Hits+Misses+Errors == lookups.
func TestWalkMemoTierMatrix(t *testing.T) {
	want := SearchResult{Order: Order{2, 0, 1}, StatesExplored: 11, MaxFrontier: 3, Quality: QualityOptimal}
	const nodes = 3
	seg := whole(edgeless(nodes))
	type outcome int
	const (
		storable outcome = iota
		fellBack
		failed
	)
	scenarios := []struct {
		name  string
		held  memoTier // the tier holding the artifact beforehand; memoTierMiss = none
		owned bool     // this node owns the key
		out   outcome  // what compute returns when it runs
	}{
		{name: "memory", held: memoTierMemory},
		{name: "disk", held: memoTierDisk},
		{name: "peer", held: memoTierPeer},
		{name: "fresh", held: memoTierMiss},
		{name: "fresh-owned", held: memoTierMiss, owned: true},
		{name: "fresh-degraded", held: memoTierMiss, out: fellBack},
		{name: "fresh-error", held: memoTierMiss, out: failed},
	}
	for mask := 0; mask < 4; mask++ {
		hasStore, hasPeers := mask&1 != 0, mask&2 != 0
		t.Run(fmt.Sprintf("memo=true,store=%t,peers=%t", hasStore, hasPeers), func(t *testing.T) {
			memo := NewSegmentMemo(64)
			var disk *ScheduleStore
			var fake *recordingPeers
			var peers PeerTier
			installed := [numMemoTiers]bool{memoTierMemory: true, memoTierMiss: true}
			if hasStore {
				disk, installed[memoTierDisk] = openStoreT(t, t.TempDir()), true
			}
			if hasPeers {
				fake = &recordingPeers{owned: map[string]bool{}, corpus: map[string][]byte{}, replicated: map[string][][]byte{}}
				peers, installed[memoTierPeer] = fake, true
			}
			var lookups, hits, misses, errs int64
			var byTier [numMemoTiers]int64
			for _, sc := range scenarios {
				if !installed[sc.held] {
					continue
				}
				mk := testKey(sc.name)
				key := mk.String()
				seeded := mustMarshalArtifact(t, want)
				switch sc.held {
				case memoTierMemory:
					memo.store.Put(mk, want)
				case memoTierDisk:
					if wrote, err := disk.st.PutIfAbsent(key, seeded); err != nil || !wrote {
						t.Fatalf("seeding the disk tier: wrote=%t err=%v", wrote, err)
					}
				case memoTierPeer:
					fake.corpus[key] = seeded
				}
				if hasPeers {
					fake.owned[key] = sc.owned
					fake.fetched = nil
				}
				var writesBefore int64
				if hasStore {
					writesBefore = disk.Stats().Writes
				}
				computed := 0
				got, tier, err := walkMemo(context.Background(), memo, disk, peers, mk, seg, noFanOut, func() (SearchResult, error) {
					computed++
					switch sc.out {
					case fellBack:
						return SearchResult{Order: want.Order, Quality: QualityHeuristic, FellBack: true}, nil
					case failed:
						return SearchResult{}, errors.New("search exploded")
					}
					return want, nil
				})
				lookups++

				// The answer: right tier, right result, a search only on a miss.
				if sc.out == failed {
					if err == nil {
						t.Errorf("%s: failing compute reported no error", sc.name)
					}
					errs++
				} else {
					if err != nil || tier != sc.held {
						t.Fatalf("%s: answered by %s (err %v), want %s", sc.name, tier.name(), err, sc.held.name())
					}
					if !reflect.DeepEqual(got.Order, want.Order) || got.FellBack != (sc.out == fellBack) {
						t.Errorf("%s: got %+v", sc.name, got)
					}
					byTier[tier]++
					if tier == memoTierMiss {
						misses++
					} else {
						hits++
					}
				}
				if computed != oneIf(sc.held == memoTierMiss) {
					t.Errorf("%s: compute ran %d times with the artifact held by %q", sc.name, computed, sc.held.name())
				}

				// The fills: every local tier above the one that answered.
				fills := sc.out == storable
				if cur, ok := memo.store.Get(mk); ok != fills {
					t.Errorf("%s: memory tier holds the key = %t, want %t", sc.name, ok, fills)
				} else if ok && !reflect.DeepEqual(cur.Order, want.Order) {
					t.Errorf("%s: memory tier holds %v", sc.name, cur.Order)
				}
				var onDisk []byte
				if hasStore {
					if n, wrote := oneIf(fills && sc.held > memoTierDisk), disk.Stats().Writes-writesBefore; wrote != int64(n) {
						t.Errorf("%s: %d disk writes, want %d", sc.name, wrote, n)
					}
					var ok bool
					onDisk, ok = disk.st.Get(key)
					if held := fills && sc.held >= memoTierDisk; ok != held {
						t.Errorf("%s: disk holds the key = %t right after the walk, want %t", sc.name, ok, held)
					}
					if sr, valid := decodeArtifact(onDisk, anyOrderOf(nodes)); ok && (!valid || !reflect.DeepEqual(sr.Order, want.Order)) {
						t.Errorf("%s: the disk holds %q under the key, not the result", sc.name, onDisk)
					}
				}
				if hasPeers {
					// Only a walk that got past the disk asks a peer, and only
					// about keys somebody else owns.
					if n := oneIf(sc.held >= memoTierPeer && !sc.owned); len(fake.fetched) != n {
						t.Errorf("%s: fetched %v, want %d fetches", sc.name, fake.fetched, n)
					}
					// Only fresh, storable, non-owned results replicate; hits
					// from any tier never do.
					reps := fake.replicated[key]
					if n := oneIf(fills && sc.held == memoTierMiss && !sc.owned); len(reps) != n {
						t.Errorf("%s: replicated %d times, want %d", sc.name, len(reps), n)
					}
					if len(reps) == 1 && onDisk != nil && !bytes.Equal(reps[0], onDisk) {
						t.Errorf("%s: the owner got %q, the disk holds %q", sc.name, reps[0], onDisk)
					}
					if sc.held == memoTierPeer && onDisk != nil && !bytes.Equal(onDisk, seeded) {
						t.Errorf("%s: the disk holds %q, not the peer's payload as fetched", sc.name, onDisk)
					}
				}
			}
			st := memo.Stats()
			if st.Hits+st.Misses+st.Errors != lookups {
				t.Errorf("hits %d + misses %d + errors %d != %d lookups", st.Hits, st.Misses, st.Errors, lookups)
			}
			if st.Hits != hits || st.Misses != misses || st.Errors != errs ||
				st.DiskHits != byTier[memoTierDisk] || st.PeerHits != byTier[memoTierPeer] {
				t.Errorf("stats %+v, want hits=%d misses=%d errors=%d disk=%d peer=%d",
					st, hits, misses, errs, byTier[memoTierDisk], byTier[memoTierPeer])
			}
		})
	}
}

// dupSearcher answers every segment with an order of the right length that
// visits node 0 twice: the shape a length-only check lets through.
type dupSearcher struct{}

func (dupSearcher) Name() string    { return "dup" }
func (dupSearcher) MemoKey() string { return "dup" }
func (dupSearcher) Search(_ context.Context, m *MemModel) (SearchResult, error) {
	order := make(Order, m.G.NumNodes())
	for i := 2; i < len(order); i++ {
		order[i] = i
	}
	return SearchResult{Order: order, Quality: QualityOptimal}, nil
}

// TestWalkRejectsNonPermutation pins the one checkpoint every fresh result
// passes — a request's or a refinement's recompute, they are the same walk:
// a searcher returning a right-length non-permutation fails the run, and the
// result reaches no tier (memory, the disk, or the key's ring owner).
func TestWalkRejectsNonPermutation(t *testing.T) {
	memo, ss := NewSegmentMemo(64), openStoreT(t, t.TempDir())
	peers := &recordingPeers{replicated: map[string][][]byte{}}
	p := &Pipeline{Searcher: dupSearcher{}, Partition: true, SegmentMemo: memo, Store: ss, Peers: peers}
	// The first segment of the stack has two nodes, so the sequential run
	// fails on its first search.
	_, err := p.Run(context.Background(), uniformStack("non-permutation", 1, 12))
	if err == nil || !strings.Contains(err.Error(), "not a topological order") {
		t.Fatalf("Run with a duplicate-visiting searcher: err = %v, want a permutation error", err)
	}
	if st := memo.Stats(); st.Entries != 0 || st.Errors != 1 || st.Misses != 0 {
		t.Errorf("memo after the rejected result: %+v, want no entry and one errored lookup", st)
	}
	if st := ss.Stats(); st.Writes != 0 || st.Entries != 0 {
		t.Errorf("a rejected result reached the disk: %d writes, %d entries", st.Writes, st.Entries)
	}
	if len(peers.replicated) != 0 {
		t.Errorf("rejected result replicated toward %d keys' owners", len(peers.replicated))
	}
}

// noFanOut is walkMemo's fetching hook for a walk with no helpers to start.
func noFanOut() {}

// whole is g as the one segment of itself.
func whole(g *Graph) *partition.Segment { return &partition.Segment{G: g, VirtualInput: -1} }

// testKey is a memo key for name: its digest under the discriminator "test".
func testKey(name string) memoKey { return memoKey{sha256.Sum256([]byte(name)), "test"} }

// fitsSegment is Segment.Fits on the whole of seg.
func fitsSegment(seg *Graph, order Order) bool { return whole(seg).Fits(order) }

// edgeless returns a segment of n nodes and no edges: any permutation of
// 0..n-1 is a topological order of it.
func edgeless(n int) *Graph {
	g := NewGraph("edgeless")
	for i := 0; i < n; i++ {
		g.AddNode(graph.OpInput, "in"+strconv.Itoa(i), Shape{1, 1, 1, 1})
	}
	return g
}

// anyOrderOf is the order check of an edgeless n-node segment: any
// permutation of 0..n-1 fits.
func anyOrderOf(n int) func(Order) bool {
	seg := whole(edgeless(n))
	return func(o Order) bool { return seg.Fits(o) }
}

// reversedArtifacts re-encodes every artifact in corpus with its order
// reversed: still a permutation, so it passes the artifact decoder and every
// receiver's gate, but one that breaks a dependency of any segment with an
// edge.
func reversedArtifacts(t testing.TB, corpus map[string][]byte) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte, len(corpus))
	for key, payload := range corpus {
		sr, err := UnmarshalSegmentArtifact(payload)
		if err != nil {
			t.Fatal(err)
		}
		rev := make(Order, len(sr.Order))
		for i, id := range sr.Order {
			rev[len(rev)-1-i] = id
		}
		sr.Order = rev
		out[key] = mustMarshalArtifact(t, sr)
	}
	return out
}

// TestWalkReplacesPlantedArtifacts: an artifact whose order breaks a
// dependency of its segment — planted in the store through the replication
// receiver's PutArtifact or through an imported store stream, or answered by
// a peer — is a miss, not a failed
// compilation. Each compile returns the unpressured exact answer; the disk
// record is deleted, counted corrupt and replaced by the recomputed result,
// which later compiles hit; a peer's answer counts no hit.
func TestWalkReplacesPlantedArtifacts(t *testing.T) {
	g := uniformStack("planted", 3, 12)
	opts := DefaultOptions()
	opts.StepTimeout = time.Minute
	ctx := context.Background()
	// The unpressured exact answer, and every segment's artifact by its key.
	probe := &fakeFleet{corpus: map[string][]byte{}}
	pp := memoPipeline(t, opts, NewSegmentMemo(256))
	pp.Peers = probe
	want, err := pp.Run(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	planted := reversedArtifacts(t, probe.corpus)

	// The two ways a payload lands in the store: the replication receiver's
	// PutArtifact, and the store-stream merge an anti-entropy round and
	// `serenity store import` share.
	plant := map[string]func(t *testing.T, ss *ScheduleStore){
		"disk": func(t *testing.T, ss *ScheduleStore) {
			for key, payload := range planted {
				if !ss.PutArtifact(key, payload) {
					t.Fatalf("PutArtifact refused the planted %q", key)
				}
			}
		},
		"import": func(t *testing.T, ss *ScheduleStore) {
			src := openStoreT(t, t.TempDir())
			for key, payload := range planted {
				src.PutArtifact(key, payload)
			}
			var stream bytes.Buffer
			if n, err := src.ExportMissing(&stream, nil, len(planted)); err != nil || n != len(planted) {
				t.Fatalf("exported %d of %d plants: %v", n, len(planted), err)
			}
			if added, err := ss.ImportMissing(&stream); err != nil || added != len(planted) {
				t.Fatalf("ImportMissing added %d of %d plants: %v", added, len(planted), err)
			}
		},
	}
	for _, path := range []string{"disk", "import"} {
		t.Run(path, func(t *testing.T) {
			ss := openStoreT(t, t.TempDir())
			plant[path](t, ss)
			for run := 1; run <= 2; run++ {
				got, err := storePipeline(t, opts, NewSegmentMemo(256), ss).Run(ctx, g)
				if err != nil {
					t.Fatalf("run %d over planted artifacts: %v", run, err)
				}
				assertSameResult(t, fmt.Sprintf("run %d", run), want, got)
				if run == 2 && (got.FreshStatesExplored != 0 || got.SegmentMemoDiskHits != len(planted)) {
					t.Errorf("run 2: %d fresh states, %d disk hits for %d keys; the recomputed results did not take their keys",
						got.FreshStatesExplored, got.SegmentMemoDiskHits, len(planted))
				}
			}
			if st := ss.Stats(); st.CorruptRecords != int64(len(planted)) || st.Entries != len(planted) {
				t.Errorf("store after two runs: %d corrupt records, %d entries; want %d of each", st.CorruptRecords, st.Entries, len(planted))
			}
		})
	}

	t.Run("peer", func(t *testing.T) {
		fleet := &fakeFleet{corpus: planted}
		for run := 1; run <= 2; run++ {
			p := memoPipeline(t, opts, NewSegmentMemo(256))
			p.Peers = fleet
			got, err := p.Run(ctx, g)
			if err != nil {
				t.Fatalf("run %d over planted peer answers: %v", run, err)
			}
			assertSameResult(t, fmt.Sprintf("run %d", run), want, got)
			if got.SegmentMemoPeerHits != 0 {
				t.Errorf("run %d counted %d planted peer answers as hits", run, got.SegmentMemoPeerHits)
			}
		}
		if fleet.fetchHits == 0 {
			t.Error("no planted answer was fetched")
		}
	})
}

// TestWalkFollowerDeadlineDegrades: a caller whose deadline expires while it
// follows another caller's flight — a patient request's, or a background
// refinement's, which may hold a segment's flight for its whole exact search
// — is answered by its own searcher's deadline behaviour (here a degraded
// fallback), not failed with the flight's wait error; the fallback reaches no
// tier, and the leader's exact result still lands.
func TestWalkFollowerDeadlineDegrades(t *testing.T) {
	memo := NewSegmentMemo(64)
	seg := whole(edgeless(3))
	exact := SearchResult{Order: Order{0, 1, 2}, StatesExplored: 9, Quality: QualityOptimal}
	leading, release := make(chan struct{}), make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := walkMemo(context.Background(), memo, nil, nil, testKey("k"), seg, noFanOut, func() (SearchResult, error) {
			close(leading)
			<-release
			return exact, nil
		})
		leaderDone <- err
	}()
	<-leading

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	fallback := SearchResult{Order: Order{2, 1, 0}, Quality: QualityHeuristic, FellBack: true, FallbackReason: context.DeadlineExceeded}
	sr, tier, err := walkMemo(ctx, memo, nil, nil, testKey("k"), seg, noFanOut, func() (SearchResult, error) {
		if ctx.Err() == nil {
			t.Error("the follower searched before its deadline expired instead of waiting on the flight")
		}
		return fallback, nil
	})
	if err != nil || !sr.FellBack || tier != memoTierMiss {
		t.Fatalf("follower past its deadline: sr=%+v tier=%v err=%v, want its searcher's fallback", sr, tier, err)
	}
	if _, ok := memo.store.Get(testKey("k")); ok {
		t.Error("the follower's fallback was stored")
	}
	close(release)
	if err := <-leaderDone; err != nil {
		t.Fatal(err)
	}
	if got, ok := memo.store.Get(testKey("k")); !ok || !reflect.DeepEqual(got.Order, exact.Order) {
		t.Errorf("after the leader finished the memo holds %+v (ok=%t), want its exact result", got, ok)
	}
	if st := memo.Stats(); st.Misses != 2 || st.Errors != 0 {
		t.Errorf("stats %+v, want two misses (each caller ran its searcher) and no errors", st)
	}
}

// TestWalkSearchesAColdKeyOnce races walkers on fresh keys: however their
// memory lookups interleave with a flight that fills the key and closes, each
// key costs exactly one search, and every other walker counts a memory hit.
func TestWalkSearchesAColdKeyOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	memo := NewSegmentMemo(64)
	seg := whole(edgeless(3))
	const keys, walkers = 5000, 8
	redone := 0
	for k := 0; k < keys; k++ {
		key := testKey(fmt.Sprintf("k%d", k))
		var searches atomic.Int64
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < walkers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if _, _, err := walkMemo(context.Background(), memo, nil, nil, key, seg, noFanOut, func() (SearchResult, error) {
					searches.Add(1)
					return SearchResult{Order: Order{0, 1, 2}, Quality: QualityOptimal}, nil
				}); err != nil {
					t.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()
		if searches.Load() != 1 {
			redone++
		}
	}
	if redone != 0 {
		t.Errorf("%d of %d cold keys were searched more than once", redone, keys)
	}
	if st := memo.Stats(); st.Misses != keys || st.Hits != keys*(walkers-1) || st.Errors != 0 {
		t.Errorf("stats %+v, want one miss per key and a memory hit for every other walker", st)
	}
}

// TestWalkVsUpgradeFirstWriterStands is the disk tier's first-writer-stands
// race (run under -race in CI). A walk's write (the store's put-if-absent)
// races the anti-entropy import of a peer's byte-different
// twin for the same key; exactly one of them lands, and the first bytes on
// disk are the only bytes ever on disk — the conditional puts decide under
// the store's own lock, so neither writer can slip between the other's check
// and its write.
func TestWalkVsUpgradeFirstWriterStands(t *testing.T) {
	ss := openStoreT(t, t.TempDir())
	fresh := SearchResult{Order: Order{0, 1, 2}, StatesExplored: 5, Quality: QualityOptimal}
	refined := SearchResult{Order: Order{2, 1, 0}, StatesExplored: 9, Quality: QualityOptimal}
	rounds := 300
	if testing.Short() {
		rounds = 50
	}
	local, _ := MarshalSegmentArtifact(fresh)
	twin, _ := MarshalSegmentArtifact(refined)
	peer := openStoreT(t, t.TempDir())
	exported := map[uint64]bool{} // the peer's earlier rounds' keys
	for round := 0; round < rounds; round++ {
		key := fmt.Sprintf("import-%d|k", round)
		var stream bytes.Buffer
		if !peer.PutArtifact(key, twin) {
			t.Fatal("peer store refused the twin")
		}
		if n, err := peer.ExportMissing(&stream, exported, 1); err != nil || n != 1 {
			t.Fatalf("exported %d records (err %v), want this round's one", n, err)
		}
		exported[store.KeyHash(key)] = true
		start := make(chan struct{})
		landed := make(chan bool)
		go func() {
			<-start
			wrote, err := ss.st.PutIfAbsent(key, local) // what a walk's write does
			landed <- wrote && err == nil
		}()
		go func() {
			<-start
			added, err := ss.ImportMissing(&stream)
			landed <- added == 1 && err == nil
		}()
		close(start)
		if a, b := <-landed, <-landed; a == b {
			t.Fatalf("round %d: the walk's write and the import both report landed=%t, want exactly one winner", round, a)
		}
	}
}
