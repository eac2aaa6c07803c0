package serenity

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"
)

// fakeFleet is an in-memory PeerTier: a shared key->payload corpus standing
// in for the rest of the fleet, with an ownership predicate per node. It lets
// the pipeline-level contract — fetch before compute, validate before trust,
// replicate after fresh compute — be tested without HTTP.
type fakeFleet struct {
	mu      sync.Mutex
	corpus  map[string][]byte
	ownsAll bool // true = this node owns everything (fleet tier inert)

	fetches, fetchHits, replicas int
}

func (f *fakeFleet) Owns(key string) bool { return f.ownsAll }

func (f *fakeFleet) Fetch(ctx context.Context, key string) ([]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.fetches++
	payload, ok := f.corpus[key]
	if ok {
		f.fetchHits++
	}
	return payload, ok
}

func (f *fakeFleet) Replicate(_ context.Context, key string, payload []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.replicas++
	if _, exists := f.corpus[key]; !exists {
		f.corpus[key] = payload
	}
}

// TestPeerTierGlobalPayOnce is the fleet contract at pipeline scope: node A
// computes a graph and replicates its artifacts; node B — cold memory, cold
// disk — compiles the same graph entirely from peer fetches, with zero fresh
// search work and a bit-identical result.
func TestPeerTierGlobalPayOnce(t *testing.T) {
	g := uniformStack("fleet-pay-once", 4, 12)
	opts := DefaultOptions()
	opts.StepTimeout = time.Minute

	corpus := map[string][]byte{}
	nodeA := &fakeFleet{corpus: corpus}
	pa := memoPipeline(t, opts, NewSegmentMemo(256))
	pa.Peers = nodeA
	cold, err := pa.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if nodeA.replicas == 0 {
		t.Fatal("node A never replicated its fresh computes to the fleet")
	}
	if cold.SegmentMemoPeerHits != 0 {
		t.Errorf("cold run against an empty fleet reported %d peer hits", cold.SegmentMemoPeerHits)
	}

	nodeB := &fakeFleet{corpus: corpus}
	pb := memoPipeline(t, opts, NewSegmentMemo(256))
	pb.Peers = nodeB
	warm, err := pb.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if warm.FreshStatesExplored != 0 {
		t.Errorf("node B explored %d fresh states; the fleet corpus should have answered every segment", warm.FreshStatesExplored)
	}
	if warm.SegmentMemoPeerHits == 0 {
		t.Error("node B reported no peer hits compiling a fleet-warm graph")
	}
	if !reflect.DeepEqual(cold.Order, warm.Order) {
		t.Errorf("fleet-served order diverged from the computing node's:\nA: %v\nB: %v", cold.Order, warm.Order)
	}
	assertSameResult(t, "fleet pay-once", cold, warm)
}

// TestPeerTierSelfOwnedKeysSkipTheFleet: a node that owns a key must compute
// it locally without dialing anybody — it IS the authority the rest of the
// fleet would ask.
func TestPeerTierSelfOwnedKeysSkipTheFleet(t *testing.T) {
	g := uniformStack("fleet-self-owned", 3, 12)
	opts := DefaultOptions()
	opts.StepTimeout = time.Minute
	fleet := &fakeFleet{corpus: map[string][]byte{}, ownsAll: true}
	p := memoPipeline(t, opts, NewSegmentMemo(256))
	p.Peers = fleet
	if _, err := p.Run(context.Background(), g); err != nil {
		t.Fatal(err)
	}
	if fleet.fetches != 0 || fleet.replicas != 0 {
		t.Errorf("self-owned keys touched the fleet: %d fetches, %d replicas", fleet.fetches, fleet.replicas)
	}
}

// TestPeerTierRejectsInvalidArtifacts: a peer handing back garbage — wrong
// node count, truncated bytes, alien versions — must degrade to local
// compute, never into a wrong schedule or a stored poison entry.
func TestPeerTierRejectsInvalidArtifacts(t *testing.T) {
	g := uniformStack("fleet-invalid", 3, 12)
	opts := DefaultOptions()
	opts.StepTimeout = time.Minute

	// Build a corpus of the RIGHT keys holding WRONG payloads: a valid
	// artifact whose node count matches no segment in the graph, and raw
	// garbage. (An order that breaks a dependency is caught too, see
	// TestWalkReplacesPlantedArtifacts; one that respects every dependency
	// but is not the optimum is undetectable by construction — content
	// addressing is the defense there. Same trust bar as the disk tier.)
	probe := &fakeFleet{corpus: map[string][]byte{}}
	pp := memoPipeline(t, opts, NewSegmentMemo(256))
	pp.Peers = probe
	want, err := pp.Run(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	alienOrder := make(Order, 40)
	for i := range alienOrder {
		alienOrder[i] = i
	}
	alien, err := MarshalSegmentArtifact(SearchResult{Order: alienOrder, Quality: QualityOptimal})
	if err != nil {
		t.Fatal(err)
	}
	poisoned := map[string][]byte{}
	i := 0
	for key := range probe.corpus {
		if i%2 == 0 {
			poisoned[key] = alien
		} else {
			poisoned[key] = []byte("definitely not an artifact")
		}
		i++
	}

	fleet := &fakeFleet{corpus: poisoned}
	p := memoPipeline(t, opts, NewSegmentMemo(256))
	p.Peers = fleet
	got, err := p.Run(context.Background(), g)
	if err != nil {
		t.Fatalf("poisoned fleet surfaced an error instead of degrading: %v", err)
	}
	if got.SegmentMemoPeerHits != 0 {
		t.Errorf("%d invalid peer artifacts were counted as hits", got.SegmentMemoPeerHits)
	}
	if got.FreshStatesExplored == 0 {
		t.Error("node accepted poisoned artifacts instead of recomputing")
	}
	if fleet.fetchHits == 0 {
		t.Error("test never exercised the validation path (no corpus fetches hit)")
	}
	assertSameResult(t, "poisoned fleet degrades to local compute", want, got)
}
