// Package memsim models a two-level memory hierarchy (on-chip SRAM backed
// by off-chip DRAM) executing a scheduled graph, and measures the off-chip
// traffic a schedule induces. Replacement is Belady's clairvoyant optimal
// algorithm, exactly as the paper uses for Figure 11 ("since we know the
// entire schedule a priori, we use Belady's optimal algorithm ... for
// measuring the off-chip memory communication").
//
// Units are whole activation tensors (the scheduler's allocation
// granularity). Weights are excluded, matching the paper's activation-only
// accounting: a device whose activations fit on-chip reports zero traffic
// ("SERENITY removes off-chip communication" markers in Figure 11).
package memsim

import (
	"fmt"

	"github.com/serenity-ml/serenity/internal/sched"
)

// Policy selects the replacement policy.
type Policy int

// Replacement policies. Belady is the paper's choice; LRU exists for the
// ablation benchmarks.
const (
	Belady Policy = iota
	LRU
)

// String names the policy.
func (p Policy) String() string {
	if p == LRU {
		return "lru"
	}
	return "belady"
}

// Config parameterizes the hierarchy.
type Config struct {
	OnChipBytes int64
	Policy      Policy
}

// Traffic aggregates the off-chip bytes moved while executing a schedule.
type Traffic struct {
	FetchBytes     int64 // DRAM -> SRAM refills (re-reads of spilled tensors)
	WritebackBytes int64 // SRAM -> DRAM spills of still-live tensors
	BypassBytes    int64 // tensors larger than SRAM, streamed per access
	Accesses       int   // total tensor touches
	Misses         int   // touches that moved data
}

// Total returns all off-chip bytes moved.
func (t *Traffic) Total() int64 { return t.FetchBytes + t.WritebackBytes + t.BypassBytes }

// access is one tensor touch in the trace.
type access struct {
	root  int
	write bool
}

// trace builds the tensor-touch sequence of order: executing node u writes
// its output storage and reads each distinct predecessor tensor.
func trace(m *sched.MemModel, order sched.Schedule) []access {
	var tr []access
	for _, u := range order {
		for _, r := range m.PredRoots[u] {
			tr = append(tr, access{root: r, write: false})
		}
		root := m.Root[u]
		if m.RootSize[root] > 0 {
			tr = append(tr, access{root: root, write: true})
		}
	}
	return tr
}

// Simulate executes order against the hierarchy and returns the traffic.
func Simulate(m *sched.MemModel, order sched.Schedule, cfg Config) (*Traffic, error) {
	if err := m.CheckValid(order); err != nil {
		return nil, err
	}
	if cfg.OnChipBytes <= 0 {
		return nil, fmt.Errorf("memsim: on-chip capacity must be positive")
	}
	tr := trace(m, order)

	// nextUse[i] = index of the next access to the same tensor, or infinity.
	const inf = int(^uint(0) >> 1)
	nextUse := make([]int, len(tr))
	last := map[int]int{}
	for i := len(tr) - 1; i >= 0; i-- {
		if j, ok := last[tr[i].root]; ok {
			nextUse[i] = j
		} else {
			nextUse[i] = inf
		}
		last[tr[i].root] = i
	}

	// Remaining-consumer counts determine tensor death (scratch semantics:
	// dead tensors vanish without writeback).
	remaining := make([]int, m.G.NumNodes())
	for r, cs := range m.Consumers {
		remaining[r] = len(cs)
	}

	type line struct {
		size    int64
		dirty   bool
		nextUse int
		lastHit int // for LRU
	}
	resident := map[int]*line{}
	var used int64
	out := &Traffic{}

	evictOne := func(now int) {
		victim := -1
		switch cfg.Policy {
		case Belady:
			far := -1
			for r, ln := range resident {
				if ln.nextUse > far {
					far = ln.nextUse
					victim = r
				}
			}
		case LRU:
			oldest := inf
			for r, ln := range resident {
				if ln.lastHit < oldest {
					oldest = ln.lastHit
					victim = r
				}
			}
		}
		ln := resident[victim]
		if ln.dirty {
			out.WritebackBytes += ln.size
		}
		used -= ln.size
		delete(resident, victim)
	}

	for i, a := range tr {
		size := m.RootSize[a.root]
		out.Accesses++
		if size > cfg.OnChipBytes {
			// Tensor can never fit: streamed directly to/from DRAM.
			out.BypassBytes += size
			out.Misses++
		} else if ln, ok := resident[a.root]; ok {
			ln.nextUse = nextUse[i]
			ln.lastHit = i
			if a.write {
				ln.dirty = true
			}
		} else {
			for used+size > cfg.OnChipBytes {
				evictOne(i)
			}
			if !a.write {
				// Read miss: the tensor was spilled earlier (or bypass-
				// written); refill from DRAM.
				out.FetchBytes += size
				out.Misses++
			}
			if a.write {
				// Write miss allocates without fetching (whole-tensor write).
				out.Misses++
			}
			resident[a.root] = &line{size: size, dirty: a.write, nextUse: nextUse[i], lastHit: i}
			used += size
		}

		// Death check: a read that exhausts the consumers frees the tensor.
		if !a.write {
			remaining[a.root]--
			if remaining[a.root] == 0 {
				if ln, ok := resident[a.root]; ok {
					used -= ln.size
					delete(resident, a.root)
				}
			}
		}
	}
	return out, nil
}
