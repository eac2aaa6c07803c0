package graph

import (
	"sync"
	"sync/atomic"
)

// Zobrist hashing support for the DP scheduler's state signatures.
//
// A Zobrist table assigns every node a fixed pseudo-random 64-bit word; the
// hash of a node set is the XOR of its members' words (the empty set hashes
// to 0). Because XOR is its own inverse, adding or removing one node updates
// the hash in O(1): hash(S ∪ {u}) = hash(S) ^ table[u]. The DP scheduler
// exploits this on graphs over 64 nodes (a smaller one keys a state on its
// one-word set directly) to compute a transition's signature hash *before*
// materializing the child bitset, so duplicate states are detected without
// allocating.
//
// The table is generated by SplitMix64 from a fixed seed, so hashes are
// deterministic across processes and runs — a requirement for the
// scheduler's bit-for-bit reproducibility guarantees. Hash equality is never
// trusted on its own; collisions are disambiguated by word-level bitset
// comparison at the point of use.

// zobristSeed fixes the SplitMix64 stream the table is drawn from. The value
// is arbitrary but must never change casually: it is part of the scheduler's
// deterministic behavior (though not of any persisted format).
const zobristSeed = 0x5345524e49545921 // "SERENITY!"

// ZobristTable returns the per-node hash words for a graph of n nodes, in a
// table of the caller's own.
func ZobristTable(n int) []uint64 {
	t := make([]uint64, n)
	s := uint64(zobristSeed)
	for i := range t {
		t[i], s = splitmix64(s)
	}
	return t
}

// zobristShared is the process-wide table Zobrist serves prefixes of: the
// first words of the one SplitMix64 stream, grown (never redrawn) when a
// larger graph asks. A published table is never written again.
var zobristShared struct {
	mu    sync.Mutex
	table atomic.Pointer[[]uint64]
}

// Zobrist returns ZobristTable(n)'s words without drawing them: a prefix of
// one process-wide table, so building a memory model costs no table of its
// own. The slice is shared and read-only; its capacity ends at n, so an
// append copies it instead of writing into the shared words.
func Zobrist(n int) []uint64 {
	if t := zobristShared.table.Load(); t != nil && len(*t) >= n {
		return (*t)[:n:n]
	}
	zobristShared.mu.Lock()
	defer zobristShared.mu.Unlock()
	t := zobristShared.table.Load()
	if t == nil || len(*t) < n {
		// Doubling keeps the number of redraws logarithmic in the largest n.
		size := 64
		if t != nil {
			size = 2 * len(*t)
		}
		grown := ZobristTable(max(size, n))
		t = &grown
		zobristShared.table.Store(t)
	}
	return (*t)[:n:n]
}

// splitmix64 advances the SplitMix64 generator: it returns the output word
// for state s and the successor state. The finalizer is Stafford's variant
// 13 — full 64-bit avalanche, so XOR-combining outputs for distinct nodes
// behaves like independent uniform words.
func splitmix64(s uint64) (uint64, uint64) {
	s += 0x9e3779b97f4a7c15
	z := s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31), s
}

// ZobristHash computes the set's hash from scratch against table: the XOR of
// table[i] over every member i. The incremental form (XOR one word per
// insertion) must always agree with this; tests rely on that equivalence.
func (b *Bitset) ZobristHash(table []uint64) uint64 {
	var h uint64
	b.ForEach(func(i int) { h ^= table[i] })
	return h
}
