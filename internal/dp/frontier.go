package dp

// Allocation-free frontier machinery for the DP scheduler.
//
// The original implementation kept each DP level as a []state of heap
// bitsets indexed by a map[string]int32, which allocated on every
// transition: a string key plus two bitset clones even when the child was a
// duplicate that got discarded immediately. This file replaces that with
// three allocation-free structures, all recycled across searches (see the
// workspace pool in scheduler.go):
//
//   - level: a flat slab arena. Every state at a level uses exactly
//     2W words (W = ⌈n/64⌉): its scheduled set followed by its ready set,
//     at offset 2·i·W in one shared []uint64. A level grows by appending to
//     the slab (amortized, no per-state allocations) and is recycled
//     wholesale for a later level once retired.
//
//   - ftable: an open-addressed, linear-probing index from a state's key to
//     its index. The key is incremental — a transition's key is
//     parent.key ^ keys[u], known before the child exists — and there are
//     two widths of it. A segment of at most 64 nodes (every segment the
//     partitioner cuts from the paper's cells and the benchmark's graphs)
//     keys a state on its scheduled word itself (keys[u] = 1<<u): the key is
//     the set, so a key match is a set match and nothing else is compared.
//     A wider graph cannot fit its set in the key, so it uses the 64-bit
//     Zobrist hash (MemModel.Zobrist), and a key match is confirmed by
//     equalPlusBit, which compares the stored child against "parent ∪ {u}"
//     word by word without materializing anything. Either way a duplicate
//     transition costs zero allocations: probe, compare, update
//     peak/parent/via.
//
//   - appendChild (scheduler.go): the only path that materializes a state,
//     writing the child's words straight into the slab.

// stNode is one frontier entry's metadata. Its bitsets live in the owning
// level's slab at offset 2·i·W, not here, so retiring a level can drop all
// bitsets in one slice swap. peak/parent/via are updated in place when a
// duplicate transition reaches the same signature with a lower peak.
type stNode struct {
	hash   uint64 // table key: the scheduled word (n ≤ 64) or its Zobrist hash
	mu     int64  // running footprint after this state's deallocations
	peak   int64  // best (minimum) peak over all partial schedules reaching it
	parent int32  // index into the previous level; -1 at level 0
	via    int32  // node scheduled to reach this state; -1 at level 0
}

// pv is the two-field residue of a retired level: everything schedule
// reconstruction needs. Completed levels are compacted from stNode+slab
// (~2W words + 32 bytes per state) down to 8 bytes per state.
type pv struct{ parent, via int32 }

// level is one DP level's frontier: state metadata plus the slab arena
// backing every state's scheduled and ready words.
type level struct {
	states []stNode
	slab   []uint64 // 2W words per state: scheduled then ready
}

// reset empties the level for reuse, keeping capacity.
func (l *level) reset() {
	l.states = l.states[:0]
	l.slab = l.slab[:0]
}

// sched returns state i's scheduled words.
func (l *level) sched(i, w int) []uint64 {
	off := 2 * i * w
	return l.slab[off : off+w]
}

// ready returns state i's ready (zero-indegree) words.
func (l *level) ready(i, w int) []uint64 {
	off := 2*i*w + w
	return l.slab[off : off+w]
}

// equalPlusBit reports whether child equals parent with bit (uw, ubit) set:
// the word-level comparison of an existing state's scheduled set against the
// speculative transition's, without materializing the latter.
func equalPlusBit(child, parent []uint64, uw int, ubit uint64) bool {
	for i, cw := range child {
		pw := parent[i]
		if i == uw {
			pw |= ubit
		}
		if cw != pw {
			return false
		}
	}
	return true
}

// minTableSize is the smallest slot count an ftable uses; always a power of
// two so probing can mask instead of mod.
const minTableSize = 64

// ftable is the open-addressed frontier index: each 4-byte slot holds one
// plus a state index into the level under construction (0 = empty), probed
// linearly from a multiplicative hash of the state's key. Load factor stays
// under 3/4 (rehash re-probes every state, whose keys live in stNode). The
// slot buffer persists across levels and searches, so steady-state lookups
// and inserts allocate nothing.
type ftable struct {
	slots []int32
	mask  uint64
	shift uint // 64 − log2(len(slots)): home takes the product's top bits
	used  int
}

// reset prepares the table for a new level expected to index about hint
// states: a power of two at least 4·hint slots, carved from the retained
// buffer when it is large enough and cleared in place.
func (t *ftable) reset(hint int) {
	size := minTableSize
	for size < 4*hint && size < 1<<30 {
		size <<= 1
	}
	t.resize(size)
}

// resize empties the table at size slots (a power of two).
func (t *ftable) resize(size int) {
	if cap(t.slots) >= size {
		t.slots = t.slots[:size]
		clear(t.slots)
	} else {
		t.slots = make([]int32, size)
	}
	t.mask = uint64(size - 1)
	t.shift = 64
	for s := size; s > 1; s >>= 1 {
		t.shift--
	}
	t.used = 0
}

// home is key h's first slot: Fibonacci hashing, so a one-word key — a
// scheduled set whose low bits barely vary within a level — spreads as well
// as a Zobrist hash does.
func (t *ftable) home(h uint64) uint64 {
	return (h * 0x9E3779B97F4A7C15) >> (t.shift & 63)
}

// grow doubles the table when one more insertion could push the load factor
// past 3/4, re-probing every state already in lvl. Callers invoke it before
// probe so the returned insertion slot stays valid for place.
func (t *ftable) grow(lvl *level) {
	if (t.used+1)*4 <= len(t.slots)*3 {
		return
	}
	t.rehash(lvl)
}

// rehash rebuilds the table at twice its size from lvl's states.
func (t *ftable) rehash(lvl *level) {
	used := t.used
	t.resize(2 * len(t.slots))
	for idx := range lvl.states {
		pos := t.home(lvl.states[idx].hash)
		for t.slots[pos] != 0 {
			pos = (pos + 1) & t.mask
		}
		t.slots[pos] = int32(idx + 1)
	}
	t.used = used
}

// probe looks up the child signature "parent ∪ {u}" by its key h. On a hit
// it returns the existing state's index; on a miss it returns -1 plus the
// empty slot where place must insert the new state. A one-word key is the
// set itself, so only a wider key (w > 1) is confirmed against the slab.
func (t *ftable) probe(h uint64, lvl *level, w int, psched []uint64, uw int, ubit uint64) (int32, uint64) {
	for pos := t.home(h); ; pos = (pos + 1) & t.mask {
		si := t.slots[pos] - 1
		if si < 0 {
			return -1, pos
		}
		if lvl.states[si].hash == h && (w == 1 || equalPlusBit(lvl.sched(int(si), w), psched, uw, ubit)) {
			return si, pos
		}
	}
}

// place records a newly appended state's index in the slot probe returned.
func (t *ftable) place(pos uint64, idx int32) {
	t.slots[pos] = idx + 1
	t.used++
}
