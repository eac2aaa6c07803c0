package graph

import (
	"math/bits"
)

// Bitset is a fixed-capacity set of node IDs backed by 64-bit words. It is
// the workhorse of the DP scheduler's signatures and of reachability
// analysis; all operations are allocation-free unless noted.
type Bitset struct {
	words []uint64
	n     int // capacity in bits
}

// NewBitset returns an empty bitset able to hold IDs in [0, n).
func NewBitset(n int) *Bitset {
	return &Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the capacity in bits.
func (b *Bitset) Len() int { return b.n }

// Set adds i to the set.
func (b *Bitset) Set(i int) { b.words[i>>6] |= 1 << uint(i&63) }

// Clear removes i from the set.
func (b *Bitset) Clear(i int) { b.words[i>>6] &^= 1 << uint(i&63) }

// Has reports whether i is in the set.
func (b *Bitset) Has(i int) bool { return b.words[i>>6]&(1<<uint(i&63)) != 0 }

// Count returns the number of set bits.
func (b *Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns a copy of the set.
func (b *Bitset) Clone() *Bitset {
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	return &Bitset{words: w, n: b.n}
}

// Or sets b to b ∪ o.
func (b *Bitset) Or(o *Bitset) {
	for i, w := range o.words {
		b.words[i] |= w
	}
}

// AndNot sets b to b \ o.
func (b *Bitset) AndNot(o *Bitset) {
	for i, w := range o.words {
		b.words[i] &^= w
	}
}

// Equal reports whether both sets contain the same elements.
func (b *Bitset) Equal(o *Bitset) bool {
	if len(b.words) != len(o.words) {
		return false
	}
	for i, w := range b.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// Words exposes the backing 64-bit words, least-significant IDs first. The
// slice aliases the bitset's storage: callers mutating it mutate the set.
// This is the escape hatch the DP scheduler's slab arenas are built on; most
// callers want the element-level API instead.
func (b *Bitset) Words() []uint64 { return b.words }

// Attach repoints the bitset at an external word slice holding a set over
// [0, n), turning b into a zero-allocation *view*: no copy is made, and
// mutations flow both ways. len(words) must be (n+63)/64. The DP scheduler
// uses one reusable attached Bitset to present slab-arena regions to
// MemModel.StepDealloc without materializing per-state bitsets.
func (b *Bitset) Attach(words []uint64, n int) {
	b.words = words
	b.n = n
}

// Key returns a compact string usable as a map key. The string shares no
// storage with the bitset. The production DP scheduler indexes its frontier
// by Zobrist hash instead; Key survives as the reference implementation's
// (and any external caller's) allocation-heavy but dependency-free keying.
func (b *Bitset) Key() string {
	buf := make([]byte, 8*len(b.words))
	for i, w := range b.words {
		buf[8*i+0] = byte(w)
		buf[8*i+1] = byte(w >> 8)
		buf[8*i+2] = byte(w >> 16)
		buf[8*i+3] = byte(w >> 24)
		buf[8*i+4] = byte(w >> 32)
		buf[8*i+5] = byte(w >> 40)
		buf[8*i+6] = byte(w >> 48)
		buf[8*i+7] = byte(w >> 56)
	}
	return string(buf)
}

// ForEach calls fn for every set bit in ascending order.
func (b *Bitset) ForEach(fn func(i int)) {
	for wi, w := range b.words {
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			fn(wi*64 + tz)
			w &= w - 1
		}
	}
}

// Elems returns the set's elements in ascending order.
func (b *Bitset) Elems() []int {
	out := make([]int, 0, b.Count())
	b.ForEach(func(i int) { out = append(out, i) })
	return out
}
