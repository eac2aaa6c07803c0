// Package reuse is the idiom the recycled working sets are built on: a buffer
// kept from one use to the next is emptied, and replaced by a new one of
// exactly the size asked for only when it is too small. Unlike slices.Grow,
// which builds on append, it makes the new array directly, so a fresh working
// set allocates one object per buffer in every build mode.
package reuse

// Empty returns b emptied with room for n elements: b's own array when it has
// the room, else a new array of capacity n (nothing of b is copied).
func Empty[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, 0, n)
	}
	return b[:0]
}

// Len returns b with length n: b's own array when it has the room, else a new
// zeroed one. Elements of a reused array keep what they held, so the caller
// overwrites or clears every one.
func Len[T any](b []T, n int) []T {
	if cap(b) < n {
		return make([]T, n)
	}
	return b[:n]
}
