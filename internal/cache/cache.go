// Package cache provides the bounded LRU used to memoize schedule results:
// serenityd's response cache and the segment memo's memory tier. Keys are
// canonical structural fingerprints plus an options discriminator (a string
// for whole responses, a digest value for segments), so two requests
// carrying the same topology hit the same entry no matter how the graphs are
// named.
//
// The cache is safe for concurrent use. Values are treated as immutable:
// callers must not mutate a value after Put or after reading it with Get —
// serenityd shares one stored answer across all hits for a key. Hits are
// structural while names are the requester's: the stored answer (order,
// peaks, qualities, ETag) holds no graph and no names, and each hit's
// response carries the requester's own graph name and rewritten graph.
package cache

import (
	"container/list"
	"sync"
)

// Stats is a snapshot of the cache's hit/miss counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Len       int
}

// LRU is a fixed-capacity LRU map from keys of type K to values of type V.
type LRU[K comparable, V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[K]*list.Element
	stats Stats
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// Cache is the LRU keyed by strings.
type Cache[V any] = LRU[string, V]

// New returns a string-keyed cache holding at most capacity entries; see
// NewLRU.
func New[V any](capacity int) *Cache[V] { return NewLRU[string, V](capacity) }

// NewLRU returns an LRU cache holding at most capacity entries; capacity < 1
// is raised to 1. The index grows with the entries: a table sized to
// capacity up front is resident before the first entry (about half a
// megabyte for the segment memo's 4096 value keys).
func NewLRU[K comparable, V any](capacity int) *LRU[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU[K, V]{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[K]*list.Element),
	}
}

// Get returns the value for key, marking it most recently used.
func (c *LRU[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		return el.Value.(*entry[K, V]).val, true
	}
	c.stats.Misses++
	var zero V
	return zero, false
}

// Put inserts or refreshes key, evicting the least recently used entry when
// over capacity.
func (c *LRU[K, V]) Put(key K, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[K, V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.insert(key, val)
}

// PutIfAbsent is the first-writer-wins Put: it stores val under key unless
// the key already holds a value, and returns the value that stands and
// whether it was val. The check and the write share the cache's lock, so of
// any number of racing writers exactly one wins. A standing value is not
// marked used and counts as neither hit nor miss.
func (c *LRU[K, V]) PutIfAbsent(key K, val V) (stands V, wrote bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		return el.Value.(*entry[K, V]).val, false
	}
	c.insert(key, val)
	return val, true
}

// insert adds a new most-recently-used entry and evicts down to capacity.
// The caller holds c.mu and has checked that key is absent.
func (c *LRU[K, V]) insert(key K, val V) {
	c.items[key] = c.ll.PushFront(&entry[K, V]{key: key, val: val})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*entry[K, V]).key)
		c.stats.Evictions++
	}
}

// Cap returns the most entries the cache holds.
func (c *LRU[K, V]) Cap() int { return c.cap }

// Len returns the current number of entries.
func (c *LRU[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the counters.
func (c *LRU[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Len = c.ll.Len()
	return s
}
