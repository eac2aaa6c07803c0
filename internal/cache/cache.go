// Package cache provides the bounded LRU used by the serenityd compile
// server to memoize schedule results. Keys are canonical structural
// fingerprints (graph.Fingerprint plus an options discriminator), so two
// requests carrying the same topology hit the same entry no matter how the
// graphs are named.
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

// Cache is a fixed-capacity LRU map from string keys to values of type V.
type Cache[V any] struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	stats Stats
}

type entry[V any] struct {
	key string
	val V
}

// New returns an LRU cache holding at most capacity entries; capacity < 1 is
// raised to 1.
func New[V any](capacity int) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[V]{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// Get returns the value for key, marking it most recently used.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.stats.Hits++
		return el.Value.(*entry[V]).val, true
	}
	c.stats.Misses++
	var zero V
	return zero, false
}

// Put inserts or refreshes key, evicting the least recently used entry when
// over capacity.
func (c *Cache[V]) Put(key string, val V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[V]).val = val
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
func (c *Cache[V]) PutIfAbsent(key string, val V) (stands V, wrote bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		return el.Value.(*entry[V]).val, false
	}
	c.insert(key, val)
	return val, true
}

// insert adds a new most-recently-used entry and evicts down to capacity.
// The caller holds c.mu and has checked that key is absent.
func (c *Cache[V]) insert(key string, val V) {
	c.items[key] = c.ll.PushFront(&entry[V]{key: key, val: val})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*entry[V]).key)
		c.stats.Evictions++
	}
}

// Len returns the current number of entries.
func (c *Cache[V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats returns a snapshot of the counters.
func (c *Cache[V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Len = c.ll.Len()
	return s
}
