package service

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// CacheStats snapshots the cache counters for /stats.
type CacheStats struct {
	// Capacity is the entry bound (0: caching disabled).
	Capacity int
	// Entries is the current entry count.
	Entries int
	// Hits / Misses count version-matched lookups vs everything else.
	Hits   int64
	Misses int64
	// Evictions counts entries dropped by the LRU capacity bound.
	Evictions int64
	// Invalidations counts entries dropped because a mutation batch moved
	// the graph past their version.
	Invalidations int64
}

// Cache memoises encoded read responses (top-k rankings, routes) keyed by
// request shape and pinned to the graph version they were computed at; a
// hit is written out as stored, with no re-encoding. A lookup hits only when versions match, so a stale entry can
// never serve; Apply additionally invalidates superseded versions eagerly
// (InvalidateBelow) so dead entries do not squat in the LRU. Counters are
// atomics — the stats read path never contends with the cache lock.
type Cache struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List               // front = most recently used
	byKey map[string]*list.Element // key -> element whose Value is *cacheEntry

	hits          atomic.Int64
	misses        atomic.Int64
	evictions     atomic.Int64
	invalidations atomic.Int64
}

type cacheEntry struct {
	key     string
	version uint64
	value   []byte
}

// NewCache builds a cache bounded to capacity entries; capacity <= 0
// disables caching (every Get misses, Put is a no-op).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		return &Cache{}
	}
	return &Cache{cap: capacity, ll: list.New(), byKey: make(map[string]*list.Element)}
}

// Enabled reports whether the cache stores anything.
func (c *Cache) Enabled() bool { return c.cap > 0 }

// Get returns the value cached under key at exactly the given version. A
// version mismatch drops the stale entry and misses.
func (c *Cache) Get(key string, version uint64) ([]byte, bool) {
	if !c.Enabled() {
		c.misses.Add(1)
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if e.version != version {
		c.removeLocked(el)
		c.invalidations.Add(1)
		c.misses.Add(1)
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits.Add(1)
	return e.value, true
}

// Put stores value under key at version, evicting the least recently used
// entry when over capacity.
func (c *Cache) Put(key string, version uint64, value []byte) {
	if !c.Enabled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		e := el.Value.(*cacheEntry)
		e.version = version
		e.value = value
		c.ll.MoveToFront(el)
		return
	}
	c.byKey[key] = c.ll.PushFront(&cacheEntry{key: key, version: version, value: value})
	if c.ll.Len() > c.cap {
		c.removeLocked(c.ll.Back())
		c.evictions.Add(1)
	}
}

// InvalidateBelow drops every entry computed at a version before the given
// one — the explicit invalidation hook Apply and Register call after
// swapping a new snapshot in.
func (c *Cache) InvalidateBelow(version uint64) {
	if !c.Enabled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var next *list.Element
	for el := c.ll.Front(); el != nil; el = next {
		next = el.Next()
		if el.Value.(*cacheEntry).version < version {
			c.removeLocked(el)
			c.invalidations.Add(1)
		}
	}
}

func (c *Cache) removeLocked(el *list.Element) {
	c.ll.Remove(el)
	delete(c.byKey, el.Value.(*cacheEntry).key)
}

// Stats snapshots the counters.
func (c *Cache) Stats() CacheStats {
	entries := 0
	if c.Enabled() {
		c.mu.Lock()
		entries = c.ll.Len()
		c.mu.Unlock()
	}
	return CacheStats{
		Capacity:      c.cap,
		Entries:       entries,
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
	}
}
