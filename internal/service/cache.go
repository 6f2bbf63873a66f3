package service

import (
	"container/list"
	"sync"
)

// cacheStats is a snapshot of the result cache's counters.
type cacheStats struct {
	hits, misses, evictions uint64
	entries                 int
}

// lruCache is a bounded, mutex-guarded LRU keyed by content address.
// Values are fully-encoded response bodies: a hit serves exactly the
// bytes the populating run produced, which together with the engine's
// determinism makes cached and fresh responses indistinguishable.
type lruCache struct {
	mu        sync.Mutex
	cap       int
	ll        *list.List // front = most recently used
	items     map[string]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

type cacheEntry struct {
	key  string
	body []byte
}

func newLRUCache(capacity int) *lruCache {
	return &lruCache{cap: capacity, ll: list.New(), items: map[string]*list.Element{}}
}

// Get returns the body cached under key, refreshing its recency.
func (c *lruCache) Get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return el.Value.(*cacheEntry).body, true
}

// peek is Get for the flight leader's re-check: a find counts a hit,
// but falling through does not count a second miss — the client's
// original lookup already did.
func (c *lruCache) peek(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	return el.Value.(*cacheEntry).body, true
}

// Add inserts (or refreshes) key's body, evicting least-recently-used
// entries beyond capacity.
func (c *lruCache) Add(key string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).body = body
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, body: body})
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*cacheEntry).key)
		c.evictions++
	}
}

// stats snapshots the counters.
func (c *lruCache) stats() cacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return cacheStats{hits: c.hits, misses: c.misses, evictions: c.evictions, entries: c.ll.Len()}
}
