// Package lru is the one bounded cache the serving layers share: a map
// bounded by the bytes its values hold, evicting the least recently used
// entry first. A lookup states what makes an entry fresh (an epoch it was
// stored under, say), and an entry that is not is dropped at once, because
// the epochs it is checked against never go back. Counters are kept per tag
// (the owning shard, or 0 for a cache with one tag) and served as Stats.
package lru

import (
	"container/list"
	"sync"
)

// Stats is one tag's share of a cache: Gets that hit, missed (no entry) or
// found a stale entry (one fresh rejected), values stored, entries evicted
// to stay within the byte limit, and the bytes the tag's entries hold now.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Stale     uint64 `json:"stale"`
	Stores    uint64 `json:"stores"`
	Evictions uint64 `json:"evictions"`
	Bytes     int64  `json:"bytes"`
}

// Cache maps K to V within max bytes, each value sized by its Put. It is
// safe for concurrent use; mu guards everything.
type Cache[K comparable, V any] struct {
	max int64

	mu      sync.Mutex
	entries map[K]*list.Element // of *entry[K, V]
	order   list.List           // least recently used first
	bytes   int64
	tags    []Stats
}

type entry[K comparable, V any] struct {
	key  K
	tag  int
	v    V
	size int64
}

// New returns an empty cache of at most max bytes whose counters are kept
// for tags 0..tags-1.
func New[K comparable, V any](max int64, tags int) *Cache[K, V] {
	return &Cache[K, V]{max: max, entries: make(map[K]*list.Element), tags: make([]Stats, tags)}
}

// Get returns key's value when fresh accepts it, counting exactly one hit,
// miss or stale against tag. A hit makes the entry the most recently used; a
// stale entry is dropped and its bytes released. fresh runs with the cache
// unlocked, so it may be slow (a cluster coordinator samples its epoch
// vector over the network) and may use the cache; when the entry is replaced
// or dropped meanwhile, fresh's verdict still decides what Get returns and
// counts, but a replacement is never dropped for it. Get never keeps key: a
// caller may pass a key that views memory it reuses afterwards.
func (c *Cache[K, V]) Get(tag int, key K, fresh func(V) bool) (V, bool) {
	var zero V
	c.mu.Lock()
	el, ok := c.entries[key]
	if !ok {
		c.tags[tag].Misses++
		c.mu.Unlock()
		return zero, false
	}
	v := el.Value.(*entry[K, V]).v
	c.mu.Unlock()
	ok = fresh(v)
	c.mu.Lock()
	defer c.mu.Unlock()
	if !ok {
		c.tags[tag].Stale++
		if c.entries[key] == el {
			c.remove(el)
		}
		return zero, false
	}
	c.tags[tag].Hits++
	c.order.MoveToBack(el) // a no-op once el has left the list
	return v, true
}

// Put stores v, which holds size bytes, as key's value and counts one store
// against tag. An entry for key is replaced and accounted once; a value
// larger than the whole limit is skipped rather than evicting everything
// else; the least recently used entries are evicted, each counted against
// its own tag, until the cache fits again. Put keeps key, so a key that
// views reused memory must be copied first.
func (c *Cache[K, V]) Put(tag int, key K, v V, size int64) {
	if size > c.max {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.remove(el)
	}
	c.entries[key] = c.order.PushBack(&entry[K, V]{key: key, tag: tag, v: v, size: size})
	c.bytes += size
	c.tags[tag].Bytes += size
	c.tags[tag].Stores++
	for c.bytes > c.max {
		c.tags[c.remove(c.order.Front()).tag].Evictions++
	}
}

// remove unlinks one entry and releases its bytes; c.mu must be held.
func (c *Cache[K, V]) remove(el *list.Element) *entry[K, V] {
	e := c.order.Remove(el).(*entry[K, V])
	delete(c.entries, e.key)
	c.bytes -= e.size
	c.tags[e.tag].Bytes -= e.size
	return e
}

// Stats returns tag's counters.
func (c *Cache[K, V]) Stats(tag int) Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tags[tag]
}
