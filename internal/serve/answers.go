package serve

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"slices"
	"sync"
	"sync/atomic"
)

// The /v1/discover answer cache. DIALITE is interactive: a user re-runs
// discovery on the same query table while comparing methods and
// integrations, so the same request body arrives again and again. The
// cache maps a request body to the exact response bytes it was answered
// with, guarded by the catalog's epoch vector (lake.Catalog.Epochs). A hit
// skips the decode, the fan-out and the encode; clients observe only
// speed, because an entry is served only while the catalog samples the
// vector its answer was proved under, so the bytes are what a fresh run
// would answer at that instant.
//
// Why the vector is a sound key: a method name always names the same
// discoverer (Registry.Register refuses duplicates); Add, Remove and
// RefreshKB tick the epoch, and SANTOS reads the annotator bound at the
// last (re-)annotation, not the live KB; Compact never changes answers; a
// mutation applied to one shard behind a composite's back ticks that
// shard's element; and the cache lives and dies with the process whose
// counters it compares. Discoverers keep their side of it: an answer
// depends only on (shard lake state, query, column, k) — see
// discovery.Discoverer.
//
// Only in-process catalogs (*lake.Lake, *lake.Sharded) get a cache. A
// remote catalog (discovery.Remote: the cluster coordinator) samples its
// vector with a round trip to every shard, so a front-door hit would still
// cost one network call per shard; instead each shard server caches the
// per-shard /v1/discover answers it sends the coordinator, keyed by its own
// in-process counter.

// answerCacheBytes bounds the cache's stored body + response bytes. It is
// sized against heap_mb, the benchmark's tightest bound: 0.08 of a ≈ 50 MB
// heap is ≈ 4 MB. discover-zipf's 256 distinct requests measured 1.62 MB
// (body 3–6 kB plus response ≈ 2 kB each), so its whole working set fits
// with room to spare, while non-repeating traffic (churn-mixed) cycles
// through the bound oldest-first.
const answerCacheBytes = 4 << 20

// answerCache is one attached pipeline's answer cache. mu guards entries,
// order and bytes; the counters are atomic.
type answerCache struct {
	mu      sync.Mutex
	entries map[[sha256.Size]byte]*list.Element // of *answer
	order   list.List                           // oldest first
	bytes   int64

	hits, misses, stale, stores, evictions atomic.Uint64
}

// answer is one immutable cache entry.
type answer struct {
	key [sha256.Size]byte
	// body is compared on every hit, so a digest collision cannot serve
	// another request's answer.
	body []byte
	// epochs is the all-even vector the answer was computed under.
	epochs []uint64
	// resp is the response body exactly as writeJSON emits it, trailing
	// newline included.
	resp []byte
}

func (a *answer) size() int64 { return int64(len(a.body) + len(a.resp)) }

func newAnswerCache() *answerCache {
	return &answerCache{entries: make(map[[sha256.Size]byte]*list.Element)}
}

// lookup returns the stored response for body when the catalog still
// samples the vector it was computed under, nil otherwise. epochs is called
// only when an entry for body exists, so a body seen for the first time
// costs one hash and one map probe. Every call counts as exactly one of
// hit, miss (no entry) or stale (the vector moved).
func (c *answerCache) lookup(key [sha256.Size]byte, body []byte, epochs func() []uint64) []byte {
	c.mu.Lock()
	var a *answer
	if el, ok := c.entries[key]; ok {
		a = el.Value.(*answer)
	}
	c.mu.Unlock()
	if a == nil || !bytes.Equal(a.body, body) {
		c.misses.Add(1)
		return nil
	}
	// a.epochs is all even, so equality also proves no mutation is in
	// flight now.
	if !slices.Equal(epochs(), a.epochs) {
		c.stale.Add(1)
		return nil
	}
	c.hits.Add(1)
	return a.resp
}

// store records resp as the answer to body under epochs, which must be
// the clean vector RunAll proved (core.DiscoverResponse.Epochs). An entry
// for the same body is replaced; the oldest entries are evicted until the
// cache fits answerCacheBytes again. The slices are copied, so the cache
// holds exactly the bytes it accounts for.
func (c *answerCache) store(key [sha256.Size]byte, body []byte, epochs []uint64, resp []byte) {
	if len(body)+len(resp) > answerCacheBytes {
		return
	}
	a := &answer{key: key, body: bytes.Clone(body), epochs: epochs, resp: bytes.Clone(resp)}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.bytes -= c.order.Remove(el).(*answer).size()
	}
	c.entries[key] = c.order.PushBack(a)
	c.bytes += a.size()
	c.stores.Add(1)
	for c.bytes > answerCacheBytes {
		old := c.order.Remove(c.order.Front()).(*answer)
		delete(c.entries, old.key)
		c.bytes -= old.size()
		c.evictions.Add(1)
	}
}

// AnswerCacheMetrics is the /v1/discover answer cache's counters, served
// by GET /metrics?format=json&scope=cache. Every discover request that
// reads its body counts as exactly one of Hits, Misses (no entry) or Stale
// (an entry whose epoch vector the catalog has moved past); Stores counts
// answers recorded, Evictions entries dropped oldest-first to stay within
// the byte bound, and Bytes the body + response bytes held now.
type AnswerCacheMetrics struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Stale     uint64 `json:"stale"`
	Stores    uint64 `json:"stores"`
	Evictions uint64 `json:"evictions"`
	Bytes     int64  `json:"bytes"`
}

func (c *answerCache) metrics() AnswerCacheMetrics {
	c.mu.Lock()
	n := c.bytes
	c.mu.Unlock()
	return AnswerCacheMetrics{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Stale:     c.stale.Load(),
		Stores:    c.stores.Load(),
		Evictions: c.evictions.Load(),
		Bytes:     n,
	}
}
