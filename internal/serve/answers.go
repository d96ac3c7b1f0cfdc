package serve

import (
	"bytes"
	"slices"
	"unsafe"

	"repro/internal/lru"
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
// discoverer (Registry.Register refuses duplicates); an in-process run
// answers from the one catalog state it pinned and reports that state's
// vector, and every Add or Remove publishes a new state under a new
// vector; the catalog's KB is fixed at build, so SANTOS answers move only
// with them; no element ever goes back, and
// an in-process cache lives and dies with the process whose vector it
// compares. A run that a mutation overlaps is stored under the vector it
// pinned, which the mutation has already moved past, so the next request
// misses. Discoverers keep their side of it: an answer depends only on
// (shard lake state, query, column, k) — see discovery.Discoverer.
//
// Every catalog gets a cache, a cluster coordinator's front door included.
// There the vector is sampled across processes: element 0, the
// coordinator's own counter, in process, and each shard's element with one
// epoch probe round, which is all a hit costs. It is still a sound key. A
// stored vector is clean, and its after-sample was taken before the store,
// so before any request that hits it arrived. At a hit each shard's probe
// reads the even element stored; shard counters never go back and every
// incarnation starts its counter at random, so each shard held that element
// from the stored after-sample through its probe. Those intervals all
// contain the instant the hitting request arrived, when every shard held
// the stored state, so the stored bytes are what a fresh run would have
// answered then. Each shard server also caches the per-shard answers it
// sends the coordinator, under its own counter, for the front door's
// misses.

// answerCacheBytes bounds the cache's stored body + response bytes. It is
// sized against heap_mb, the benchmark's tightest bound: 0.08 of a ≈ 50 MB
// heap is ≈ 4 MB. discover-zipf's 256 distinct requests measured 1.62 MB
// (body 3–6 kB plus response ≈ 2 kB each), so its whole working set fits
// with room to spare, while non-repeating traffic (churn-mixed) cycles
// through the bound least recently used first.
const answerCacheBytes = 4 << 20

// answerCache is one attached pipeline's answer cache (the bounded cache of
// ARCHITECTURE.md, one tag), keyed by the request body itself: the map's
// hash and equality decide which request an entry answers.
type answerCache struct{ *lru.Cache[string, answer] }

// answer is one immutable cache entry.
type answer struct {
	// epochs is the all-even vector the answer was computed under.
	epochs []uint64
	// resp is the response body exactly as writeJSON emits it, trailing
	// newline included.
	resp []byte
}

func newAnswerCache() *answerCache {
	return &answerCache{lru.New[string, answer](answerCacheBytes, 1)}
}

// lookup returns the stored response for body when the catalog still
// samples the vector it was computed under, nil otherwise. epochs is called
// only when an entry for body exists. The body's bytes are viewed as the
// key without a copy, which is safe because Get keeps no key.
func (c *answerCache) lookup(body []byte, epochs func() []uint64) []byte {
	// a.epochs is all even, so equality also proves no mutation is in
	// flight now.
	a, _ := c.Get(0, unsafe.String(unsafe.SliceData(body), len(body)), func(a answer) bool { return slices.Equal(epochs(), a.epochs) })
	return a.resp
}

// store records resp as the answer to body under epochs, which must be
// the vector the answer holds under (core.DiscoverResponse.Epochs). The body
// is copied into the key and resp is cloned, so the cache holds exactly the
// bytes it accounts for.
func (c *answerCache) store(body []byte, epochs []uint64, resp []byte) {
	c.Put(0, string(body), answer{epochs: epochs, resp: bytes.Clone(resp)}, int64(len(body)+len(resp)))
}
