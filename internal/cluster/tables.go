package cluster

import (
	"container/list"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/table"
)

// The coordinator's decoded-table cache. DIALITE is interactive: users
// re-run discovery to compare methods, so the same popular lake tables come
// back in one top-k after another, and without a cache every materialize
// step fetches and decodes each of them again. Only ResolveTables — the
// materialize step of discovery.RunAll — consults the cache; FetchTables
// samples no epoch vector, so the by-name reads it serves (/v1/integrate,
// /v1/lake/table(s), Remove's rollback fetch) stay uncached.
//
// An entry is a table name, its decoded table and the epoch it is valid
// under: the owning shard's element of the vector RunAll sampled before the
// attempt that stored it. Why that key is sound: take a run whose before-
// and after-samples are equal and even. The owning shard's counter held e
// for the whole run, and counters never go back, so an entry the run reads
// under e was stored while the counter read e — the storing run had sampled
// e before its fetch, and the read comes after the store — and it holds the
// shard's contents at e. A run that is not clean retries, exactly as it
// does without the cache. Every catalog constructor seeds its counter at
// random, so a restarted or swapped shard never reports an old e over new
// contents, although the cache outlives the shard process.
//
// Cached tables are shared by every request that hits them and must be
// treated as read-only (discovery.Result.Table).

// tableCacheBytes bounds the bytes the cache holds (tableBytes). It is
// sized against heap_mb, the benchmark's tightest bound: 0.08 of the
// ≈ 59 MB a cluster-fanout coordinator process measures is ≈ 4.7 MB. At
// ≈ 30 kB per decoded 120-row table that is ≈ 140 tables, a third of
// cluster-fanout's 448-table working set; the hottest of them stay.
const tableCacheBytes = 4 << 20

// tableCache is one LRU over the whole coordinator, bounded by max bytes.
// mu guards entries, order and bytes; the per-shard counters are atomic so
// /metrics reads them without the lock.
type tableCache struct {
	max int64

	mu      sync.Mutex
	entries map[string]*list.Element // of *cachedTable
	order   list.List                // least recently used first
	bytes   int64

	shards []tableCacheCounters
}

// tableCacheCounters are one shard's share of the cache: lookups of its
// names that hit, missed (no entry) or found an entry under another epoch
// (stale), its entries evicted to stay within the bound, and the bytes its
// entries hold.
type tableCacheCounters struct {
	hits, misses, stale, evictions atomic.Uint64
	bytes                          atomic.Int64
}

// cachedTable is one entry: t is shard's table name as it read at epoch.
type cachedTable struct {
	name  string
	shard int
	epoch uint64
	t     *table.Table
	size  int64
}

func newTableCache(max int64, shards int) *tableCache {
	return &tableCache{max: max, entries: make(map[string]*list.Element), shards: make([]tableCacheCounters, shards)}
}

// lookup returns name's table when it is cached under epoch, nil otherwise.
// Every call counts as one hit, miss or stale for shard; a stale entry is
// dropped, because no later clean run can sample the epoch it was stored
// under.
func (c *tableCache) lookup(name string, shard int, epoch uint64) *table.Table {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[name]
	if !ok {
		c.shards[shard].misses.Add(1)
		return nil
	}
	e := el.Value.(*cachedTable)
	if e.epoch != epoch {
		c.shards[shard].stale.Add(1)
		c.remove(el)
		return nil
	}
	c.order.MoveToBack(el)
	c.shards[shard].hits.Add(1)
	return e.t
}

// store caches t as name's table on shard at epoch. An entry for the same
// name is replaced, a table larger than the whole bound is skipped, and the
// least recently used entries are evicted until the cache fits again.
func (c *tableCache) store(name string, shard int, epoch uint64, t *table.Table) {
	size := tableBytes(t)
	if size > c.max {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[name]; ok {
		c.remove(el)
	}
	c.entries[name] = c.order.PushBack(&cachedTable{name: name, shard: shard, epoch: epoch, t: t, size: size})
	c.bytes += size
	c.shards[shard].bytes.Add(size)
	for c.bytes > c.max {
		old := c.remove(c.order.Front())
		c.shards[old.shard].evictions.Add(1)
	}
}

// remove unlinks one entry and releases its bytes; c.mu must be held.
func (c *tableCache) remove(el *list.Element) *cachedTable {
	e := c.order.Remove(el).(*cachedTable)
	delete(c.entries, e.name)
	c.bytes -= e.size
	c.shards[e.shard].bytes.Add(-e.size)
	return e
}

// Sizes tableBytes counts: a decoded table holds one slice header per row
// and one Value per cell.
const (
	rowHeaderBytes = int64(unsafe.Sizeof([]table.Value(nil)))
	cellBytes      = int64(unsafe.Sizeof(table.Value{}))
)

// tableBytes is what a decoded table holds: its name, headers, one slice
// header per row, one Value per cell and the bytes of its string cells.
func tableBytes(t *table.Table) int64 {
	n := int64(len(t.Name)) + int64(len(t.Rows))*rowHeaderBytes
	for _, h := range t.Columns {
		n += int64(len(h))
	}
	for _, row := range t.Rows {
		n += int64(len(row)) * cellBytes
		for _, v := range row {
			if v.Kind() == table.String {
				n += int64(len(v.Str()))
			}
		}
	}
	return n
}
