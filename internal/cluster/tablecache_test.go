package cluster

import (
	"fmt"
	"testing"

	"repro/internal/table"
)

// cacheTable builds a table of rows rows over two columns, a string and an
// int, with fixed-width strings, so every table of the same shape has the
// same tableBytes.
func cacheTable(name string, rows int) *table.Table {
	t := table.New(name, "city", "n")
	for r := 0; r < rows; r++ {
		t.MustAddRow(table.StringValue(fmt.Sprintf("v%03d", r)), table.IntValue(int64(r)))
	}
	return t
}

// checkAccounting requires the cache's byte total to be the sum of its
// entries' sizes and of the per-shard gauges, and to fit its bound.
func checkAccounting(t *testing.T, c *tableCache) {
	t.Helper()
	var entries, shards int64
	for el := c.order.Front(); el != nil; el = el.Next() {
		entries += el.Value.(*cachedTable).size
	}
	for i := range c.shards {
		shards += c.shards[i].bytes.Load()
	}
	if c.bytes != entries || c.bytes != shards || c.bytes > c.max || len(c.entries) != c.order.Len() {
		t.Fatalf("bytes %d, entries hold %d, shard gauges %d, bound %d; %d map entries, %d list entries", c.bytes, entries, shards, c.max, len(c.entries), c.order.Len())
	}
}

func TestTableBytes(t *testing.T) {
	tbl := table.New("ab", "x", "yz")
	tbl.MustAddRow(table.StringValue("hello"), table.IntValue(1))
	tbl.MustAddRow(table.NullValue(), table.StringValue("q"))
	want := int64(len("ab")+len("x")+len("yz")) + 2*rowHeaderBytes + 4*cellBytes + int64(len("hello")+len("q"))
	if got := tableBytes(tbl); got != want {
		t.Fatalf("tableBytes = %d, want %d", got, want)
	}
}

// TestTableCacheByteBound stores more equal-sized tables than fit and
// requires the oldest to go, each eviction counted on its own shard.
func TestTableCacheByteBound(t *testing.T) {
	size := tableBytes(cacheTable("t0", 10))
	c := newTableCache(3*size+size/2, 2)
	for i := 0; i < 5; i++ {
		c.store(fmt.Sprintf("t%d", i), i%2, 2, cacheTable(fmt.Sprintf("t%d", i), 10))
		checkAccounting(t, c)
	}
	if c.bytes != 3*size {
		t.Fatalf("cache holds %d bytes, want three tables of %d", c.bytes, size)
	}
	for i, want := range []bool{false, false, true, true, true} {
		if got := c.lookup(fmt.Sprintf("t%d", i), i%2, 2) != nil; got != want {
			t.Fatalf("t%d cached: %v, want %v", i, got, want)
		}
	}
	if e0, e1 := c.shards[0].evictions.Load(), c.shards[1].evictions.Load(); e0 != 1 || e1 != 1 {
		t.Fatalf("evictions per shard = %d, %d; want t0's on shard 0 and t1's on shard 1", e0, e1)
	}
}

// TestTableCacheLRUOrder requires a hit to protect its entry: the least
// recently used entry is evicted, not the oldest stored.
func TestTableCacheLRUOrder(t *testing.T) {
	size := tableBytes(cacheTable("a", 10))
	c := newTableCache(3*size, 1)
	for _, n := range []string{"a", "b", "c"} {
		c.store(n, 0, 2, cacheTable(n, 10))
	}
	if c.lookup("a", 0, 2) == nil {
		t.Fatal("a not cached")
	}
	c.store("d", 0, 2, cacheTable("d", 10))
	checkAccounting(t, c)
	if c.lookup("b", 0, 2) != nil {
		t.Fatal("b, the least recently used entry, survived the eviction")
	}
	for _, n := range []string{"a", "c", "d"} {
		if c.lookup(n, 0, 2) == nil {
			t.Fatalf("%s was evicted instead of b", n)
		}
	}
}

// TestTableCacheReplaceAccountedOnce stores one name twice, under a new
// epoch and with a different size: the cache holds one entry, counted once.
func TestTableCacheReplaceAccountedOnce(t *testing.T) {
	c := newTableCache(1<<20, 1)
	small, big := cacheTable("a", 3), cacheTable("a", 30)
	c.store("a", 0, 2, small)
	c.store("a", 0, 4, big)
	checkAccounting(t, c)
	if c.bytes != tableBytes(big) || len(c.entries) != 1 {
		t.Fatalf("cache holds %d bytes in %d entries, want %d in one", c.bytes, len(c.entries), tableBytes(big))
	}
	if got := c.lookup("a", 0, 4); got != big {
		t.Fatal("the replacing table is not the one served")
	}
}

// TestTableCacheSkipsOversized requires a table larger than the whole bound
// to be left out rather than evicting everything else.
func TestTableCacheSkipsOversized(t *testing.T) {
	small := cacheTable("small", 2)
	c := newTableCache(tableBytes(small)*2, 1)
	c.store("small", 0, 2, small)
	c.store("big", 0, 2, cacheTable("big", 100))
	checkAccounting(t, c)
	if c.lookup("big", 0, 2) != nil || c.lookup("small", 0, 2) == nil {
		t.Fatal("an oversized table was cached, or displaced what fits")
	}
	if c.shards[0].evictions.Load() != 0 {
		t.Fatal("skipping an oversized table evicted an entry")
	}
}

// TestTableCacheStaleDropsEntry requires a lookup under another epoch to
// count stale, serve nothing and release the entry's bytes.
func TestTableCacheStaleDropsEntry(t *testing.T) {
	c := newTableCache(1<<20, 2)
	c.store("a", 1, 2, cacheTable("a", 5))
	if c.lookup("a", 1, 4) != nil {
		t.Fatal("served a table stored under another epoch")
	}
	checkAccounting(t, c)
	if c.bytes != 0 || c.shards[1].stale.Load() != 1 {
		t.Fatalf("after a stale lookup: %d bytes, %d stale; want 0 and 1", c.bytes, c.shards[1].stale.Load())
	}
	if c.lookup("a", 1, 2) != nil || c.shards[1].misses.Load() != 1 {
		t.Fatal("the stale entry was kept")
	}
}
