package cluster

import (
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
// A lookup under another epoch is stale and drops the entry, because no
// later clean run can sample the epoch it was stored under. Cached tables
// are shared by every request that hits them and must be treated as
// read-only (discovery.Result.Table).

// tableCacheBytes bounds the bytes the cache holds (tableBytes). It is
// sized against heap_mb, the benchmark's tightest bound: 0.08 of the
// ≈ 59 MB a cluster-fanout coordinator process measures is ≈ 4.7 MB. At
// ≈ 30 kB per decoded 120-row table that is ≈ 140 tables, a third of
// cluster-fanout's 448-table working set; the hottest of them stay.
const tableCacheBytes = 4 << 20

// cachedTable is one entry of the coordinator's table cache (the bounded
// cache of ARCHITECTURE.md, keyed by table name and tagged by the owning
// shard): t is the table as it read at the owning shard's epoch.
type cachedTable struct {
	epoch uint64
	t     *table.Table
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
