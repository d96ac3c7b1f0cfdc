package lake

import (
	"context"

	"repro/internal/kb"
	"repro/internal/table"
)

// Catalog is the mutable table-repository contract the pipeline and the
// serving layer consume: everything they need from a lake without naming
// its concrete shape, and nothing they do not call through it (the concrete
// types keep Get and Tables for callers that hold one). *Lake
// (one shard — itself), *Sharded (N in-process shards behind a routing
// hash), and cluster.Coordinator (N remote `dialite serve` shard processes)
// all satisfy it, which is what lets `dialite serve -shards N` and `dialite
// serve -coordinator` reuse every endpoint unchanged.
//
// Discovery never sees a Catalog: discoverers run against one concrete
// *Lake at a time, and discovery.RunAll scatters them over the catalog's
// shards (in-process via an optional `Shards() []*Lake` method, remote via
// discovery.Remote) and merges the per-shard rankings deterministically.
// Epochs is the torn-read guard for that scatter — see Lake.Epoch for the
// seqlock protocol of each element.
type Catalog interface {
	// Epochs samples the catalog's mutation-epoch vector: one seqlock
	// counter per epoch domain (a plain Lake has one; Sharded has a
	// composite counter plus one per shard; a remote coordinator has a
	// local counter plus each shard process's vector). Every element is
	// even when that domain is settled and odd while a mutation is applying
	// per-index deltas. A multi-index reader that samples the vector before
	// and after a run and sees the same all-even vector (same length,
	// elementwise equal) is guaranteed the run was not torn; any other pair
	// means a retry. Implementations whose sampling can fail (a remote
	// shard down) must substitute a stable even sentinel for the
	// unreachable domain rather than erroring.
	Epochs() []uint64

	// Catalog reads carry the request's context and report failure: a
	// catalog whose tables live in other processes can be unable to answer,
	// which is not the same as the table being absent.
	//
	// FetchTables looks the named tables up in one batch. Names the catalog
	// does not hold are absent from the map; an error means the lookup could
	// not be answered (ctx done, a shard down).
	FetchTables(ctx context.Context, names []string) (map[string]*table.Table, error)
	// TableNames lists the catalog's table names: insertion order for
	// in-process catalogs, shard order for a cluster (see SHARDING.md).
	TableNames(ctx context.Context) ([]string, error)
	Size() int

	// Mutation. These stay context-free: *Lake's concrete signatures are
	// what the persistence layer and the benchmark call.
	Add(tables ...*table.Table) error
	Remove(names ...string) error
	Compact()

	// Shared state the integration/analysis stages read.
	Knowledge() *kb.KB
	Dict() *table.Dict
}

var (
	_ Catalog = (*Lake)(nil)
	_ Catalog = (*Sharded)(nil)
)

// fetchLocal and namesOf are Catalog's two reads for an in-process catalog,
// over its concrete Get and Tables. Nothing in them blocks, so ctx is only
// checked on entry.
func fetchLocal(ctx context.Context, names []string, get func(string) (*table.Table, bool)) (map[string]*table.Table, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	got := make(map[string]*table.Table, len(names))
	for _, n := range names {
		if t, ok := get(n); ok {
			got[n] = t
		}
	}
	return got, nil
}

func namesOf(ctx context.Context, tables []*table.Table) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	names := make([]string, len(tables))
	for i, t := range tables {
		names[i] = t.Name
	}
	return names, nil
}

// FetchTables implements Catalog over Get.
func (l *Lake) FetchTables(ctx context.Context, names []string) (map[string]*table.Table, error) {
	return fetchLocal(ctx, names, l.Get)
}

// TableNames implements Catalog over Tables.
func (l *Lake) TableNames(ctx context.Context) ([]string, error) { return namesOf(ctx, l.Tables()) }

// FetchTables implements Catalog over Get.
func (s *Sharded) FetchTables(ctx context.Context, names []string) (map[string]*table.Table, error) {
	return fetchLocal(ctx, names, s.Get)
}

// TableNames implements Catalog over Tables.
func (s *Sharded) TableNames(ctx context.Context) ([]string, error) { return namesOf(ctx, s.Tables()) }
