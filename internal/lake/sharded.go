package lake

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/par"
	"repro/internal/table"
)

// Sharded partitions the catalog across N shard lakes, each with its own
// token dictionary and discovery indexes. Tables route to shards by
// a stable hash of the table name (ShardIndex), so the placement of a table
// depends only on its name and the shard count — not on insertion order,
// process identity, or the rest of the catalog — which keeps the routing
// rule portable to shard-per-process deployments (see SHARDING.md).
//
// Sharding removes the last shared-interner contention from the build path:
// NewSharded builds the shard lakes concurrently and each shard interns
// into a private token dictionary, so no lock is shared between shards at
// any point of preprocessing. The cost is that per-shard token IDs are
// incomparable across shards; discovery never compares them (rankings merge
// by score and name), and the cross-shard stages (integration, entity
// resolution) intern into per-request tables of their own.
//
// Discovery equivalence: a Sharded catalog answers every discovery query
// identically to an unsharded New over the same tables — same result sets,
// float64-bit-identical scores — pinned by the sharded differential
// harness. SANTOS, JOSIE and the syntactic baseline are per-candidate
// computations, exact by construction; the LSH Ensemble verifies
// exactly and its candidate generation is layout-independent at small
// partition sizes (see SHARDING.md for the banded-probing caveat at scale).
//
// Concurrency contract: identical to Lake — mutations are exclusive with
// each other, queries and catalog reads run concurrently with mutations
// and take no lock (the catalog order is published behind an atomic
// pointer, as a Lake publishes its view), and the composite epoch (Epoch)
// lets multi-index readers detect and retry torn reads.
// Mutations must go through the Sharded value; mutating a shard returned by
// Shards() directly bypasses epoch accounting and catalog-order
// bookkeeping.
type Sharded struct {
	// Composite carries the routing rule, the composite epoch, and the
	// composite-level Knowledge/Dict the cross-shard stages read.
	*Composite
	mu sync.Mutex // serializes Add and Remove
	// shards is fixed at construction; the *Lake values are mutable, the
	// slice is not.
	shards []*Lake
	// order holds the tables in catalog order (build order, then Add
	// order, minus removals) so Tables() reports the same sequence an
	// unsharded lake would. A mutation publishes a new slice and never
	// writes a published one.
	order atomic.Pointer[[]*table.Table]
}

// ShardIndex routes a table name to a shard: FNV-1a (64-bit) of the name,
// reduced mod n. The hash is fixed — never keyed, never seeded — so a
// table's placement is reproducible across processes and restarts, which a
// future shard-per-process deployment depends on.
func ShardIndex(name string, n int) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * prime64
	}
	return int(h % uint64(n))
}

// NewSharded preprocesses tables into an n-shard lake. Validation matches
// New (nil tables, empty or duplicate names reject the whole input), with
// duplicates checked across the entire input before routing — two
// same-named tables landing on different shards must not coexist.
//
// It runs New's three phases with the KB phase lifted to the composite.
// The shards extract concurrently, each into its private token dictionary;
// the KB is then synthesized once (Options.SynthesizeKB), from the shards'
// domains gathered back into input table order, and compiled once, so it —
// and therefore every SANTOS annotation — is identical to an unsharded
// build's; last, every shard builds its indexes over that one compiled KB.
// Each column's value set is computed once.
func NewSharded(tables []*table.Table, n int, opts Options) (*Sharded, error) {
	if n < 1 {
		return nil, fmt.Errorf("lake: sharded: shard count %d, need at least 1", n)
	}
	if err := opts.LSH.Validate(); err != nil {
		return nil, fmt.Errorf("lake: %w", err)
	}
	if err := CheckAdd("lake", tables, nil); err != nil {
		return nil, err
	}
	parts := PartitionTables(tables, n)
	s := &Sharded{shards: make([]*Lake, n)}
	perShard := make([][][]table.Domain, n)
	par.For(n, func(i int) { s.shards[i], perShard[i] = extract(parts[i]) })
	// PartitionTables keeps input order within a shard, so table t is the
	// next one of its shard.
	domains := make([][]table.Domain, 0, len(tables))
	next := make([]int, n)
	for _, t := range tables {
		i := ShardIndex(t.Name, n)
		domains = append(domains, perShard[i][next[i]])
		next[i]++
	}
	order := append([]*table.Table(nil), tables...)
	s.order.Store(&order)
	// NewComposite finds the KB compiled, so every shard shares one
	// *Compiled.
	s.Composite = NewComposite(n, knowledgeFor(opts, tables, domains))
	par.For(n, func(i int) { s.shards[i].index(s.knowledge, opts.LSH, 0) })
	return s, nil
}

// Shards returns the shard lakes in shard order. The slice is fixed for the
// Sharded's lifetime; treat it as read-only and route mutations through the
// Sharded itself.
func (s *Sharded) Shards() []*Lake { return s.shards }

// Epochs returns the composite epoch followed by each shard's own epoch in
// shard order. Routed mutations perturb the composite element; a mutation
// applied to a shard behind the composite's back (unsupported, but possible)
// still perturbs that shard's element, so a discovery fan-out sampling the
// vector detects single-shard tears the scalar composite epoch cannot see.
func (s *Sharded) Epochs() []uint64 {
	out := make([]uint64, 0, 1+len(s.shards))
	out = append(out, s.Epoch())
	for _, sh := range s.shards {
		out = append(out, sh.Epoch())
	}
	return out
}

// Add routes the new tables to their shards and indexes each shard's batch
// concurrently. Validation is atomic across the whole composite: a nil
// table, an empty name, or a name duplicating any batch member or any
// table on any shard rejects the entire batch before anything is indexed.
// KB semantics match Lake.Add.
func (s *Sharded) Add(tables ...*table.Table) error {
	if len(tables) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := CheckAdd("lake: add", tables, s.Get); err != nil {
		return err
	}
	perShard := PartitionTables(tables, len(s.shards))
	return s.routed(func(i int) error { return s.shards[i].Add(perShard[i]...) }, slices.Concat(s.Tables(), tables))
}

// Remove drops the named tables from their shards concurrently. Validation
// is atomic: an unknown name rejects the whole batch (duplicates within the
// batch are tolerated, as with Lake.Remove). A shard left with zero tables
// stays live and answers discovery queries with empty rankings.
func (s *Sharded) Remove(names ...string) error {
	if len(names) == 0 {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	unique, err := CheckRemove("lake: remove", names, s.Get)
	if err != nil {
		return err
	}
	doomed := make(map[string]bool, len(unique))
	for _, n := range unique {
		doomed[n] = true
	}
	perShard := PartitionNames(unique, len(s.shards))
	order := slices.DeleteFunc(slices.Clone(s.Tables()), func(t *table.Table) bool { return doomed[t.Name] })
	return s.routed(func(i int) error { return s.shards[i].Remove(perShard[i]...) }, order)
}

// routed is the composite's one mutation path: inside the composite epoch
// bracket it runs step on every shard concurrently, joins their errors and,
// when every shard succeeded, publishes order as the catalog order. step
// receives the shard index; Lake.Add and Lake.Remove return at once on a
// shard's empty sub-batch. Pre-validated batches cannot fail shard-side
// unless a shard was mutated behind the composite's back; routed then
// surfaces that rather than publishing an order the shards may not match.
func (s *Sharded) routed(step func(i int) error, order []*table.Table) error {
	s.Mutations.Begin()
	defer s.Mutations.End()
	errs := make([]error, len(s.shards))
	par.For(len(s.shards), func(i int) { errs[i] = step(i) })
	if err := errors.Join(errs...); err != nil {
		return err
	}
	s.order.Store(&order)
	return nil
}

// Compact is a no-op, as Lake.Compact is: no shard keeps mutation debt.
// It never changes query answers and does not tick the epoch.
func (s *Sharded) Compact() {}

// Get returns a table by name, from the shard its name routes to.
func (s *Sharded) Get(name string) (*table.Table, bool) {
	return s.shards[s.ShardFor(name)].Get(name)
}

// Size reports the current number of tables across all shards.
func (s *Sharded) Size() int { return len(s.Tables()) }

// Tables returns the current tables in catalog order — build order, then
// Add order, minus removals — matching what an unsharded lake over the same
// history would report. The returned slice is a stable snapshot — later
// mutations never shift its elements.
func (s *Sharded) Tables() []*table.Table { return *s.order.Load() }
