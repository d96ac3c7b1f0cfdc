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
// Concurrency contract: mutations are exclusive with each other; queries
// and catalog reads run concurrently with mutations and take no lock. The
// composite's state is one published cut (see cut): each routed batch
// applies on its shards, then publishes the catalog order together with
// every shard's view, as a Lake publishes its view. Tables, Size, Get,
// Epochs and Pin each load that one pointer, so they never wait on a
// batch and never see part of one.
// Mutations must go through the Sharded value; a shard returned by Shards()
// and mutated directly joins the composite's state only when the next
// routed batch, failed or not, publishes a cut.
type Sharded struct {
	// Composite carries the routing rule and the composite-level
	// Knowledge/Dict the cross-shard stages read.
	*Composite
	mu sync.Mutex // serializes Add and Remove
	// shards is fixed at construction; the *Lake values are mutable, the
	// slice is not.
	shards []*Lake
	cut    atomic.Pointer[cut]
}

// cut is one published state of a Sharded: order holds the tables in
// catalog order (build order, then Add order, minus removals) so Tables()
// reports the same sequence an unsharded lake would, views[i] is shard i's
// view as the routed batch left it, and epochs[i] is that view's
// generation. A batch publishes a new cut and never writes a published one.
type cut struct {
	order  []*table.Table
	views  []*view
	epochs []uint64
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
	// NewComposite finds the KB compiled, so every shard shares one
	// *Compiled.
	s.Composite = NewComposite(n, knowledgeFor(opts, tables, domains))
	par.For(n, func(i int) { s.shards[i].index(s.knowledge, opts.LSH, 0) })
	s.publish(append([]*table.Table(nil), tables...))
	return s, nil
}

// Shards returns the shard lakes in shard order. The slice is fixed for the
// Sharded's lifetime; treat it as read-only and route mutations through the
// Sharded itself.
func (s *Sharded) Shards() []*Lake { return s.shards }

// Epochs returns the generations of the published cut's views, in shard
// order. Every routed batch publishes a new cut in which at least one
// shard's view is new, so two cuts never share a vector.
func (s *Sharded) Epochs() []uint64 { return slices.Clone(s.cut.Load().epochs) }

// Pin pins the published cut for one run whose query is column col of q:
// it returns one read-only handle per shard over the cut's view, all
// sharing one extraction of the query's value set (see Lake.ResolveQuery),
// and the cut's epoch vector. It loads one pointer, so it never waits on a
// routed batch, and it is never part of one: the cut is the catalog before
// a batch or after it.
func (s *Sharded) Pin(q *table.Table, col int) ([]*Lake, []uint64) {
	c := s.cut.Load()
	values := sync.OnceValues(func() ([]string, error) { return QueryDomain(q, col) })
	pin := make([]*Lake, len(s.shards))
	for i, sh := range s.shards {
		pin[i] = sh.handle(c.views[i], q, col, values)
	}
	return pin, c.epochs
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
	perShard := PartitionNames(unique, len(s.shards))
	return s.routed(func(i int) error { return s.shards[i].Remove(perShard[i]...) }, slices.Clone(s.Tables()))
}

// routed is the composite's one mutation path: it runs step on every shard
// concurrently, publishes the cut of the shards' views over candidates, the
// catalog order before the batch with any added tables appended, and
// returns the shards' joined errors. step receives the shard index;
// Lake.Add and Lake.Remove return at once on a shard's empty sub-batch.
// Pre-validated batches cannot fail shard-side unless a shard was mutated
// behind the composite's back; routed then surfaces that, and the cut it
// publishes anyway brings the composite up to the shards' own state.
func (s *Sharded) routed(step func(i int) error, candidates []*table.Table) error {
	errs := make([]error, len(s.shards))
	par.For(len(s.shards), func(i int) { errs[i] = step(i) })
	s.publish(candidates)
	return errors.Join(errs...)
}

// publish stores the cut of every shard's current view. Its catalog order
// is candidates, which publish owns, less the tables no view holds. Writers
// hold mu, or the Sharded is not yet shared, so no routed batch runs beside
// it.
func (s *Sharded) publish(candidates []*table.Table) {
	c := &cut{views: make([]*view, len(s.shards)), epochs: make([]uint64, len(s.shards))}
	for i, sh := range s.shards {
		c.views[i] = sh.view.Load()
		c.epochs[i] = c.views[i].gen
	}
	c.order = slices.DeleteFunc(candidates, func(t *table.Table) bool {
		_, ok := c.views[s.ShardFor(t.Name)].get(t.Name)
		return !ok
	})
	s.cut.Store(c)
}

// Get returns a table by name, from the published view of the shard its
// name routes to.
func (s *Sharded) Get(name string) (*table.Table, bool) {
	return s.cut.Load().views[s.ShardFor(name)].get(name)
}

// Size reports the current number of tables across all shards.
func (s *Sharded) Size() int { return len(s.Tables()) }

// Tables returns the current tables in catalog order — build order, then
// Add order, minus removals — matching what an unsharded lake over the same
// history would report. The returned slice is a stable snapshot — later
// mutations never shift its elements.
func (s *Sharded) Tables() []*table.Table { return s.cut.Load().order }
