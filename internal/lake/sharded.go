package lake

import (
	"errors"
	"fmt"
	"sync"

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
// each other, queries run concurrently with mutations, and the composite
// epoch (Epoch) lets multi-index readers detect and retry torn reads.
// Mutations must go through the Sharded value; mutating a shard returned by
// Shards() directly bypasses epoch accounting and catalog-order
// bookkeeping.
type Sharded struct {
	// Composite carries the routing rule, the composite epoch, and the
	// composite-level Knowledge/Dict the cross-shard stages read.
	*Composite
	mu sync.RWMutex
	// shards is fixed at construction; the *Lake values are mutable, the
	// slice is not.
	shards []*Lake
	// order holds table names in catalog order (build order, then Add
	// order, minus removals) so Tables() reports the same sequence an
	// unsharded lake would.
	order []string
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
// same-named tables landing on different shards must not coexist. KB
// synthesis (Options.SynthesizeKB) runs once over the full table set, so
// the knowledge base — and therefore every SANTOS annotation — is identical
// to an unsharded build; the shards then share the one compiled KB.
func NewSharded(tables []*table.Table, n int, opts Options) (*Sharded, error) {
	if n < 1 {
		return nil, fmt.Errorf("lake: sharded: shard count %d, need at least 1", n)
	}
	if err := CheckAdd("lake", tables, nil); err != nil {
		return nil, err
	}
	// The composite compiles the KB before the fan-out, so every shard
	// shares one *Compiled (see NewComposite).
	s := &Sharded{
		Composite: NewComposite(n, prepareKnowledge(tables, opts)),
		shards:    make([]*Lake, n),
	}
	shardOpts := opts
	shardOpts.Knowledge = s.knowledge
	shardOpts.SynthesizeKB = false // already folded into knowledge above
	parts := PartitionTables(tables, n)
	errs := make([]error, n)
	par.For(n, func(i int) {
		s.shards[i], errs[i] = New(parts[i], shardOpts)
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	s.order = make([]string, 0, len(tables))
	for _, t := range tables {
		s.order = append(s.order, t.Name)
	}
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
	s.Mutations.Begin()
	defer s.Mutations.End()
	errs := make([]error, len(s.shards))
	par.For(len(s.shards), func(i int) {
		if len(perShard[i]) > 0 {
			errs[i] = s.shards[i].Add(perShard[i]...)
		}
	})
	if err := errors.Join(errs...); err != nil {
		// Pre-validated batches cannot fail shard-side unless a shard was
		// mutated behind the composite's back; surface it rather than
		// recording names that may not all be indexed.
		return err
	}
	for _, t := range tables {
		s.order = append(s.order, t.Name)
	}
	return nil
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
	s.Mutations.Begin()
	defer s.Mutations.End()
	errs := make([]error, len(s.shards))
	par.For(len(s.shards), func(i int) {
		if len(perShard[i]) > 0 {
			errs[i] = s.shards[i].Remove(perShard[i]...)
		}
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}
	doomed := make(map[string]bool, len(unique))
	for _, n := range unique {
		doomed[n] = true
	}
	kept := s.order[:0]
	for _, n := range s.order {
		if !doomed[n] {
			kept = append(kept, n)
		}
	}
	s.order = kept
	return nil
}

// Compact forces every shard's index compaction (concurrently). Like
// Lake.Compact it never changes query answers, so it does not tick the
// epoch.
func (s *Sharded) Compact() {
	s.mu.Lock()
	defer s.mu.Unlock()
	par.For(len(s.shards), func(i int) { s.shards[i].Compact() })
}

// Get returns a table by name, from the shard its name routes to.
func (s *Sharded) Get(name string) (*table.Table, bool) {
	return s.shards[s.ShardFor(name)].Get(name)
}

// Size reports the current number of tables across all shards.
func (s *Sharded) Size() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.order)
}

// Tables returns the current tables in catalog order — build order, then
// Add order, minus removals — matching what an unsharded lake over the same
// history would report. The returned slice is a fresh snapshot.
func (s *Sharded) Tables() []*table.Table {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]*table.Table, 0, len(s.order))
	for _, n := range s.order {
		if t, ok := s.Get(n); ok {
			out = append(out, t)
		}
	}
	return out
}

// Stats returns the sum of the shards' per-stage preprocessing timings.
// Stages run concurrently across and within shards, so the sum can exceed
// build wall time by roughly the parallelism factor.
func (s *Sharded) Stats() BuildStats {
	var sum BuildStats
	for _, sh := range s.shards {
		st := sh.Stats()
		sum.KBPrep += st.KBPrep
		sum.DomainExtraction += st.DomainExtraction
		sum.Santos += st.Santos
		sum.LSH += st.LSH
		sum.Josie += st.Josie
	}
	return sum
}
