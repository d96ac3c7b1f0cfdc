// Package lake models the data lake (table repository) DIALITE discovers
// over. Mirroring the demo's setup — "the indexes used in SANTOS and LSH
// Ensemble are built offline, i.e., they are already available for the
// user" — constructing a Lake preprocesses every table once: semantic
// annotation for SANTOS, MinHash/LSH for LSH Ensemble, an inverted index
// for JOSIE-style search, and (optionally) a knowledge base synthesized
// from the lake itself and added to a copy of the curated one.
//
// The lake is a living object: open-data portals churn daily, so Add and
// Remove maintain all three discovery indexes incrementally instead of
// rebuilding them — JOSIE grows a delta segment and tombstones beside its
// CSR arena, the LSH Ensemble moves only the domains whose equi-depth
// partition shifted, and SANTOS annotates or evicts per-table semantic
// graphs. Every mutation leaves the lake query-equivalent to a fresh New
// over the surviving tables (pinned by the differential harness in
// differential_test.go). Mutations are exclusive with each other; queries
// run concurrently with mutations — see the concurrency notes on Add.
package lake

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/josie"
	"repro/internal/kb"
	"repro/internal/lshensemble"
	"repro/internal/par"
	"repro/internal/santos"
	"repro/internal/table"
)

// Options configures lake preprocessing.
type Options struct {
	// Knowledge is the curated KB (kb.Demo() for the demonstration); nil
	// means none.
	Knowledge *kb.KB
	// SynthesizeKB additionally synthesizes a KB from the lake tables, as
	// SANTOS does for uncovered domains, into a copy of Knowledge: the
	// catalog holds the copy, and Knowledge stays unfrozen and unmodified.
	SynthesizeKB bool
	// LSH configures the LSH Ensemble index. New rejects an LSH.Engine other
	// than empty or sketch.MinHash (see lshensemble.Options.Validate).
	LSH lshensemble.Options
}

// Lake is a preprocessed, mutable table repository. The catalog fields
// (tables, byName, domains, domainIdx, stats) are guarded by mu: accessors
// take the read lock, Add/Remove/Compact the write lock. The token
// dictionary and each discovery index carry their own synchronization, so
// queries against an index captured before a mutation stay safe.
type Lake struct {
	// kbState holds the knowledge base and the value dictionary that only
	// the benchmark reads (Knowledge, Dict).
	kbState
	// epoch is bumped only after validation succeeds, so failed mutations
	// leave it untouched — see Epoch.
	epoch     Epoch
	mu        sync.RWMutex
	tables    []*table.Table
	byName    map[string]*table.Table
	tokens    *table.TokenDict
	santosIx  *santos.Index
	joinIx    *lshensemble.Index
	josieIx   *josie.Index
	domains   []table.Domain
	domainIdx map[colRef]int // (table, column) -> index into domains
	stats     BuildStats
}

// BuildStats breaks lake preprocessing down per stage, so "which stage
// dominates the build" is a measured claim rather than a profiling session.
// The three index stages run concurrently; each duration is that stage's
// own wall time, and their sum can exceed the build's wall time on
// multi-core machines. Incremental mutations (Add, Remove) accumulate their
// per-stage work into the same fields, so the stats always cover the total
// preprocessing effort spent on the lake's current shape.
type BuildStats struct {
	// KBPrep covers KB synthesis into the copy of the curated KB (when
	// enabled) plus compiling the knowledge base into its integer-ID
	// annotation engine.
	KBPrep time.Duration
	// DomainExtraction covers domain extraction and token interning (which
	// fingerprints each new token once, into the token dictionary).
	DomainExtraction time.Duration
	// Santos, LSH and Josie cover the respective index builds.
	Santos time.Duration
	LSH    time.Duration
	Josie  time.Duration
}

// colRef addresses one column of one lake table.
type colRef struct {
	table  string
	column int
}

// Epoch returns the lake's mutation epoch: even when every discovery index
// reflects the same catalog state, odd while Add/Remove is applying
// per-index deltas. A reader that samples Epoch before and after a
// multi-index run and sees the same even value is guaranteed the run was
// not torn across a mutation; any other pair means some index may have been
// read mid-mutation and the run should be retried. Compact does not bump
// the epoch — it never changes query answers, so a read spanning it is not
// torn.
func (l *Lake) Epoch() uint64 { return l.epoch.Load() }

// Epochs returns the lake's mutation-epoch vector — a single element for a
// plain Lake. The vector form is what discovery's torn-read guard samples:
// it generalizes to composites (lake.Sharded prepends a composite counter to
// its shards' epochs) and to shard-per-process deployments, where each
// remote shard contributes its own counter. A clean multi-index read samples
// the same all-even vector before and after the run.
func (l *Lake) Epochs() []uint64 { return []uint64{l.epoch.Load()} }

// Shards returns the lake's shard list. A plain Lake is its own single
// shard; the method exists so *Lake and *Sharded satisfy the same
// scatter-gather discovery contract (see Catalog and discovery.RunAll).
func (l *Lake) Shards() []*Lake { return []*Lake{l} }

// New preprocesses the given tables into a queryable lake. Duplicate table
// names are rejected: discovery results are reported by name. New is the
// only way a lake is built: the persistence layer recovers one by calling it
// over a snapshot's tables and knowledge base (see State).
//
// The build computes each column's value set once, in the three phases
// every build shape shares (NewSharded runs them per shard): extract, which
// extracts every table's domains and interns their members into the lake's
// token dictionary; the KB, synthesized from those same domains when
// Options.SynthesizeKB asks, and compiled (knowledgeFor); and index, which
// builds the SANTOS annotation, LSH Ensemble, and JOSIE indexes
// concurrently. All results are collected in table order, so the lake is
// byte-identical to a sequential build. Cells are not interned: no served
// path reads a value dictionary (see Dict).
func New(tables []*table.Table, opts Options) (*Lake, error) {
	if err := opts.LSH.Validate(); err != nil {
		return nil, fmt.Errorf("lake: %w", err)
	}
	if err := CheckAdd("lake", tables, nil); err != nil {
		return nil, err
	}
	l, perTable := extract(tables)
	t0 := time.Now()
	knowledge := knowledgeFor(opts, l.tables, perTable)
	l.stats.KBPrep = time.Since(t0)
	l.index(knowledge, opts.LSH)
	return l, nil
}

// extract is every build's first phase. It makes the unindexed lake over
// tables and extracts every table's domains (extractDomains), interning
// their members into the lake's own token dictionary. It returns the
// domains per table, in table order, for KB synthesis.
func extract(tables []*table.Table) (*Lake, [][]table.Domain) {
	l := &Lake{
		tokens: table.NewTokenDict(),
		tables: append([]*table.Table(nil), tables...),
		byName: make(map[string]*table.Table, len(tables)),
	}
	l.epoch.seed()
	for _, t := range tables {
		l.byName[t.Name] = t
	}
	l.dict = table.NewDict() // empty; see Dict
	t0 := time.Now()
	perTable := extractDomains(l.tables, l.tokens)
	l.domains = slices.Concat(perTable...)
	l.reindexDomains()
	l.stats.DomainExtraction = time.Since(t0)
	return l, perTable
}

// knowledgeFor is every build's KB phase: it resolves Options into the
// compiled, never nil KB the catalog annotates with, built once. Without
// SynthesizeKB that is Options.Knowledge itself, which compiling freezes.
// With it, the KB synthesized from domains (domains[i] is tables[i]'s, as
// extract gave them) is added to a copy of Options.Knowledge, which may
// already be frozen and is left untouched. The result equals
// Knowledge.Merge(kb.Synthesize(tables)) without paying for that copy of
// the synthesized KB.
func knowledgeFor(opts Options, tables []*table.Table, domains [][]table.Domain) *kb.KB {
	k := opts.Knowledge
	if k == nil {
		k = kb.New()
	} else if opts.SynthesizeKB {
		k = k.Merge(kb.New())
	}
	if opts.SynthesizeKB {
		kb.SynthesizeDomains(k, tables, domains)
	}
	k.Compiled()
	return k
}

// index is every build's last phase: the lake takes the compiled KB, and
// the three indexes, which read disjoint inputs, are built concurrently
// over the token dictionary (complete after extract, so the builds only
// read it).
func (l *Lake) index(knowledge *kb.KB, lsh lshensemble.Options) {
	l.knowledge = knowledge
	l.eachIndex(
		func() { l.santosIx = santos.Build(l.tables, l.knowledge) },
		func() { l.joinIx = lshensemble.BuildWithDict(l.domains, lsh, l.tokens) },
		func() { l.josieIx = josie.BuildWithDict(l.domains, l.tokens) },
	)
}

// Add incrementally indexes additional tables into the lake, maintaining
// all three discovery indexes without a rebuild: the new tables' domains
// are extracted and their tokens interned into the shared token dictionary
// exactly as New does (one worker per table), then the SANTOS, LSH Ensemble
// and JOSIE indexes absorb the same domains concurrently. After Add
// returns, every discovery query is answered identically to a fresh New
// over the enlarged table set.
//
// Validation is atomic: a nil table, an empty or duplicate name (against
// the lake or within the batch) rejects the whole batch before anything is
// indexed.
//
// Concurrency contract: mutations (Add, Remove, Compact) are exclusive with
// each other; discovery queries may run concurrently with a mutation. Each
// index applies its delta atomically with respect to its own queries, but a
// multi-index query running mid-mutation may observe the lake between index
// updates (e.g. a table already visible to JOSIE but not yet to SANTOS);
// queries issued after Add returns see the delta everywhere. Multi-index
// readers detect that window via the mutation epoch (see Epoch) and retry —
// discovery.RunAll does this automatically.
//
// KB semantics: the added tables are annotated against the knowledge base
// fixed at build. A KB synthesized at build time (Options.SynthesizeKB) is
// not re-synthesized for added tables; rebuild the lake to fold new tables
// into the synthesis.
func (l *Lake) Add(tables ...*table.Table) error {
	if len(tables) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := CheckAdd("lake: add", tables, l.lookup); err != nil {
		return err
	}
	l.epoch.Begin()
	defer l.epoch.End()
	t0 := time.Now()
	newDomains := slices.Concat(extractDomains(tables, l.tokens)...)
	l.stats.DomainExtraction += time.Since(t0)
	for _, t := range tables {
		l.byName[t.Name] = t
		l.tables = append(l.tables, t)
	}
	base := len(l.domains)
	l.domains = append(l.domains, newDomains...)
	for i := range newDomains {
		l.domainIdx[colRef{newDomains[i].Table, newDomains[i].Column}] = base + i
	}
	l.eachIndex(
		func() { l.santosIx.Add(tables) },
		func() { l.joinIx.Add(newDomains) },
		func() { l.josieIx.Add(newDomains) },
	)
	return nil
}

// Remove drops the named tables from the lake and from all three discovery
// indexes: SANTOS evicts their semantic graphs, the LSH Ensemble re-shards
// their domains out of the equi-depth partitioning, and JOSIE tombstones
// their sets (folded away by the next compaction). After Remove returns,
// every discovery query is answered identically to a fresh New over the
// surviving tables, Get reports the removed names as absent (ok=false), and
// DomainFor returns nil for their columns. Interned tokens stay in the
// shared token dictionary by design (interners are append-only); they can
// no longer match any indexed domain.
//
// Validation is atomic: an unknown name rejects the whole batch before
// anything is dropped (duplicate names within the batch are tolerated).
// Remove follows Add's concurrency contract.
func (l *Lake) Remove(names ...string) error {
	if len(names) == 0 {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	nameList, err := CheckRemove("lake: remove", names, l.lookup)
	if err != nil {
		return err
	}
	doomed := make(map[string]bool, len(nameList))
	for _, n := range nameList {
		doomed[n] = true
	}
	l.epoch.Begin()
	defer l.epoch.End()
	// New slices rather than in-place filtering: accessors hand the old
	// backing arrays to concurrent readers, which must keep seeing the
	// pre-removal state rather than shifted elements.
	kept := make([]*table.Table, 0, len(l.tables)-len(doomed))
	for _, t := range l.tables {
		if !doomed[t.Name] {
			kept = append(kept, t)
		}
	}
	l.tables = kept
	for n := range doomed {
		delete(l.byName, n)
	}
	keptDomains := make([]table.Domain, 0, len(l.domains))
	for i := range l.domains {
		if !doomed[l.domains[i].Table] {
			keptDomains = append(keptDomains, l.domains[i])
		}
	}
	l.domains = keptDomains
	l.reindexDomains()
	l.eachIndex(
		func() { l.santosIx.Remove(nameList) },
		func() { l.joinIx.Remove(nameList) },
		func() { l.josieIx.Remove(nameList) },
	)
	return nil
}

// reindexDomains rebuilds the (table, column) -> domains index from scratch;
// Add extends it in place instead.
func (l *Lake) reindexDomains() {
	l.domainIdx = make(map[colRef]int, len(l.domains))
	for i, d := range l.domains {
		l.domainIdx[colRef{d.Table, d.Column}] = i
	}
}

// eachIndex is the one place the lake builds its three discovery indexes
// or applies a delta to them: New's builds, Add's and Remove's deltas
// (Compact, which changes no answer and clocks nothing, is apart). It runs one step per index
// concurrently (the indexes share nothing but the token dictionary, which
// the steps only read) and adds each step's wall time to that index's
// BuildStats field — New starts from zero, so its stats are the build's
// own times, and every mutation accumulates on top.
func (l *Lake) eachIndex(santosStep, lshStep, josieStep func()) {
	clocked := func(step func(), d *time.Duration) func() {
		return func() {
			t := time.Now()
			step()
			*d += time.Since(t)
		}
	}
	par.Do(clocked(santosStep, &l.stats.Santos), clocked(lshStep, &l.stats.LSH), clocked(josieStep, &l.stats.Josie))
}

// Compact folds accumulated mutation debt out of the discovery indexes:
// JOSIE merges its delta segment and tombstones back into a dense CSR
// arena, and the LSH Ensemble drops dead domain slots. Both happen
// automatically past internal thresholds; Compact forces them (e.g. after a
// bulk removal, or before a latency-sensitive query burst). Query results
// are unaffected. Compact follows Add's concurrency contract.
func (l *Lake) Compact() {
	l.mu.Lock()
	defer l.mu.Unlock()
	par.Do(l.joinIx.Compact, l.josieIx.Compact)
}

// extractDomains extracts every table's kb.TextualDomains, one worker per
// table, and interns every domain member into tokens, so each domain is
// built once, with its token IDs and key precomputed, and the same slices
// feed KB synthesis, JOSIE and the LSH Ensemble. Results land in slot
// order, one slice per table, so everything built from them is identical to
// a sequential extraction. Domains carry no fingerprints: the token
// dictionary hashes each distinct token once and the LSH Ensemble signs
// from its cache.
func extractDomains(tables []*table.Table, tokens *table.TokenDict) [][]table.Domain {
	perTable := make([][]table.Domain, len(tables))
	par.For(len(tables), func(i int) {
		ds := kb.TextualDomains(tables[i])
		for j := range ds {
			ds[j].IDs = tokens.InternAll(ds[j].Values, nil)
		}
		perTable[i] = ds
	})
	return perTable
}

// Tables returns the lake's current tables: the build-time tables in input
// order minus removals, with added tables appended in Add order. The
// returned slice is a stable snapshot — later mutations never shift its
// elements.
func (l *Lake) Tables() []*table.Table {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.tables
}

// Get returns a table by name. After Remove(name), ok is false: removed
// tables are absent from the catalog, not merely unreachable.
func (l *Lake) Get(name string) (*table.Table, bool) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.lookup(name)
}

// lookup is Get for callers already holding mu.
func (l *Lake) lookup(name string) (*table.Table, bool) {
	t, ok := l.byName[name]
	return t, ok
}

// Size reports the current number of tables.
func (l *Lake) Size() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.tables)
}

// Stats returns the per-stage preprocessing timing breakdown, including
// work accumulated by incremental mutations.
func (l *Lake) Stats() BuildStats {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.stats
}

// Tokens returns the lake-wide token dictionary: every domain member of
// every lake table is interned in it, and the discovery indexes are built
// on its IDs, so query-side token lookups and cached fingerprints agree
// lake-wide.
func (l *Lake) Tokens() *table.TokenDict { return l.tokens }

// DomainFor returns the extracted domain of one lake table column — with
// its cached token IDs — or nil when the column produced no domain
// (non-textual or empty). ResolveQuery serves it when the query table is the
// lake's own. After Remove(tableName), every column of that table returns
// nil; previously returned pointers stay readable but describe the removed
// domain.
func (l *Lake) DomainFor(tableName string, col int) *table.Domain {
	l.mu.RLock()
	defer l.mu.RUnlock()
	i, ok := l.domainIdx[colRef{tableName, col}]
	if !ok {
		return nil
	}
	return &l.domains[i]
}

// Santos returns the semantic union-search index.
func (l *Lake) Santos() *santos.Index { return l.santosIx }

// Join returns the LSH Ensemble containment index.
func (l *Lake) Join() *lshensemble.Index { return l.joinIx }

// Josie returns the exact top-k overlap index.
func (l *Lake) Josie() *josie.Index { return l.josieIx }

// Domains returns the extracted column domains of the current tables (for
// baselines and experiments). The returned slice is a stable snapshot —
// later mutations never shift its elements.
func (l *Lake) Domains() []table.Domain {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.domains
}

// QueryDomain extracts the normalized value set of a query table column,
// with the extractor the lake's indexes are built with (table.ValueSet).
func QueryDomain(q *table.Table, col int) ([]string, error) {
	if col < 0 || col >= q.NumCols() {
		return nil, fmt.Errorf("lake: query column %d out of range for table %q", col, q.Name)
	}
	return q.ValueSet(col), nil
}

// ResolveQuery resolves a query column into the domain the joinable indexes
// search with: value set and token IDs. When q is the lake's own table
// (pointer identity — a renamed, copied or modified table never matches) and
// the column was indexed, that is the cached domain, extracted and interned
// once at build. Every other query — in particular every table that arrives
// over the wire — gets a transient domain built in one pass: QueryDomain's
// value set resolved against the lake's token dictionary by lookup
// (table.ResolveDomain), so queries never intern and the dictionary never
// grows. Both shapes take the same path through the indexes
// (QueryDomainCtx, TopKIDsCtx) and rank identically for equal cells. An
// out-of-range column never has a cached domain, so it always reaches
// QueryDomain's range check.
func (l *Lake) ResolveQuery(q *table.Table, col int) (*table.Domain, error) {
	if lt, ok := l.Get(q.Name); ok && lt == q {
		if d := l.DomainFor(q.Name, col); d != nil {
			return d, nil
		}
	}
	vals, err := QueryDomain(q, col)
	if err != nil {
		return nil, err
	}
	return table.ResolveDomain(l.tokens, vals), nil
}
