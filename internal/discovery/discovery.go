// Package discovery implements DIALITE's first stage (paper §2.1): given a
// query table and an intent/query column, find related tables in the lake.
// The built-in discoverers are the paper's — SANTOS for unionable search
// and LSH Ensemble for joinable search — plus a JOSIE-style exact top-k
// joinable search, a syntactic-unionability baseline, and the user-defined
// similarity hook of Fig. 4. Results from multiple discoverers merge into
// one integration set ("we persist the set of tables found by all
// techniques"), which feeds the align-and-integrate stage.
//
// The joinable discoverers resolve the query column with
// lake.(*Lake).ResolveQuery and search the indexes by token ID; there is no
// separate path for raw strings or for query tables the lake already holds.
// On the pinned handle a run hands them, ResolveQuery resolves the run's
// query column once per shard, so LSHJoin and JosieJoin share one domain.
package discovery

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/josie"
	"repro/internal/lake"
	"repro/internal/lshensemble"
	"repro/internal/table"
)

// Result is one discovered table.
type Result struct {
	// Table is the discovered lake table. It is shared, not copied — an
	// in-process lake hands out its own table, a cluster coordinator the
	// one in its table cache — so it is read-only: no consumer may write
	// to it.
	Table *table.Table
	// Score is method-specific (containment, overlap, semantic score,
	// user similarity) — comparable within one method, not across methods.
	Score float64
	// Method names the discoverer that produced the result.
	Method string
	// Column is the lake column that matched the query column (-1 when
	// the method is table-level).
	Column int
}

// Discoverer finds tables related to a query table. queryCol is the
// intent/query column the demo asks the user to select; k<=0 returns all
// matches. Discover observes ctx cooperatively: once the context is
// cancelled it returns (nil, ctx.Err()) promptly instead of finishing the
// scan — the contract the serving layer's per-request timeouts rely on.
// Implementations must treat an uncancelled ctx as a no-op (results
// identical to running without one).
//
// An answer must depend only on the shard lake's state, the query table,
// queryCol and k — never on time, randomness or state outside the lake.
// serve caches whole /v1/discover answers under the catalog's epoch
// vector and serves them while it stays unchanged, so a discoverer
// reading anything else would be answered stale. Registry.Register
// refuses duplicate names, which keeps a method name a stable part of the
// cache key.
//
// A discoverer receives the lake's own tables (through l, and as results it
// ranks) and the run's query table q, which every discoverer of the run
// shares concurrently. It must only read them: lake tables are immutable,
// and the indexes, the answer cache and the next snapshot describe them.
// A lake domain's tokens are read by ID, through l.Tokens(): the entries of
// l.Domains() and l.DomainFor carry IDs and no Values (Values is nil).
type Discoverer interface {
	Name() string
	Discover(ctx context.Context, l *lake.Lake, q *table.Table, queryCol, k int) ([]Result, error)
}

// SantosUnion is semantic unionable search (SANTOS).
type SantosUnion struct{}

// Name implements Discoverer.
func (SantosUnion) Name() string { return "santos-union" }

// Discover implements Discoverer.
func (SantosUnion) Discover(ctx context.Context, l *lake.Lake, q *table.Table, queryCol, k int) ([]Result, error) {
	res, err := l.Santos().QueryCtx(ctx, q, queryCol, k)
	if err != nil {
		return nil, fmt.Errorf("discovery: santos: %w", err)
	}
	out := make([]Result, 0, len(res))
	for _, r := range res {
		out = append(out, Result{Table: r.Table, Score: r.Score, Method: "santos-union", Column: r.MatchedColumn})
	}
	return out, nil
}

// LSHJoin is joinable search by domain containment (LSH Ensemble).
type LSHJoin struct{}

// lshThreshold is the minimum containment of the query column's domain in
// a candidate column for LSHJoin to report it.
const lshThreshold = 0.5

// Name implements Discoverer.
func (LSHJoin) Name() string { return "lsh-join" }

// Discover implements Discoverer.
func (LSHJoin) Discover(ctx context.Context, l *lake.Lake, q *table.Table, queryCol, k int) ([]Result, error) {
	return bestPerTable(l, q, queryCol, k, "lsh-join", func(d *table.Domain) ([]lshensemble.Result, error) {
		return l.Join().QueryDomainCtx(ctx, d, lshThreshold, 0)
	}, func(h lshensemble.Result) (*table.Domain, float64) { return h.Domain, h.Containment })
}

// JosieJoin is exact top-k joinable search by overlap (JOSIE-style).
type JosieJoin struct{}

// Name implements Discoverer.
func (JosieJoin) Name() string { return "josie-join" }

// Discover implements Discoverer.
func (JosieJoin) Discover(ctx context.Context, l *lake.Lake, q *table.Table, queryCol, k int) ([]Result, error) {
	return bestPerTable(l, q, queryCol, k, "josie-join", func(d *table.Domain) ([]josie.Result, error) {
		return l.Josie().TopKIDsCtx(ctx, d.IDs, 0)
	}, func(h josie.Result) (*table.Domain, float64) { return h.Set, float64(h.Overlap) })
}

// bestPerTable is the joinable discoverers' one path: it resolves the query
// column (lake.(*Lake).ResolveQuery), searches with the domain, and ranks
// the tables behind the hits, each by its best-scoring column; the query
// table itself and tables no longer in the lake are skipped.
func bestPerTable[H any](l *lake.Lake, q *table.Table, queryCol, k int, method string, search func(*table.Domain) ([]H, error), hit func(H) (*table.Domain, float64)) ([]Result, error) {
	domain, err := l.ResolveQuery(q, queryCol)
	if err != nil {
		return nil, fmt.Errorf("discovery: %s: %w", method, err)
	}
	hits, err := search(domain)
	if err != nil {
		return nil, err
	}
	best := make(map[string]Result)
	for _, h := range hits {
		d, score := hit(h)
		t, ok := l.Get(d.Table)
		if !ok || t.Name == q.Name {
			continue
		}
		if cur, seen := best[t.Name]; !seen || score > cur.Score {
			best[t.Name] = Result{Table: t, Score: score, Method: method, Column: d.Column}
		}
	}
	return rankResults(best, k), nil
}

// SyntacticUnion is the unionability baseline (Nargesian et al. style):
// every query column is matched to its best lake column by token Jaccard,
// and the table scores the average best match. It ignores semantics — the
// X4 experiment contrasts it with SANTOS.
//
// Jaccard is counted on token IDs: each query column is resolved against
// the lake's token dictionary (Lake.ResolveQuery) and compared with the IDs
// of every lake domain. A query token outside the vocabulary (ID 0) matches
// nothing but still counts toward |Q|, so the scores are the ones
// tokenize.Jaccard gives over the value strings.
type SyntacticUnion struct{}

// Name implements Discoverer.
func (SyntacticUnion) Name() string { return "syntactic-union" }

// Discover implements Discoverer.
func (SyntacticUnion) Discover(ctx context.Context, l *lake.Lake, q *table.Table, queryCol, k int) ([]Result, error) {
	if q.NumCols() == 0 {
		return nil, fmt.Errorf("discovery: syntactic-union: query table %q has no columns", q.Name)
	}
	// The non-empty query columns, each as its set of vocabulary IDs and
	// its size |Q|.
	type queryColumn struct {
		ids  map[uint32]struct{}
		size int
	}
	var qcols []queryColumn
	for c := 0; c < q.NumCols(); c++ {
		d, err := l.ResolveQuery(q, c)
		if err != nil {
			return nil, fmt.Errorf("discovery: syntactic-union: %w", err)
		}
		if len(d.IDs) == 0 {
			continue
		}
		ids := make(map[uint32]struct{}, len(d.IDs))
		for _, id := range d.IDs {
			if id != 0 {
				ids[id] = struct{}{}
			}
		}
		qcols = append(qcols, queryColumn{ids, len(d.IDs)})
	}
	// Index lake domains per table.
	domains := l.Domains()
	perTable := make(map[string][]*table.Domain)
	for i := range domains {
		perTable[domains[i].Table] = append(perTable[domains[i].Table], &domains[i])
	}
	best := make(map[string]Result)
	for name, doms := range perTable {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t, ok := l.Get(name)
		if !ok || name == q.Name {
			continue
		}
		total := 0.0
		for _, qc := range qcols {
			bestSim := 0.0
			for _, ld := range doms {
				inter := 0
				for _, id := range ld.IDs {
					if _, ok := qc.ids[id]; ok {
						inter++
					}
				}
				if s := float64(inter) / float64(qc.size+len(ld.IDs)-inter); s > bestSim {
					bestSim = s
				}
			}
			total += bestSim
		}
		if total == 0 {
			continue
		}
		best[name] = Result{Table: t, Score: total / float64(len(qcols)), Method: "syntactic-union", Column: -1}
	}
	return rankResults(best, k), nil
}

// SimilarityFunc is the paper's Fig. 4 extension point: a user implements
// a similarity between two tables, and DIALITE turns it into a discoverer
// by scanning the lake. Sim receives the run's shared query table and the
// lake's own table as candidate, and must not write to either (see
// Discoverer).
type SimilarityFunc struct {
	// FuncName is the registry key.
	FuncName string
	// Sim scores how related candidate is to the query (higher is more
	// related); non-positive scores are dropped.
	Sim func(query, candidate *table.Table) float64
}

// Name implements Discoverer.
func (s SimilarityFunc) Name() string { return s.FuncName }

// Discover implements Discoverer.
func (s SimilarityFunc) Discover(ctx context.Context, l *lake.Lake, q *table.Table, queryCol, k int) ([]Result, error) {
	if s.Sim == nil {
		return nil, fmt.Errorf("discovery: %q has no similarity function", s.FuncName)
	}
	best := make(map[string]Result)
	for _, t := range l.Tables() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if t.Name == q.Name {
			continue
		}
		if score := s.Sim(q, t); score > 0 {
			best[t.Name] = Result{Table: t, Score: score, Method: s.FuncName, Column: -1}
		}
	}
	return rankResults(best, k), nil
}

// rankResults orders per-table results by score descending (name
// tie-break) and truncates to k.
func rankResults(best map[string]Result, k int) []Result {
	return topK(slices.AppendSeq(make([]Result, 0, len(best)), maps.Values(best)), k)
}

// topK sorts results by score descending, then table name ascending, and
// truncates them to k (k <= 0 keeps all): the one ranking order of every
// discoverer and of the cross-shard merge.
func topK(out []Result, k int) []Result {
	sort.Slice(out, func(a, b int) bool {
		if out[a].Score != out[b].Score {
			return out[a].Score > out[b].Score
		}
		return out[a].Table.Name < out[b].Table.Name
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// mergeIntegrationSet merges the query table with discovery results from any
// number of methods into the integration set fed to ALITE: the query
// first, then discovered tables deduplicated by name in rank order. A
// column-less table — a remote result stub that could not be materialized —
// cannot be integrated and is left out.
func mergeIntegrationSet(q *table.Table, resultSets ...[]Result) []*table.Table {
	out := []*table.Table{q}
	seen := map[string]bool{q.Name: true}
	for _, rs := range resultSets {
		for _, r := range rs {
			if r.Table.NumCols() > 0 && !seen[r.Table.Name] {
				seen[r.Table.Name] = true
				out = append(out, r.Table)
			}
		}
	}
	return out
}
