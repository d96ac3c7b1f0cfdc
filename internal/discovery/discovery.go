// Package discovery implements DIALITE's first stage (paper §2.1): given a
// query table and an intent/query column, find related tables in the lake.
// The built-in discoverers are the paper's — SANTOS for unionable search
// and LSH Ensemble for joinable search — plus a JOSIE-style exact top-k
// joinable search, a syntactic-unionability baseline, and the user-defined
// similarity hook of Fig. 4. Results from multiple discoverers merge into
// one integration set ("we persist the set of tables found by all
// techniques"), which feeds the align-and-integrate stage.
//
// The joinable discoverers resolve the query column once per call with
// lake.(*Lake).ResolveQuery and search the indexes by token ID; there is no
// separate path for raw strings or for query tables the lake already holds.
package discovery

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/lake"
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
type LSHJoin struct {
	// Threshold is the minimum containment of the query column's domain in
	// the candidate column. Default 0.5.
	Threshold float64
}

// Name implements Discoverer.
func (LSHJoin) Name() string { return "lsh-join" }

// Discover implements Discoverer.
func (d LSHJoin) Discover(ctx context.Context, l *lake.Lake, q *table.Table, queryCol, k int) ([]Result, error) {
	th := d.Threshold
	if th == 0 {
		th = 0.5
	}
	domain, err := l.ResolveQuery(q, queryCol)
	if err != nil {
		return nil, fmt.Errorf("discovery: lsh-join: %w", err)
	}
	hits, err := l.Join().QueryDomainCtx(ctx, domain, th, 0)
	if err != nil {
		return nil, err
	}
	best := make(map[string]Result)
	for _, h := range hits {
		t, ok := l.Get(h.Domain.Table)
		if !ok || t.Name == q.Name {
			continue
		}
		if cur, seen := best[t.Name]; !seen || h.Containment > cur.Score {
			best[t.Name] = Result{Table: t, Score: h.Containment, Method: "lsh-join", Column: h.Domain.Column}
		}
	}
	return rankResults(best, k), nil
}

// JosieJoin is exact top-k joinable search by overlap (JOSIE-style).
type JosieJoin struct{}

// Name implements Discoverer.
func (JosieJoin) Name() string { return "josie-join" }

// Discover implements Discoverer.
func (JosieJoin) Discover(ctx context.Context, l *lake.Lake, q *table.Table, queryCol, k int) ([]Result, error) {
	domain, err := l.ResolveQuery(q, queryCol)
	if err != nil {
		return nil, fmt.Errorf("discovery: josie-join: %w", err)
	}
	hits, err := l.Josie().TopKIDsCtx(ctx, domain.IDs, 0)
	if err != nil {
		return nil, err
	}
	best := make(map[string]Result)
	for _, h := range hits {
		t, ok := l.Get(h.Set.Table)
		if !ok || t.Name == q.Name {
			continue
		}
		if cur, seen := best[t.Name]; !seen || float64(h.Overlap) > cur.Score {
			best[t.Name] = Result{Table: t, Score: float64(h.Overlap), Method: "josie-join", Column: h.Set.Column}
		}
	}
	return rankResults(best, k), nil
}

// SyntacticUnion is the unionability baseline (Nargesian et al. style):
// every query column is matched to its best lake column by token Jaccard,
// and the table scores the average best match. It ignores semantics — the
// X4 experiment contrasts it with SANTOS.
type SyntacticUnion struct{}

// Name implements Discoverer.
func (SyntacticUnion) Name() string { return "syntactic-union" }

// Discover implements Discoverer.
func (SyntacticUnion) Discover(ctx context.Context, l *lake.Lake, q *table.Table, queryCol, k int) ([]Result, error) {
	if q.NumCols() == 0 {
		return nil, fmt.Errorf("discovery: syntactic-union: query table %q has no columns", q.Name)
	}
	qdoms := make([][]string, q.NumCols())
	for c := 0; c < q.NumCols(); c++ {
		qdoms[c], _ = lake.QueryDomain(q, c)
	}
	// Index lake domains per table.
	perTable := make(map[string][][]string)
	for _, d := range l.Domains() {
		perTable[d.Table] = append(perTable[d.Table], d.Values)
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
		total, counted := 0.0, 0
		for _, qd := range qdoms {
			if len(qd) == 0 {
				continue
			}
			counted++
			bestSim := 0.0
			for _, ld := range doms {
				if s := jaccard(qd, ld); s > bestSim {
					bestSim = s
				}
			}
			total += bestSim
		}
		if counted == 0 || total == 0 {
			continue
		}
		best[name] = Result{Table: t, Score: total / float64(counted), Method: "syntactic-union", Column: -1}
	}
	return rankResults(best, k), nil
}

// SimilarityFunc is the paper's Fig. 4 extension point: a user implements
// a similarity between two tables, and DIALITE turns it into a discoverer
// by scanning the lake.
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
	out := make([]Result, 0, len(best))
	for _, r := range best {
		out = append(out, r)
	}
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

// jaccard is tokenize.Jaccard inlined over value sets (both already
// normalized/deduplicated).
func jaccard(a, b []string) float64 {
	as := make(map[string]bool, len(a))
	for _, x := range a {
		as[x] = true
	}
	inter := 0
	bs := make(map[string]bool, len(b))
	for _, x := range b {
		if !bs[x] {
			bs[x] = true
			if as[x] {
				inter++
			}
		}
	}
	union := len(as) + len(bs) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
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
