// Package santos implements relationship-based semantic table union search
// in the style of SANTOS (Khatiwada et al., SIGMOD 2023), the unionable
// discovery method DIALITE exposes. A table is unionable with the query
// when it describes the same *kind* of entities (column semantic types
// agree) related in the same *way* (column-pair relationship semantics
// agree), anchored at a user-chosen intent column.
//
// Semantics come from a knowledge base (see package kb): the curated demo
// KB plays the role SANTOS assigns to YAGO, and a KB synthesized from the
// lake itself covers domains without curated entries. The two are merged by
// the caller (kb.Merge) or used individually.
//
// Annotation runs on the compiled KB (kb.Compile): cell values resolve to
// integer annotation codes through the index's kb.Annotator — a cache keyed
// by rendered value, shared by every index derived from one Build, so each
// distinct lake rendering is canonicalized once — and column/pair votes run
// over dense type and label IDs with pooled scratch, never re-walking the
// type hierarchy or building string keys per row pair.
//
// An Index never changes once built. A lake mutation derives the next one
// (Index.With) and publishes it, so a query keeps the index it started on
// and takes no lock.
package santos

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/kb"
	"repro/internal/par"
	"repro/internal/table"
)

// edgeIn is the direction bit of a packed edge key: set for edges arriving
// at the column, clear for edges leaving it.
const edgeIn = uint64(1) << 63

// edgeKeyID packs one relationship incident to a column, direction-
// normalized — the far endpoint is identified by its semantic type only
// (column positions are meaningless across lake tables). Layout: bit 63 is
// the direction, bits 62..32 the compiled label ID, bits 31..0 the other
// endpoint's compiled type ID (kb.Compile guards both below 2^31). Distinct
// (direction, label, type) triples always pack to distinct keys — unlike
// the string form "out:<label>:<type>", which could collide on labels
// containing the delimiter — and compiled IDs are deterministic, so keys
// are stable across runs.
func edgeKeyID(in bool, label, otherType uint32) uint64 {
	k := uint64(label)<<32 | uint64(otherType)
	if in {
		k |= edgeIn
	}
	return k
}

// columnSemantics is the annotation of one column of one table. edges is
// the column's incident relationship set as sorted, deduplicated packed
// keys.
type columnSemantics struct {
	col    int
	ann    kb.ColumnAnnotation
	typeID uint32
	edges  []uint64
}

// tableSemantics is the semantic graph of one table.
type tableSemantics struct {
	t    *table.Table
	cols []columnSemantics
}

// Index is a SANTOS index over a data lake: every table's semantic graph,
// precomputed offline as the demo's preprocessing step. An Index is
// immutable once built: a mutation derives the next index by With, which
// shares the kept graphs and leaves the receiver answering as it did, so
// queries take no lock. Every index derived from one Build annotates
// against the KB snapshot compiled at that build, through one shared root
// annotator and scratch pool.
type Index struct {
	ann     *kb.Annotator
	scratch *sync.Pool // *kb.Scratch
	tables  []tableSemantics
}

// Build annotates every lake table against the knowledge base (nil means
// an empty KB) through a root annotation cache that every index derived
// from this one shares: With annotates through it, and queries through a
// QueryScope of it. Tables without any annotated column are indexed but can
// never match. Build is With over an empty index.
//
// The index snapshots the KB as compiled at build time: queries and the
// indexed semantic graphs always share one KB state. Compiling freezes the
// KB (see kb.KB); rebuild to annotate against a different one.
func Build(lakeTables []*table.Table, knowledge *kb.KB) *Index {
	if knowledge == nil {
		knowledge = kb.New()
	}
	ann := kb.NewAnnotator(knowledge.Compiled())
	empty := &Index{ann: ann, scratch: &sync.Pool{New: func() any { return ann.Compiled().NewScratch() }}}
	return empty.With(lakeTables, nil)
}

// NumTables reports how many tables are indexed.
func (ix *Index) NumTables() int { return len(ix.tables) }

// With derives the index over the receiver's tables minus the removed
// names (unknown names are ignored) plus the added tables, appended in
// order. The kept graphs are shared, not recomputed; the added tables are
// annotated against the build-time KB snapshot through the shared root
// annotator. Annotation is per-table pure work over the immutable compiled
// KB, so added tables are annotated in parallel; slot-indexed results keep
// the index order — and therefore query results — identical to a
// sequential build. Callers are responsible for name uniqueness. The
// receiver is left unchanged and stays safe to query.
func (ix *Index) With(added []*table.Table, removed []string) *Index {
	doomed := make(map[string]bool, len(removed))
	for _, n := range removed {
		doomed[n] = true
	}
	next := &Index{ann: ix.ann, scratch: ix.scratch, tables: make([]tableSemantics, 0, len(ix.tables)+len(added))}
	for _, ts := range ix.tables {
		if !doomed[ts.t.Name] {
			next.tables = append(next.tables, ts)
		}
	}
	base := len(next.tables)
	next.tables = next.tables[:base+len(added)]
	par.For(len(added), func(i int) {
		s := ix.scratch.Get().(*kb.Scratch)
		next.tables[base+i] = annotate(added[i], ix.ann, s)
		ix.scratch.Put(s)
	})
	return next
}

// annotate computes the semantic graph of a table over annotation codes.
func annotate(t *table.Table, ann *kb.Annotator, s *kb.Scratch) tableSemantics {
	ck := ann.Compiled()
	ts := tableSemantics{t: t}
	nc := t.NumCols()
	anns := make([]kb.ColumnAnnotation, nc)
	typeIDs := make([]uint32, nc)
	rowCodes := make([][]uint32, nc)
	for c := 0; c < nc; c++ {
		cc := ann.ColumnCodes(t, c, s)
		if cc.Rows == nil {
			continue // not mostly textual: no entity semantics
		}
		rowCodes[c] = cc.Rows
		anns[c], typeIDs[c] = ck.AnnotateColumnCodes(cc.Distinct, s)
	}
	edgesByCol := make(map[int][]uint64)
	for a := 0; a < nc; a++ {
		if rowCodes[a] == nil || anns[a].Type == "" {
			continue
		}
		for b := a + 1; b < nc; b++ {
			if rowCodes[b] == nil || anns[b].Type == "" {
				continue
			}
			pa, labelID := ck.AnnotatePairCodes(rowCodes[a], rowCodes[b], s)
			if pa.Label == "" {
				continue
			}
			// Normalize direction: with Inverse=false the relation runs
			// a -> b; with Inverse=true it runs b -> a.
			from, to := a, b
			if pa.Inverse {
				from, to = b, a
			}
			edgesByCol[from] = append(edgesByCol[from], edgeKeyID(false, labelID, typeIDs[to]))
			edgesByCol[to] = append(edgesByCol[to], edgeKeyID(true, labelID, typeIDs[from]))
		}
	}
	for c := 0; c < nc; c++ {
		if anns[c].Type == "" {
			continue
		}
		ts.cols = append(ts.cols, columnSemantics{
			col:    c,
			ann:    anns[c],
			typeID: typeIDs[c],
			edges:  sortedUnique(edgesByCol[c]),
		})
	}
	return ts
}

// sortedUnique sorts keys ascending and removes duplicates in place,
// turning an edge list into the canonical set form edgeJaccard merges.
func sortedUnique(keys []uint64) []uint64 {
	if len(keys) < 2 {
		return keys
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
	out := keys[:1]
	for _, k := range keys[1:] {
		if k != out[len(out)-1] {
			out = append(out, k)
		}
	}
	return out
}

// supertypeDecay is the type-match score multiplier per hierarchy hop when
// the query and candidate column types differ but one subsumes the other.
const supertypeDecay = 0.5

// typeMatchScoreID scores how well candidate type ct matches query type qt
// over compiled type IDs. It equals the string-hierarchy walk the tests
// keep as typeMatchScore (type IDs are unique per type name, and compiled
// ancestor chains replicate the string walk).
func typeMatchScoreID(ck *kb.Compiled, qt, ct uint32) float64 {
	if qt == ct {
		return 1
	}
	w := 1.0
	for _, anc := range ck.AncestorIDs(ct) {
		w *= supertypeDecay
		if anc == qt {
			return w
		}
	}
	w = 1.0
	for _, anc := range ck.AncestorIDs(qt) {
		w *= supertypeDecay
		if anc == ct {
			return w
		}
	}
	return 0
}

// edgeJaccard computes the Jaccard similarity of two edge-key sets, both
// already in canonical sorted-unique form, with an allocation-free linear
// merge.
func edgeJaccard(a, b []uint64) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			inter++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// Result is one ranked unionable table.
type Result struct {
	Table *table.Table
	Score float64
	// MatchedColumn is the candidate column matched to the intent column.
	MatchedColumn int
}

// Query ranks lake tables by semantic unionability with the query table,
// anchored at intentCol (the demo's "intent column"). The score of a
// candidate column c against the query's intent column q is
//
//	conf(q)·conf(c)·typeMatch(q,c) · (1 + relationshipJaccard(q,c))
//
// and a table scores the maximum over its columns. Tables scoring zero
// (no type-compatible column) are omitted. k<=0 returns all matches.
//
// The query table is annotated through a QueryScope of the index's
// annotation cache: renderings the index has seen resolve to cached codes,
// while foreign query values are canonicalized per query and reclaimed, so
// query traffic never grows the index's cache.
func (ix *Index) Query(q *table.Table, intentCol int, k int) ([]Result, error) {
	return ix.QueryCtx(context.Background(), q, intentCol, k)
}

// scoreCancelStride bounds how many candidate tables are scored between two
// context checks in QueryCtx.
const scoreCancelStride = 64

// QueryCtx is Query with cooperative cancellation: the candidate scoring
// scan checks ctx every scoreCancelStride tables and returns
// (nil, ctx.Err()) once the context is cancelled. Uncancelled results are
// byte-identical to Query.
func (ix *Index) QueryCtx(ctx context.Context, q *table.Table, intentCol int, k int) ([]Result, error) {
	if intentCol < 0 || intentCol >= q.NumCols() {
		return nil, fmt.Errorf("santos: intent column %d out of range for table %q with %d columns", intentCol, q.Name, q.NumCols())
	}
	// Query values resolve through a per-query scope, which reads the
	// index's cache and never writes it.
	s := ix.scratch.Get().(*kb.Scratch)
	qs := annotate(q, ix.ann.QueryScope(), s)
	ix.scratch.Put(s)
	var qcs *columnSemantics
	for i := range qs.cols {
		if qs.cols[i].col == intentCol {
			qcs = &qs.cols[i]
		}
	}
	if qcs == nil {
		return nil, fmt.Errorf("santos: intent column %d of table %q has no semantic annotation (textual KB-covered column required)", intentCol, q.Name)
	}
	ck := ix.ann.Compiled()
	done := ctx.Done()
	var results []Result
	for i := range ix.tables {
		if done != nil && i%scoreCancelStride == 0 {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		cand := &ix.tables[i]
		if cand.t.Name == q.Name {
			continue // never return the query itself
		}
		best := 0.0
		bestCol := -1
		for j := range cand.cols {
			cc := &cand.cols[j]
			tm := typeMatchScoreID(ck, qcs.typeID, cc.typeID)
			if tm == 0 {
				continue
			}
			score := qcs.ann.Confidence * cc.ann.Confidence * tm * (1 + edgeJaccard(qcs.edges, cc.edges))
			if score > best {
				best = score
				bestCol = cc.col
			}
		}
		if best > 0 {
			results = append(results, Result{Table: cand.t, Score: best, MatchedColumn: bestCol})
		}
	}
	sort.Slice(results, func(a, b int) bool {
		if results[a].Score != results[b].Score {
			return results[a].Score > results[b].Score
		}
		return results[a].Table.Name < results[b].Table.Name
	})
	if k > 0 && len(results) > k {
		results = results[:k]
	}
	return results, nil
}
