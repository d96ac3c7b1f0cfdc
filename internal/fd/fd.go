// Package fd implements Full Disjunction (FD), the integration operator at
// the heart of ALITE and therefore of DIALITE. FD assembles partial facts
// from many tables into maximally-connected integrated tuples
// (Galindo-Legaria 1994; Rajaraman & Ullman 1996): over tables aligned to a
// single integration schema, the FD is the set of subsumption-maximal
// tuples obtainable by merging join-consistent, connected sets of source
// tuples, where nulls never join and never conflict.
//
// Two algorithms are provided:
//
//   - ALITE: the complementation-closure algorithm of the ALITE paper
//     (Khatiwada et al., VLDB 2022) over the outer union of the inputs,
//     with a (position,value) inverted index generating candidate pairs.
//   - Naive: exact enumeration of connected, consistent tuple subsets —
//     exponential, used as the ground truth in tests and as the baseline
//     in the X2 scaling experiment.
//
// Both agree on output values; tests assert it, including by property
// testing. Provenance follows the paper's figures: every output tuple
// carries the set of source-tuple IDs it was assembled from, and a tuple
// whose values coincide with a plain source tuple keeps that tuple's
// minimal provenance (Fig. 8(b)'s f12 is {t16}, not {t12,t16}).
package fd

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"repro/internal/table"
)

// Tuple is one integrated tuple: values over the integration schema plus
// the sorted set of source tuple IDs that produced it.
type Tuple struct {
	Values []table.Value
	Prov   []string
}

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	return Tuple{
		Values: append([]table.Value(nil), t.Values...),
		Prov:   append([]string(nil), t.Prov...),
	}
}

// Key returns the canonical value key of the tuple (provenance excluded;
// both null kinds collide, matching subsumption semantics).
func (t Tuple) Key() string { return table.RowKey(t.Values) }

// Input is a set of tuples aligned to one integration schema, typically
// produced by OuterUnion.
type Input struct {
	Schema []string
	Tuples []Tuple
	// Dict optionally supplies a shared value dictionary, which the
	// closure interns every input cell into. Nil means each FD computation
	// interns into a private dictionary, as the pipeline's requests do. The
	// FD output is identical either way.
	Dict *table.Dict
}

// Relation maps one source table onto the integration schema.
type Relation struct {
	// Table is the source table.
	Table *table.Table
	// ColPos maps each source column index to its position in the
	// integration schema. len(ColPos) == Table.NumCols(). Two source
	// columns of one table must not map to the same position.
	ColPos []int
	// RowIDs optionally names each row for provenance (the paper's
	// t1..t16). When nil, IDs default to "<table>:<row>".
	RowIDs []string
}

// OuterUnion pads every source row onto the integration schema: positions
// not covered by the source table become produced nulls (⊥), and source
// cells (including missing nulls ±) are copied through. This is the outer
// union the ALITE algorithm closes over.
func OuterUnion(schema []string, rels []Relation) (Input, error) {
	in := Input{Schema: append([]string(nil), schema...)}
	rows := 0
	for _, rel := range rels {
		if rel.Table != nil {
			rows += rel.Table.NumRows()
		}
	}
	if rows > 0 {
		in.Tuples = make([]Tuple, 0, rows)
	}
	for ri, rel := range rels {
		t := rel.Table
		if t == nil {
			return Input{}, fmt.Errorf("fd: relation %d has nil table", ri)
		}
		if len(rel.ColPos) != t.NumCols() {
			return Input{}, fmt.Errorf("fd: relation %q: ColPos has %d entries for %d columns", t.Name, len(rel.ColPos), t.NumCols())
		}
		seen := make(map[int]bool)
		for c, p := range rel.ColPos {
			if p < 0 || p >= len(schema) {
				return Input{}, fmt.Errorf("fd: relation %q: column %d maps to position %d outside schema of size %d", t.Name, c, p, len(schema))
			}
			if seen[p] {
				return Input{}, fmt.Errorf("fd: relation %q: two columns map to schema position %d", t.Name, p)
			}
			seen[p] = true
		}
		if rel.RowIDs != nil && len(rel.RowIDs) != t.NumRows() {
			return Input{}, fmt.Errorf("fd: relation %q: %d row IDs for %d rows", t.Name, len(rel.RowIDs), t.NumRows())
		}
		// Every tuple of the relation is cut from one backing array of
		// values and one of provenance, as three-index slices; default row
		// IDs are substrings of one string.
		w := len(schema)
		cells := make([]table.Value, t.NumRows()*w)
		provs := slices.Clone(rel.RowIDs)
		if provs == nil {
			provs = defaultRowIDs(t.Name, t.NumRows())
		}
		for r, row := range t.Rows {
			vals := cells[r*w : (r+1)*w : (r+1)*w]
			for i := range vals {
				vals[i] = table.ProducedNull()
			}
			for c, p := range rel.ColPos {
				vals[p] = row[c]
			}
			in.Tuples = append(in.Tuples, Tuple{Values: vals, Prov: provs[r : r+1 : r+1]})
		}
	}
	return in, nil
}

// defaultRowIDs returns "<name>:<row>" for rows 0..n-1, cut from one
// string.
func defaultRowIDs(name string, n int) []string {
	var b []byte
	ends := make([]int, n)
	for r := range ends {
		b = strconv.AppendInt(append(append(b, name...), ':'), int64(r), 10)
		ends[r] = len(b)
	}
	all, ids, start := string(b), make([]string, n), 0
	for r, end := range ends {
		ids[r], start = all[start:end], end
	}
	return ids
}

// Complementable reports whether two aligned tuples can merge: they share
// at least one position where both are non-null and equal, and no position
// where both are non-null and unequal. Nulls (either kind) neither join nor
// conflict.
func Complementable(a, b []table.Value) bool {
	shares := false
	for i := range a {
		if a[i].IsNull() || b[i].IsNull() {
			continue
		}
		if a[i].Equal(b[i]) {
			shares = true
		} else {
			return false
		}
	}
	return shares
}

// Merge combines two complementable tuples position-wise: the non-null
// side wins; when both sides are null, a missing null (±) survives over a
// produced null (⊥), since it reflects source data rather than padding.
func Merge(a, b Tuple) Tuple {
	vals := make([]table.Value, len(a.Values))
	for i := range vals {
		av, bv := a.Values[i], b.Values[i]
		switch {
		case !av.IsNull():
			vals[i] = av
		case !bv.IsNull():
			vals[i] = bv
		case av.Kind() == table.Null || bv.Kind() == table.Null:
			vals[i] = table.NullValue()
		default:
			vals[i] = table.ProducedNull()
		}
	}
	return Tuple{Values: vals, Prov: unionSorted(a.Prov, b.Prov)}
}

// Subsumes reports whether sup subsumes sub: everywhere sub is non-null,
// sup holds an equal value. Value-identical tuples subsume each other;
// callers needing strictness compare keys.
func Subsumes(sup, sub []table.Value) bool {
	for i := range sub {
		if sub[i].IsNull() {
			continue
		}
		if sup[i].IsNull() || !sup[i].Equal(sub[i]) {
			return false
		}
	}
	return true
}

// unionSorted merges two sorted sets — provenance TIDs or provenance IDs —
// with a linear sorted-merge.
func unionSorted[T cmp.Ordered](a, b []T) []T {
	out := make([]T, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// DedupeTuples removes value-duplicate tuples (equal Tuple.Key), keeping
// the first occurrence and its provenance. Inputs are processed in order,
// so source tuples added before merged tuples always win, matching the
// paper's provenance.
func DedupeTuples(tuples []Tuple) []Tuple {
	seen := make(map[string]bool, len(tuples))
	out := make([]Tuple, 0, len(tuples))
	for _, t := range tuples {
		k := t.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, t)
	}
	return out
}

// sortTuples orders tuples canonically by values, then provenance, stably.
// It sorts a permutation of indices, whose ties break by index so the
// order is exactly the stable one, then moves each tuple once along the
// permutation's cycles: a stable in-place merge would rotate the pointerful
// tuples many times, each move paying write barriers while GC marks.
func sortTuples(tuples []Tuple) {
	perm := make([]int32, len(tuples))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(i, j int32) int {
		a, b := &tuples[i], &tuples[j]
		if c := table.CompareRows(a.Values, b.Values); c != 0 {
			return c
		}
		// The comma-joined form is the order, not slices.Compare: ["a!"]
		// sorts before ["a", "b"] here ('!' < ','), after it there.
		if c := strings.Compare(strings.Join(a.Prov, ","), strings.Join(b.Prov, ",")); c != 0 {
			return c
		}
		return cmp.Compare(i, j)
	})
	// perm[k] is the index of the tuple that belongs at k; -1 marks a slot
	// already filled.
	for start := range perm {
		if perm[start] < 0 {
			continue
		}
		held := tuples[start]
		k := int32(start)
		for perm[k] != int32(start) {
			src := perm[k]
			tuples[k], perm[k] = tuples[src], -1
			k = src
		}
		tuples[k], perm[k] = held, -1
	}
}

// ToTable renders tuples as a table over the integration schema. When
// withProvenance is true, a leading "TIDs" column carries each tuple's
// provenance set rendered as {id1, id2, ...}, like the figures in the
// paper.
func ToTable(name string, schema []string, tuples []Tuple, withProvenance bool) *table.Table {
	cols := schema
	if withProvenance {
		cols = append([]string{"TIDs"}, schema...)
	}
	out := table.New(name, cols...)
	if len(tuples) == 0 {
		return out
	}
	// The rows are cut from one backing array, as three-index slices.
	w := len(cols)
	cells := make([]table.Value, len(tuples)*w)
	out.Rows = make([][]table.Value, len(tuples))
	for i, t := range tuples {
		row := cells[i*w : i*w : (i+1)*w]
		if withProvenance {
			row = append(row, table.StringValue("{"+strings.Join(t.Prov, ", ")+"}"))
		}
		out.Rows[i] = append(row, t.Values...)
	}
	return out
}
