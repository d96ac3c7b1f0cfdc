// Package integrate provides DIALITE's extensible integration-operator
// framework (paper §2.2, §3.2). ALITE's Full Disjunction is the default
// operator; users can register alternatives — the demo registers the
// standard full outer join (Fig. 6) to contrast against FD (Fig. 8) — and
// every operator runs over the same aligned representation produced by
// holistic schema matching, so operators are comparable apples-to-apples.
package integrate

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/alite"
	"repro/internal/fd"
	"repro/internal/schemamatch"
	"repro/internal/table"
)

// RowIDFunc names source rows for provenance (the paper's t1..t16).
type RowIDFunc = alite.RowIDFunc

// AlignedSet is one source table projected onto the integration schema:
// padded tuples plus the set of schema positions the table actually covers
// (needed by join operators to determine natural-join attributes).
type AlignedSet struct {
	Name      string
	Positions []int
	Tuples    []fd.Tuple
}

// Prepare aligns an integration set with the given matcher and builds the
// per-table aligned sets all operators consume. A nil matcher uses the
// holistic matcher without a knowledge base.
func Prepare(tables []*table.Table, matcher schemamatch.Matcher, rowIDs RowIDFunc) ([]string, []AlignedSet, error) {
	if len(tables) == 0 {
		return nil, nil, fmt.Errorf("integrate: empty integration set")
	}
	if matcher == nil {
		matcher = schemamatch.Holistic{}
	}
	align, err := matcher.Align(tables)
	if err != nil {
		return nil, nil, fmt.Errorf("integrate: align: %w", err)
	}
	sets := make([]AlignedSet, 0, len(tables))
	for ti, t := range tables {
		rel, err := alite.Relation(ti, t, align, rowIDs)
		if err != nil {
			return nil, nil, fmt.Errorf("integrate: %w", err)
		}
		in, err := fd.OuterUnion(align.Schema, []fd.Relation{rel})
		if err != nil {
			return nil, nil, fmt.Errorf("integrate: pad %q: %w", t.Name, err)
		}
		positions := append([]int(nil), rel.ColPos...)
		sort.Ints(positions)
		sets = append(sets, AlignedSet{Name: t.Name, Positions: positions, Tuples: in.Tuples})
	}
	return align.Schema, sets, nil
}

// Operator is a pluggable integration method over aligned sets. The sets
// are built for one call (Prepare copies the cells of the integrated
// tables into them), so Run may read them freely. The tables themselves
// are lake tables and the run's shared query table: an operator that
// reaches them through state of its own must not write to them.
type Operator interface {
	// Name is the registry key ("alite-fd", "outer-join", ...).
	Name() string
	// Run integrates the aligned sets into one tuple set over schema. Run
	// observes ctx cooperatively: once the context is cancelled it returns
	// (nil, ctx.Err()) promptly instead of finishing the integration; with
	// an uncancelled ctx the output is identical to running without one.
	Run(ctx context.Context, schema []string, sets []AlignedSet) ([]fd.Tuple, error)
}

// OperatorError is an operator fault Apply contains: a panic in Run, or a
// tuple whose width is not the schema's. It is a server-side fault in a
// (usually user-registered) operator, not the caller's error; the serving
// layer matches it with errors.As to answer 500.
type OperatorError struct {
	// Operator names the faulty operator.
	Operator string
	// Fault says what it did.
	Fault string
}

func (e *OperatorError) Error() string {
	return fmt.Sprintf("integrate: operator %q %s", e.Operator, e.Fault)
}

// Apply aligns the tables, runs the operator, and renders the integrated
// table named "<op>(T1,T2,...)". It is the one-call path the CLI, the
// serving layer and the examples use; ctx cancellation aborts the operator
// mid-integration with ctx.Err(). An operator that panics or returns a
// tuple of the wrong width fails with an *OperatorError.
func Apply(ctx context.Context, op Operator, tables []*table.Table, matcher schemamatch.Matcher, rowIDs RowIDFunc, withProvenance bool) (*table.Table, []fd.Tuple, error) {
	schema, sets, err := Prepare(tables, matcher, rowIDs)
	if err != nil {
		return nil, nil, err
	}
	tuples, err := run(ctx, op, schema, sets)
	if err != nil {
		return nil, nil, err
	}
	names := make([]string, len(tables))
	for i, t := range tables {
		names[i] = t.Name
	}
	out := fd.ToTable(fmt.Sprintf("%s(%s)", op.Name(), strings.Join(names, ",")), schema, tuples, withProvenance)
	return out, tuples, nil
}

// run calls op.Run, containing its faults as an *OperatorError.
func run(ctx context.Context, op Operator, schema []string, sets []AlignedSet) (tuples []fd.Tuple, err error) {
	defer func() {
		if r := recover(); r != nil {
			tuples, err = nil, &OperatorError{Operator: op.Name(), Fault: fmt.Sprintf("panicked: %v", r)}
		}
	}()
	tuples, err = op.Run(ctx, schema, sets)
	if err != nil {
		return nil, fmt.Errorf("integrate: operator %q: %w", op.Name(), err)
	}
	for i, t := range tuples {
		if len(t.Values) != len(schema) {
			return nil, &OperatorError{Operator: op.Name(), Fault: fmt.Sprintf("returned tuple %d with %d values for %d columns", i, len(t.Values), len(schema))}
		}
	}
	return tuples, nil
}

// ALITEFD is the default operator: ALITE's Full Disjunction.
type ALITEFD struct {
	// Dict optionally shares a value dictionary with the FD closure. Nil,
	// which the pipeline always passes, interns each call into a private
	// dictionary, so requests never grow the lake's (see fd.Input.Dict).
	Dict *table.Dict
}

// Name implements Operator.
func (ALITEFD) Name() string { return "alite-fd" }

// Run implements Operator. Cancellation reaches the FD closure itself: the
// complementation rounds poll ctx (fd.ALITECtx).
func (o ALITEFD) Run(ctx context.Context, schema []string, sets []AlignedSet) ([]fd.Tuple, error) {
	in := fd.Input{Schema: schema, Dict: o.Dict}
	for _, s := range sets {
		in.Tuples = append(in.Tuples, s.Tuples...)
	}
	return fd.ALITECtx(ctx, in)
}

// FullOuterJoin is the paper's comparison operator (Fig. 6): a left-deep
// chain of binary natural full outer joins over the integration IDs, in
// input order. Unlike FD it is order-dependent and misses derivable facts
// (Fig. 8(a) vs 8(b)); DIALITE includes it so users can see the
// difference.
type FullOuterJoin struct{}

// Name implements Operator.
func (FullOuterJoin) Name() string { return "outer-join" }

// Run implements Operator.
func (FullOuterJoin) Run(ctx context.Context, schema []string, sets []AlignedSet) ([]fd.Tuple, error) {
	return foldJoin(ctx, schema, sets, true)
}

// InnerJoin chains binary natural inner joins in input order; rows without
// partners are dropped. Included as the restrictive end of the operator
// spectrum (Auctus-style pairwise integration).
type InnerJoin struct{}

// Name implements Operator.
func (InnerJoin) Name() string { return "inner-join" }

// Run implements Operator.
func (InnerJoin) Run(ctx context.Context, schema []string, sets []AlignedSet) ([]fd.Tuple, error) {
	return foldJoin(ctx, schema, sets, false)
}

// Union is the plain outer union: all padded tuples, deduplicated. It is
// the weakest integration — no tuples are ever connected.
type Union struct{}

// Name implements Operator.
func (Union) Name() string { return "union" }

// Run implements Operator.
func (Union) Run(ctx context.Context, schema []string, sets []AlignedSet) ([]fd.Tuple, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var all []fd.Tuple
	for _, s := range sets {
		all = append(all, s.Tuples...)
	}
	return fd.DedupeTuples(all), nil
}

// foldJoin implements the left-deep natural join chain. outer selects full
// outer join (unmatched rows survive padded) versus inner join.
//
// Join semantics with nulls follow SQL: the join attributes are the schema
// positions covered by both sides; a pair matches only when every join
// attribute is non-null and equal on both sides. When the sides share no
// positions, the natural join degenerates to a cross product.
func foldJoin(ctx context.Context, schema []string, sets []AlignedSet, outer bool) ([]fd.Tuple, error) {
	if len(sets) == 0 {
		return nil, nil
	}
	done := ctx.Done()
	cur := append([]fd.Tuple(nil), sets[0].Tuples...)
	curPos := append([]int(nil), sets[0].Positions...)
	for _, next := range sets[1:] {
		shared := intersect(curPos, next.Positions)
		var out []fd.Tuple
		matchedRight := make([]bool, len(next.Tuples))
		for ai, a := range cur {
			// The pairwise scan is the quadratic part of the chain; one
			// checkpoint per left tuple bounds cancellation latency by a
			// single O(|next|) inner scan.
			if done != nil && ai%64 == 0 {
				select {
				case <-done:
					return nil, ctx.Err()
				default:
				}
			}
			matched := false
			for bi, b := range next.Tuples {
				if joinMatch(a.Values, b.Values, shared) {
					out = append(out, fd.Merge(a, b))
					matched = true
					matchedRight[bi] = true
				}
			}
			if !matched && outer {
				out = append(out, a)
			}
		}
		if outer {
			for bi, b := range next.Tuples {
				if !matchedRight[bi] {
					out = append(out, b)
				}
			}
		}
		cur = fd.DedupeTuples(out)
		curPos = union(curPos, next.Positions)
	}
	sorted := append([]fd.Tuple(nil), cur...)
	sortTuplesCanonical(sorted)
	return sorted, nil
}

// joinMatch reports whether every shared position is non-null and equal on
// both sides. An empty shared set matches everything (cross product).
func joinMatch(a, b []table.Value, shared []int) bool {
	for _, p := range shared {
		if a[p].IsNull() || b[p].IsNull() || !a[p].Equal(b[p]) {
			return false
		}
	}
	return true
}

func intersect(a, b []int) []int {
	in := make(map[int]bool, len(a))
	for _, x := range a {
		in[x] = true
	}
	var out []int
	for _, y := range b {
		if in[y] {
			out = append(out, y)
		}
	}
	sort.Ints(out)
	return out
}

func union(a, b []int) []int {
	in := make(map[int]bool, len(a)+len(b))
	var out []int
	for _, x := range append(append([]int(nil), a...), b...) {
		if !in[x] {
			in[x] = true
			out = append(out, x)
		}
	}
	sort.Ints(out)
	return out
}

func sortTuplesCanonical(tuples []fd.Tuple) {
	sort.SliceStable(tuples, func(i, j int) bool {
		return table.CompareRows(tuples[i].Values, tuples[j].Values) < 0
	})
}
