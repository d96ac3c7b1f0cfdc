// Package alite ties together ALITE's two halves — holistic schema
// matching (package schemamatch) and Full Disjunction (package fd) — into
// the integration system DIALITE applies to a discovered integration set
// (Khatiwada et al., VLDB 2022): columns get integration IDs, the tables
// are outer-unioned onto the integration schema, and the FD produces the
// integrated table with maximally-connected tuples and provenance.
package alite

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/fd"
	"repro/internal/kb"
	"repro/internal/schemamatch"
	"repro/internal/table"
)

// RowIDFunc names source rows for provenance. The paper's figures use
// global IDs t1..t16; the default is "<table>:<row>".
type RowIDFunc func(tableName string, row int) string

// Options configures Integrate.
type Options struct {
	// Matcher aligns the integration set; nil uses the holistic matcher
	// with Knowledge.
	Matcher schemamatch.Matcher
	// Knowledge feeds semantic features to the default matcher; ignored
	// when Matcher is set.
	Knowledge *kb.KB
	// Workers > 0 computes the FD with the parallel algorithm.
	Workers int
	// RowIDs names source rows for provenance; nil uses the default.
	RowIDs RowIDFunc
	// WithProvenance adds the figures' TIDs column to the rendered table.
	WithProvenance bool
	// Dict optionally shares a value dictionary (usually the lake's) with
	// the FD closure, so cell interning is reused across integrations.
	Dict *table.Dict
}

// Result is an integrated table plus the intermediate artifacts a DIALITE
// user can inspect after the align-and-integrate stage.
type Result struct {
	// Table is the integrated table (with a TIDs column when requested).
	Table *table.Table
	// Schema holds the integration IDs.
	Schema []string
	// Tuples are the FD output tuples with provenance.
	Tuples []fd.Tuple
	// Alignment is the column-to-integration-ID assignment used.
	Alignment schemamatch.Alignment
}

// Integrate aligns and integrates an integration set with ALITE.
// Cancelling ctx aborts the Full Disjunction mid-closure with ctx.Err();
// an uncancelled call is byte-identical to running without a context.
func Integrate(ctx context.Context, tables []*table.Table, opts Options) (*Result, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("alite: empty integration set")
	}
	matcher := opts.Matcher
	if matcher == nil {
		matcher = schemamatch.Holistic{Knowledge: opts.Knowledge}
	}
	align, err := matcher.Align(tables)
	if err != nil {
		return nil, fmt.Errorf("alite: align: %w", err)
	}
	in, err := BuildInput(tables, align, opts.RowIDs)
	if err != nil {
		return nil, err
	}
	in.Dict = opts.Dict
	var tuples []fd.Tuple
	if opts.Workers > 0 {
		tuples, err = fd.ParallelCtx(ctx, in, opts.Workers)
	} else {
		tuples, err = fd.ALITECtx(ctx, in)
	}
	if err != nil {
		return nil, err
	}
	name := integratedName(tables)
	return &Result{
		Table:     fd.ToTable(name, in.Schema, tuples, opts.WithProvenance),
		Schema:    in.Schema,
		Tuples:    tuples,
		Alignment: align,
	}, nil
}

// BuildInput outer-unions the tables onto the alignment's integration
// schema, attaching provenance row IDs.
func BuildInput(tables []*table.Table, align schemamatch.Alignment, rowIDs RowIDFunc) (fd.Input, error) {
	rels := make([]fd.Relation, len(tables))
	for ti, t := range tables {
		rel, err := Relation(ti, t, align, rowIDs)
		if err != nil {
			return fd.Input{}, fmt.Errorf("alite: %w", err)
		}
		rels[ti] = rel
	}
	in, err := fd.OuterUnion(align.Schema, rels)
	if err != nil {
		return fd.Input{}, fmt.Errorf("alite: outer union: %w", err)
	}
	return in, nil
}

// Relation projects table ti of an aligned integration set onto the
// integration schema: each column's schema position plus, when rowIDs is
// set, the provenance ID of every row. It is the per-table input both
// BuildInput's outer union and integrate.Prepare's aligned sets start from.
func Relation(ti int, t *table.Table, align schemamatch.Alignment, rowIDs RowIDFunc) (fd.Relation, error) {
	colPos := make([]int, t.NumCols())
	for c := range colPos {
		p, ok := align.PositionOf(ti, c)
		if !ok {
			return fd.Relation{}, fmt.Errorf("alignment misses column %d of table %q", c, t.Name)
		}
		colPos[c] = p
	}
	rel := fd.Relation{Table: t, ColPos: colPos}
	if rowIDs != nil {
		rel.RowIDs = make([]string, t.NumRows())
		for r := range rel.RowIDs {
			rel.RowIDs[r] = rowIDs(t.Name, r)
		}
	}
	return rel, nil
}

// integratedName renders "FD(T1,T2,T3)" like the paper's figures.
func integratedName(tables []*table.Table) string {
	name := "FD("
	for i, t := range tables {
		if i > 0 {
			name += ","
		}
		if t.Name != "" {
			name += t.Name
		} else {
			name += "R" + strconv.Itoa(i+1)
		}
	}
	return name + ")"
}
