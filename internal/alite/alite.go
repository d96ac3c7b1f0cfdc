// Package alite is the seam between ALITE's two halves — holistic schema
// matching (package schemamatch) and Full Disjunction (package fd;
// Khatiwada et al., VLDB 2022): once columns have integration IDs, it
// projects each table onto the integration schema and outer-unions them
// into the FD's input, attaching provenance row IDs. The integration stage
// itself — matcher, operator, rendering — is integrate.Apply, which builds
// its per-table aligned sets from Relation; BuildInput is the all-at-once
// form the experiments and the benchmark hand to package fd directly.
package alite

import (
	"fmt"

	"repro/internal/fd"
	"repro/internal/schemamatch"
	"repro/internal/table"
)

// RowIDFunc names source rows for provenance. The paper's figures use
// global IDs t1..t16; the default is "<table>:<row>".
type RowIDFunc func(tableName string, row int) string

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
