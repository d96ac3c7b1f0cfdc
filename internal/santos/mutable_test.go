package santos

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/kb"
	"repro/internal/paperdata"
	"repro/internal/table"
)

func santosSig(rs []Result) string {
	s := ""
	for _, r := range rs {
		s += fmt.Sprintf("%s|%.12f|%d;", r.Table.Name, r.Score, r.MatchedColumn)
	}
	return s
}

// TestAddMatchesRebuild pins incremental annotation: building over two
// tables and adding a third must answer exactly like building over all
// three (the per-table graphs are independent; annotation runs against the
// same compiled KB snapshot).
func TestAddMatchesRebuild(t *testing.T) {
	all := append(paperdata.CovidLake(), paperdata.T1())
	grown := Build(all[:2], kb.Demo()).With(all[2:], nil)
	fresh := Build(all, kb.Demo())
	q := paperdata.T1()
	city, _ := q.ColumnIndex(paperdata.ColCity)
	got, err := grown.Query(q, city, 10)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Query(q, city, 10)
	if err != nil {
		t.Fatal(err)
	}
	if santosSig(got) != santosSig(want) {
		t.Errorf("incremental add diverged:\n got %s\nwant %s", santosSig(got), santosSig(want))
	}
	if grown.NumTables() != 3 {
		t.Errorf("NumTables = %d", grown.NumTables())
	}
}

func TestRemoveEvictsGraph(t *testing.T) {
	ix := demoIndex()
	next := ix.With(nil, []string{"T2", "absent"})
	q := paperdata.T1()
	city, _ := q.ColumnIndex(paperdata.ColCity)
	returns := func(ix *Index, name string) bool {
		got, err := ix.Query(q, city, 10)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range got {
			if r.Table.Name == name {
				return true
			}
		}
		return false
	}
	if returns(next, "T2") {
		t.Error("removed table still returned")
	}
	if next.NumTables() != 1 {
		t.Errorf("NumTables = %d, want 1", next.NumTables())
	}
	// The receiver is immutable: it still indexes and returns T2.
	if !returns(ix, "T2") {
		t.Error("With changed its receiver: T2 is no longer returned")
	}
	if ix.NumTables() != 2 {
		t.Errorf("receiver NumTables = %d, want 2", ix.NumTables())
	}
}

// TestRootAnnotatorStaysBounded churns a 20-row table of unique city
// strings in and out of the demo index for 100 rounds. The root annotator
// caches every rendering it annotates, so without a re-fill it would grow
// by the table's strings every round; with it, the root never holds more
// than twice the size of a fresh root over the tables of some generation.
// Every generation answers as a fresh Build over its tables does.
func TestRootAnnotatorStaysBounded(t *testing.T) {
	demo := paperdata.CovidLake()
	queries := []*table.Table{paperdata.T1()}
	answers := func(ix *Index) string {
		var b strings.Builder
		for _, q := range queries {
			rs, err := ix.Query(q, 0, 0)
			fmt.Fprintf(&b, "%v:", err)
			for _, r := range rs {
				fmt.Fprintf(&b, "%s|%x|%d;", r.Table.Name, math.Float64bits(r.Score), r.MatchedColumn)
			}
			b.WriteByte('\n')
		}
		return b.String()
	}
	check := func(ix *Index, tables []*table.Table, label string) {
		t.Helper()
		fresh := Build(tables, kb.Demo())
		if got, want := answers(ix), answers(fresh); got != want {
			t.Fatalf("%s: answers diverged from a fresh Build\n got %s\nwant %s", label, got, want)
		}
	}
	ix := Build(demo, kb.Demo())
	limit := 0
	for round := 0; round < 100; round++ {
		churn := table.New(fmt.Sprintf("churn%03d", round), paperdata.ColCity, paperdata.ColCountry)
		for i := 0; i < 20; i++ {
			churn.MustAddRow(table.StringValue(fmt.Sprintf("Newtown %d-%d", round, i)), table.StringValue("Germany"))
		}
		queries = []*table.Table{paperdata.T1(), churn}
		grown := append(slices.Clone(demo), churn)
		if round == 0 {
			raw, ext := Build(grown, kb.Demo()).ann.Size()
			limit = 2 * (raw + ext)
		}
		ix = ix.With([]*table.Table{churn}, nil)
		check(ix, grown, fmt.Sprintf("round %d add", round))
		ix = ix.With(nil, []string{churn.Name})
		check(ix, demo, fmt.Sprintf("round %d remove", round))
		if raw, ext := ix.ann.Size(); raw+ext > limit {
			t.Fatalf("round %d: root annotator holds raw %d + ext %d > %d", round, raw, ext, limit)
		}
	}
}
