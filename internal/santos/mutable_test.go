package santos

import (
	"fmt"
	"testing"

	"repro/internal/kb"
	"repro/internal/paperdata"
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
