package schemamatch

import (
	"testing"

	"repro/internal/kb"
	"repro/internal/paperdata"
	"repro/internal/table"
)

// fig2Truth is the ground-truth alignment of the paper's T1,T2,T3: columns
// with the same real-world attribute share a label.
func fig2Truth() Oracle {
	return Oracle{Label: func(name string, col int) string {
		switch name {
		case "T1", "T2":
			return []string{"country", "city", "rate"}[col]
		case "T3":
			return []string{"city", "cases", "death"}[col]
		}
		return ""
	}}
}

func TestHolisticAlignsFig2Tables(t *testing.T) {
	tables := []*table.Table{paperdata.T1(), paperdata.T2(), paperdata.T3()}
	got, err := Holistic{Knowledge: kb.Demo()}.Align(tables)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Schema) != 5 {
		t.Fatalf("schema = %v, want 5 integration IDs", got.Schema)
	}
	truth, err := fig2Truth().Align(tables)
	if err != nil {
		t.Fatal(err)
	}
	p, r, f1 := PairwiseScores(got, truth)
	if f1 != 1 {
		t.Errorf("holistic alignment p=%v r=%v f1=%v, want perfect on the demo tables\nschema: %v\npos: %v", p, r, f1, got.Schema, got.Pos)
	}
	// Schema order follows first occurrence: T1's columns first, then T3's
	// two new columns — exactly Fig. 3's column order.
	want := []string{paperdata.ColCountry, paperdata.ColCity, paperdata.ColVaccRate, paperdata.ColCases, paperdata.ColDeathRate}
	for i, s := range got.Schema {
		if s != want[i] {
			t.Errorf("schema[%d] = %q, want %q", i, s, want[i])
		}
	}
}

func TestHolisticWithoutHeaders(t *testing.T) {
	// Strip all headers: the matcher must still align the demo tables from
	// content+KB alone (the data-lake condition the paper stresses).
	tables := []*table.Table{paperdata.T1(), paperdata.T2(), paperdata.T3()}
	for _, tb := range tables {
		for c := range tb.Columns {
			tb.Columns[c] = ""
		}
	}
	got, err := Holistic{Knowledge: kb.Demo()}.Align(tables)
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := fig2Truth().Align(tables)
	_, _, f1 := PairwiseScores(got, truth)
	if f1 < 0.99 {
		t.Errorf("headerless alignment f1 = %v, want 1; schema %v", f1, got.Schema)
	}
	// Fallback names are generated for unnamed clusters.
	for _, s := range got.Schema {
		if s == "" {
			t.Error("integration IDs must never be empty")
		}
	}
}

func TestCannotLinkConstraint(t *testing.T) {
	// Two identical columns within one table must not co-cluster even
	// though their embeddings are identical.
	tb := table.New("twin", "a", "b")
	tb.MustAddRow(table.StringValue("x"), table.StringValue("x"))
	tb.MustAddRow(table.StringValue("y"), table.StringValue("y"))
	got, err := Holistic{}.Align([]*table.Table{tb})
	if err != nil {
		t.Fatal(err)
	}
	pa, _ := got.PositionOf(0, 0)
	pb, _ := got.PositionOf(0, 1)
	if pa == pb {
		t.Error("same-table columns co-clustered despite cannot-link")
	}
}

func TestHeaderMatcher(t *testing.T) {
	tables := []*table.Table{paperdata.T1(), paperdata.T2(), paperdata.T3()}
	got, err := HeaderMatcher{}.Align(tables)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Schema) != 5 {
		t.Fatalf("header matcher schema = %v", got.Schema)
	}
	truth, _ := fig2Truth().Align(tables)
	if _, _, f1 := PairwiseScores(got, truth); f1 != 1 {
		t.Errorf("header matcher must be perfect when headers are reliable, f1=%v", f1)
	}
	// Corrupt one header: the baseline breaks (this is experiment X5's
	// point), while content-based matching survives.
	tables2 := []*table.Table{paperdata.T1(), paperdata.T2(), paperdata.T3()}
	tables2[1].Columns[1] = "municipality"
	hdr, _ := HeaderMatcher{}.Align(tables2)
	_, _, f1hdr := PairwiseScores(hdr, truth)
	hol, _ := Holistic{Knowledge: kb.Demo()}.Align(tables2)
	_, _, f1hol := PairwiseScores(hol, truth)
	if f1hdr >= 1 {
		t.Error("corrupted header should hurt the header baseline")
	}
	if f1hol <= f1hdr {
		t.Errorf("holistic (%v) must beat header baseline (%v) under corruption", f1hol, f1hdr)
	}
}

func TestOracleValidation(t *testing.T) {
	if _, err := (Oracle{}).Align([]*table.Table{paperdata.T1()}); err == nil {
		t.Error("oracle without Label must error")
	}
	if _, err := (Oracle{Label: func(string, int) string { return "" }}).Align(nil); err == nil {
		t.Error("empty set must error")
	}
	if _, err := (Holistic{}).Align(nil); err == nil {
		t.Error("empty set must error")
	}
	if _, err := (HeaderMatcher{}).Align(nil); err == nil {
		t.Error("empty set must error")
	}
	empty := table.New("e")
	if _, err := (Holistic{}).Align([]*table.Table{empty}); err == nil {
		t.Error("set with zero columns must error")
	}
}

func TestOracleSingletonsForEmptyLabels(t *testing.T) {
	tb := table.New("t", "a", "b")
	tb.MustAddRow(table.IntValue(1), table.IntValue(2))
	got, err := Oracle{Label: func(string, int) string { return "" }}.Align([]*table.Table{tb})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Schema) != 2 {
		t.Errorf("empty labels must produce singletons: %v", got.Schema)
	}
}

func TestUniqueIntegrationIDs(t *testing.T) {
	// Two clusters sharing the most-common header must get distinct IDs.
	a := table.New("a", "x")
	a.MustAddRow(table.StringValue("p"))
	b := table.New("b", "x")
	b.MustAddRow(table.IntValue(42424242))
	got, err := Holistic{}.Align([]*table.Table{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Schema) != 2 || got.Schema[0] == got.Schema[1] {
		t.Errorf("want two distinct integration IDs, got %v", got.Schema)
	}
}

func TestPairwiseScoresPerfectAndEmpty(t *testing.T) {
	tables := []*table.Table{paperdata.T1(), paperdata.T2()}
	truth, _ := fig2Truth().Align(tables)
	p, r, f1 := PairwiseScores(truth, truth)
	if p != 1 || r != 1 || f1 != 1 {
		t.Errorf("self comparison = %v %v %v", p, r, f1)
	}
	p, r, f1 = PairwiseScores(Alignment{Pos: map[ColumnRef]int{}}, truth)
	if p != 0 || r != 0 || f1 != 0 {
		t.Errorf("disjoint comparison = %v %v %v", p, r, f1)
	}
}

func TestVaccineTablesAlign(t *testing.T) {
	// Fig. 7's T4,T5,T6 must align to the 3-ID schema of Fig. 8.
	tables := paperdata.VaccineSet()
	got, err := Holistic{Knowledge: kb.Demo()}.Align(tables)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Schema) != 3 {
		t.Fatalf("vaccine schema = %v, want 3 IDs", got.Schema)
	}
	truth := Oracle{Label: func(name string, col int) string {
		switch name {
		case "T4":
			return []string{"vaccine", "approver"}[col]
		case "T5":
			return []string{"country", "approver"}[col]
		case "T6":
			return []string{"vaccine", "country"}[col]
		}
		return ""
	}}
	tr, _ := truth.Align(tables)
	if _, _, f1 := PairwiseScores(got, tr); f1 != 1 {
		t.Errorf("vaccine alignment f1 = %v; schema %v pos %v", f1, got.Schema, got.Pos)
	}
}
