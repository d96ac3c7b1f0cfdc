package synth

import (
	"strings"
	"testing"

	"repro/internal/table"
)

func TestGenerateQueryTableCovid(t *testing.T) {
	// The paper's Fig. 5: "generate a query table about COVID-19 cases
	// that has 5 columns and 5 rows".
	q, err := GenerateQueryTable("COVID-19 cases in cities", 5, 5, 42)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumRows() != 5 || q.NumCols() != 5 {
		t.Fatalf("generated %dx%d, want 5x5", q.NumRows(), q.NumCols())
	}
	if _, ok := q.ColumnIndex("City"); !ok {
		t.Errorf("covid template must have a City column: %v", q.Columns)
	}
	if !strings.HasPrefix(q.Name, "q_") {
		t.Errorf("query name = %q", q.Name)
	}
}

func TestGenerateQueryTableDeterministic(t *testing.T) {
	a, _ := GenerateQueryTable("vaccine approvals", 4, 3, 7)
	b, _ := GenerateQueryTable("vaccine approvals", 4, 3, 7)
	if !a.Equal(b) {
		t.Error("same seed must generate identical tables")
	}
	c, _ := GenerateQueryTable("vaccine approvals", 4, 3, 8)
	if a.Equal(c) {
		t.Error("different seeds should differ")
	}
}

func TestGenerateQueryTableTemplates(t *testing.T) {
	for prompt, wantCol := range map[string]string{
		"vaccine doses":      "Vaccine",
		"weather by city":    "Temperature",
		"anything else here": "Name",
	} {
		q, err := GenerateQueryTable(prompt, 3, 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := q.ColumnIndex(wantCol); !ok {
			t.Errorf("prompt %q: missing column %q in %v", prompt, wantCol, q.Columns)
		}
	}
}

func TestGenerateQueryTableWideAndNarrow(t *testing.T) {
	wide, err := GenerateQueryTable("covid", 2, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if wide.NumCols() != 8 || wide.Columns[7] != "Attribute 8" {
		t.Errorf("wide columns = %v", wide.Columns)
	}
	narrow, err := GenerateQueryTable("covid", 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if narrow.NumCols() != 2 {
		t.Errorf("narrow cols = %d", narrow.NumCols())
	}
	if _, err := GenerateQueryTable("covid", 0, 3, 1); err == nil {
		t.Error("zero rows must error")
	}
}

func TestGenerateLakeShape(t *testing.T) {
	lake := GenerateLake(LakeOptions{Seed: 3, Families: 2, TablesPerFamily: 3, JoinablePerFamily: 1, NoiseTables: 2, RowsPerTable: 10})
	wantTables := 2*3 + 2*1 + 2
	if len(lake.Tables) != wantTables {
		t.Fatalf("lake has %d tables, want %d", len(lake.Tables), wantTables)
	}
	// Ground truth covers every table.
	for _, tb := range lake.Tables {
		if _, ok := lake.Truth.FamilyOf[tb.Name]; !ok {
			t.Errorf("table %q missing from FamilyOf", tb.Name)
		}
		if _, ok := lake.Truth.AttrLabels[tb.Name]; !ok {
			t.Errorf("table %q missing from AttrLabels", tb.Name)
		}
		if len(lake.Truth.AttrLabels[tb.Name]) != tb.NumCols() {
			t.Errorf("table %q label arity mismatch", tb.Name)
		}
	}
	// Unionable partners are symmetric and exclude self.
	for name, partners := range lake.Truth.UnionableWith {
		for _, p := range partners {
			if p == name {
				t.Errorf("%q unionable with itself", name)
			}
			found := false
			for _, q := range lake.Truth.UnionableWith[p] {
				if q == name {
					found = true
				}
			}
			if !found {
				t.Errorf("unionable truth asymmetric: %s->%s", name, p)
			}
		}
	}
}

func TestGenerateLakeDeterministic(t *testing.T) {
	a := GenerateLake(LakeOptions{Seed: 9})
	b := GenerateLake(LakeOptions{Seed: 9})
	if len(a.Tables) != len(b.Tables) {
		t.Fatal("table counts differ")
	}
	for i := range a.Tables {
		if !a.Tables[i].Equal(b.Tables[i]) {
			t.Fatalf("table %s differs between runs", a.Tables[i].Name)
		}
	}
}

func TestGenerateLakeJoinableContainment(t *testing.T) {
	lake := GenerateLake(LakeOptions{Seed: 5, Families: 1, TablesPerFamily: 2, JoinablePerFamily: 1, NoiseTables: 1, RowsPerTable: 15})
	// The joinable companion's key domain must overlap each partition's
	// key domain substantially (that is what joinable search must find).
	var join, part *table.Table
	for _, tb := range lake.Tables {
		if tb.Name == "family0_join0" {
			join = tb
		}
		if tb.Name == "family0_part0" {
			part = tb
		}
	}
	if join == nil || part == nil {
		t.Fatal("expected tables missing")
	}
	joinKeys := make(map[string]bool)
	for _, v := range join.DistinctStrings(lake.Truth.KeyColumn[join.Name]) {
		joinKeys[v] = true
	}
	overlap := 0
	partKeys := part.DistinctStrings(lake.Truth.KeyColumn[part.Name])
	for _, v := range partKeys {
		if joinKeys[v] {
			overlap++
		}
	}
	if len(partKeys) == 0 || float64(overlap)/float64(len(partKeys)) < 0.5 {
		t.Errorf("joinable containment = %d/%d, want >= 0.5", overlap, len(partKeys))
	}
}

func TestGenerateLakeHeaderCorruption(t *testing.T) {
	clean := GenerateLake(LakeOptions{Seed: 4, HeaderCorruption: 0})
	dirty := GenerateLake(LakeOptions{Seed: 4, HeaderCorruption: 0.9})
	cleanCity, dirtyCity := 0, 0
	for _, tb := range clean.Tables {
		for _, h := range tb.Columns {
			if h == "City" {
				cleanCity++
			}
		}
	}
	for _, tb := range dirty.Tables {
		for _, h := range tb.Columns {
			if h == "City" {
				dirtyCity++
			}
		}
	}
	if dirtyCity >= cleanCity {
		t.Errorf("corruption did not reduce clean headers: %d vs %d", dirtyCity, cleanCity)
	}
}

func TestFragments(t *testing.T) {
	fs := Fragments(FragmentOptions{Seed: 11, Entities: 15})
	if len(fs.Tables) != 3 {
		t.Fatalf("fragments = %d tables", len(fs.Tables))
	}
	ta, tb, tc := fs.Tables[0], fs.Tables[1], fs.Tables[2]
	if ta.Columns[0] != "Name" || tb.Columns[0] != "Country" || tc.Columns[1] != "Country" {
		t.Errorf("fragment headers wrong: %v %v %v", ta.Columns, tb.Columns, tc.Columns)
	}
	if tc.NumRows() != 15 {
		t.Errorf("TC rows = %d, want one per entity", tc.NumRows())
	}
	// Aliases resolve through the generated KB.
	resolved := 0
	for r := 0; r < tc.NumRows(); r++ {
		v := tc.Cell(r, 0).String()
		if _, ok := fs.EntityOf[fs.Knowledge.Canonical(v)]; ok {
			resolved++
		}
	}
	if resolved != tc.NumRows() {
		t.Errorf("only %d/%d names resolve to entities", resolved, tc.NumRows())
	}
}

func TestFragmentLabelRows(t *testing.T) {
	fs := Fragments(FragmentOptions{Seed: 2, Entities: 5})
	labels := fs.LabelRows(fs.Tables[2]) // TC has Name and Country
	for i, l := range labels {
		if !strings.HasPrefix(l, "e") {
			t.Errorf("row %d label = %q, want entity label", i, l)
		}
	}
	// A table with no recognizable values gets unique row labels.
	junk := table.New("junk", "Name")
	junk.MustAddRow(table.StringValue("zzz"))
	jl := fs.LabelRows(junk)
	if jl[0] != "row-0" {
		t.Errorf("junk label = %q", jl[0])
	}
}

func TestCompleteTuples(t *testing.T) {
	tb := table.New("t", "a", "b")
	tb.MustAddRow(table.IntValue(1), table.IntValue(2))
	tb.MustAddRow(table.IntValue(1), table.NullValue())
	tb.MustAddRow(table.ProducedNull(), table.IntValue(2))
	if got := CompleteTuples(tb); got != 1 {
		t.Errorf("CompleteTuples = %d, want 1", got)
	}
}
