package santos

import (
	"testing"

	"repro/internal/kb"
	"repro/internal/paperdata"
	"repro/internal/table"
)

func demoIndex() *Index {
	return Build(paperdata.CovidLake(), kb.Demo())
}

func TestFig2UnionableSearch(t *testing.T) {
	// The paper's Example 1: query T1 with intent column City; SANTOS must
	// rank T2 (same schema, same city->country relationship) above T3
	// (joinable table with the same city type but no relationships).
	ix := demoIndex()
	q := paperdata.T1()
	city, _ := q.ColumnIndex(paperdata.ColCity)
	got, err := ix.Query(q, city, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d results, want 2: %+v", len(got), got)
	}
	if got[0].Table.Name != "T2" {
		t.Errorf("top unionable = %s, want T2", got[0].Table.Name)
	}
	if got[1].Table.Name != "T3" {
		t.Errorf("second = %s, want T3", got[1].Table.Name)
	}
	if got[0].Score <= got[1].Score {
		t.Errorf("T2 score %v must exceed T3 score %v (relationship match)", got[0].Score, got[1].Score)
	}
	if got[0].MatchedColumn != 1 {
		t.Errorf("T2 matched column = %d, want 1 (City)", got[0].MatchedColumn)
	}
}

func TestTopKLimit(t *testing.T) {
	ix := demoIndex()
	q := paperdata.T1()
	got, err := ix.Query(q, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Table.Name != "T2" {
		t.Errorf("top-1 = %+v", got)
	}
}

func TestIntentColumnValidation(t *testing.T) {
	ix := demoIndex()
	q := paperdata.T1()
	if _, err := ix.Query(q, 99, 10); err == nil {
		t.Error("out-of-range intent column must error")
	}
	// Numeric intent column has no semantic annotation.
	numeric := table.New("N", "id", "x")
	numeric.MustAddRow(table.IntValue(1), table.IntValue(2))
	if _, err := ix.Query(numeric, 0, 10); err == nil {
		t.Error("unannotatable intent column must error")
	}
}

func TestQueryTableNeverReturned(t *testing.T) {
	lake := append(paperdata.CovidLake(), paperdata.T1())
	ix := Build(lake, kb.Demo())
	got, err := ix.Query(paperdata.T1(), 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range got {
		if r.Table.Name == "T1" {
			t.Error("query table returned as its own result")
		}
	}
}

func TestOffTopicQueryFindsNothing(t *testing.T) {
	ix := demoIndex()
	q := table.New("Q", "product", "price")
	q.MustAddRow(table.StringValue("widget"), table.IntValue(5))
	q.MustAddRow(table.StringValue("gadget"), table.IntValue(7))
	// "product" values are not in the demo KB, so the intent column cannot
	// be annotated — the paper notes off-topic queries may yield no results.
	if _, err := ix.Query(q, 0, 10); err == nil {
		t.Error("off-topic query should error on unannotatable intent column")
	}
}

func TestSupertypeMatching(t *testing.T) {
	k := kb.Demo()
	// A query column of countries should still weakly match a city column
	// through the "place" supertype.
	if s := typeMatchScore(k, kb.TypeCountry, kb.TypeCity); s != 0 {
		t.Errorf("country vs city = %v, want 0 (siblings, no subsumption)", s)
	}
	if s := typeMatchScore(k, kb.TypePlace, kb.TypeCity); s != supertypeDecay {
		t.Errorf("place vs city = %v, want %v", s, supertypeDecay)
	}
	if s := typeMatchScore(k, kb.TypeCity, kb.TypePlace); s != supertypeDecay {
		t.Errorf("city vs place = %v, want %v (symmetric)", s, supertypeDecay)
	}
	if s := typeMatchScore(k, kb.TypeCity, kb.TypeCity); s != 1 {
		t.Errorf("exact match = %v, want 1", s)
	}
}

func TestEdgeJaccard(t *testing.T) {
	a := sortedUnique([]uint64{
		edgeKeyID(false, 0, 1),
		edgeKeyID(true, 1, 1),
	})
	b := sortedUnique([]uint64{edgeKeyID(false, 0, 1)})
	if got := edgeJaccard(a, b); got != 0.5 {
		t.Errorf("edgeJaccard = %v, want 0.5", got)
	}
	if edgeJaccard(nil, nil) != 0 {
		t.Error("empty edge sets must score 0")
	}
	if edgeJaccard(a, a) != 1 {
		t.Error("identical edge sets must score 1")
	}
}

func TestEdgeKeyPacking(t *testing.T) {
	out := edgeKeyID(false, 3, 7)
	in := edgeKeyID(true, 3, 7)
	if out == in {
		t.Error("direction must distinguish edge keys")
	}
	if edgeKeyID(false, 3, 7) != out {
		t.Error("edge keys must be stable across calls")
	}
	if edgeKeyID(false, 3, 8) == out {
		t.Error("other-endpoint type must distinguish edge keys")
	}
	if edgeKeyID(false, 4, 7) == out {
		t.Error("label must distinguish edge keys")
	}
	// Distinct (label, type) ID pairs can never collide in the packed form,
	// unlike the old delimiter-joined string keys.
	if edgeKeyID(false, 1, 2) == edgeKeyID(false, 2, 1) {
		t.Error("packed keys must not collide across the label/type split")
	}
	// sortedUnique canonicalizes: duplicates collapse, order ascending.
	ks := sortedUnique([]uint64{out, in, out})
	if len(ks) != 2 || ks[0] > ks[1] {
		t.Errorf("sortedUnique = %v", ks)
	}
}

func TestSynthesizedKBFallback(t *testing.T) {
	// A domain with no curated coverage still works via the synthesized KB.
	mk := func(name string, people, teams []string) *table.Table {
		tb := table.New(name, "who", "team")
		for i := range people {
			tb.MustAddRow(table.StringValue(people[i]), table.StringValue(teams[i]))
		}
		return tb
	}
	lake := []*table.Table{
		mk("roster1", []string{"alice", "bob", "carol", "dan"}, []string{"red", "blue", "red", "blue"}),
		mk("roster2", []string{"alice", "bob", "erin", "frank"}, []string{"red", "green", "green", "red"}),
		mk("products", []string{"widget", "gadget", "sprocket", "gear"}, []string{"x1", "x2", "x3", "x4"}),
	}
	syn := kb.Synthesize(lake, kb.SynthesizeOptions{})
	ix := Build(lake, syn)
	q := mk("q", []string{"alice", "carol", "frank"}, []string{"red", "red", "red"})
	got, err := ix.Query(q, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) < 2 {
		t.Fatalf("expected both rosters, got %+v", got)
	}
	names := map[string]bool{}
	for _, r := range got {
		names[r.Table.Name] = true
	}
	if !names["roster1"] || !names["roster2"] {
		t.Errorf("rosters missing from results: %v", names)
	}
	if names["products"] {
		t.Error("unrelated products table must not match")
	}
}

func TestNumTables(t *testing.T) {
	if demoIndex().NumTables() != 2 {
		t.Error("NumTables broken")
	}
}

// TestQueryNeverWritesIndexAnnotator pins that query traffic leaves the
// index's annotation cache as it was: foreign strings — in the intent
// column, in a mostly-textual column and as a string cell of a numeric
// column — are cached only in the query's scope. Deriving an index with an
// added table is what grows the cache.
func TestQueryNeverWritesIndexAnnotator(t *testing.T) {
	ix := demoIndex()
	raw, ext := ix.ann.Size()
	q := table.New("guest", "City", "Country", "Count")
	q.MustAddRow(table.StringValue("Berlin"), table.StringValue("Atlantis"), table.IntValue(3))
	q.MustAddRow(table.StringValue("Gotham"), table.StringValue("Germany"), table.StringValue("many"))
	q.MustAddRow(table.StringValue("Boston"), table.StringValue("Erewhon"), table.IntValue(4))
	for col := 0; col < q.NumCols(); col++ {
		ix.Query(q, col, 0)
	}
	ix.Query(paperdata.T1(), 1, 0)
	if r, e := ix.ann.Size(); r != raw || e != ext {
		t.Fatalf("queries grew the index annotator from (raw %d, ext %d) to (raw %d, ext %d)", raw, ext, r, e)
	}
	ix.With([]*table.Table{q}, nil)
	if r, _ := ix.ann.Size(); r == raw {
		t.Fatal("With must annotate through the shared root annotator")
	}
}
