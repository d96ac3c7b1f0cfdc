package discovery

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/kb"
	"repro/internal/lake"
	"repro/internal/paperdata"
	"repro/internal/table"
	"repro/internal/tokenize"
)

func demoLake(t *testing.T) *lake.Lake {
	t.Helper()
	l, err := lake.New(paperdata.CovidLake(), lake.Options{Knowledge: kb.Demo()})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func cityCol(t *testing.T, q *table.Table) int {
	t.Helper()
	c, ok := q.ColumnIndex(paperdata.ColCity)
	if !ok {
		t.Fatal("no City column")
	}
	return c
}

func TestFig2SantosFindsT2(t *testing.T) {
	// Example 1: unionable search with intent column City returns T2 first.
	l := demoLake(t)
	q := paperdata.T1()
	got, err := SantosUnion{}.Discover(context.Background(), l, q, cityCol(t, q), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Table.Name != "T2" {
		t.Fatalf("santos top-1 = %+v, want T2", got)
	}
	if got[0].Method != "santos-union" {
		t.Errorf("method = %q", got[0].Method)
	}
}

func TestFig2LSHJoinFindsT3(t *testing.T) {
	// Example 1: joinable search on the City query column returns T3 (its
	// city column contains 2/3 of the query's cities; T2's contains none).
	l := demoLake(t)
	q := paperdata.T1()
	got, err := LSHJoin{}.Discover(context.Background(), l, q, cityCol(t, q), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Table.Name != "T3" {
		t.Fatalf("lsh-join = %+v, want only T3", got)
	}
	if got[0].Score < 0.6 || got[0].Score > 0.7 {
		t.Errorf("containment = %v, want 2/3", got[0].Score)
	}
	if got[0].Column != 0 {
		t.Errorf("matched column = %d, want 0 (T3.City)", got[0].Column)
	}
}

func TestJosieJoinRanksByOverlap(t *testing.T) {
	l := demoLake(t)
	q := paperdata.T1()
	got, err := JosieJoin{}.Discover(context.Background(), l, q, cityCol(t, q), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || got[0].Table.Name != "T3" || got[0].Score != 2 {
		t.Fatalf("josie = %+v, want T3 with overlap 2", got)
	}
}

func TestIntegrationSetMergesMethods(t *testing.T) {
	// The paper: "As there may be an overlap in unionable and joinable
	// search results, we persist the set of tables found by all techniques
	// to form an integration set."
	l := demoLake(t)
	q := paperdata.T1()
	u, err := SantosUnion{}.Discover(context.Background(), l, q, cityCol(t, q), 10)
	if err != nil {
		t.Fatal(err)
	}
	j, err := LSHJoin{}.Discover(context.Background(), l, q, cityCol(t, q), 10)
	if err != nil {
		t.Fatal(err)
	}
	set := mergeIntegrationSet(q, u, j)
	names := make([]string, len(set))
	for i, tb := range set {
		names[i] = tb.Name
	}
	if names[0] != "T1" {
		t.Errorf("query must come first: %v", names)
	}
	if !reflect.DeepEqual(names, []string{"T1", "T2", "T3"}) {
		t.Errorf("integration set = %v, want [T1 T2 T3]", names)
	}
	// Duplicates across methods collapse.
	set2 := mergeIntegrationSet(q, u, u, j, j)
	if len(set2) != 3 {
		t.Errorf("dedup failed: %d tables", len(set2))
	}
}

func TestSyntacticUnionBaseline(t *testing.T) {
	l := demoLake(t)
	q := paperdata.T1()
	got, err := SyntacticUnion{}.Discover(context.Background(), l, q, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// T1 shares values with T3 (cities) but almost nothing with T2 (its
	// rows are disjoint) — the syntactic baseline misses T2, which is
	// exactly why SANTOS exists (experiment X4's point).
	if len(got) != 1 {
		t.Fatalf("syntactic baseline found %d tables, want exactly T3", len(got))
	}
	if got[0].Table.Name != "T3" {
		t.Errorf("syntactic top-1 = %s, want T3", got[0].Table.Name)
	}
	// The score is pinned to the bit: 2/15, the mean over T1's columns of
	// the best Jaccard similarity against any T3 column.
	if bits := math.Float64bits(got[0].Score); bits != 0x3fc1111111111111 {
		t.Errorf("syntactic T3 score = %v (bits %#x), want 2/15 (bits 0x3fc1111111111111)", got[0].Score, bits)
	}
}

func TestUserDefinedSimilarity(t *testing.T) {
	// Fig. 4: a user-defined discoverer based on inner-join overlap of the
	// best column pair.
	l := demoLake(t)
	q := paperdata.T1()
	innerJoinSize := SimilarityFunc{
		FuncName: "inner-join-size",
		Sim: func(query, candidate *table.Table) float64 {
			best := 0
			for qc := 0; qc < query.NumCols(); qc++ {
				qd := tokenize.ValueSet(query.DistinctStrings(qc))
				for cc := 0; cc < candidate.NumCols(); cc++ {
					cd := tokenize.ValueSet(candidate.DistinctStrings(cc))
					if ov := tokenize.Overlap(qd, cd); ov > best {
						best = ov
					}
				}
			}
			return float64(best)
		},
	}
	got, err := innerJoinSize.Discover(context.Background(), l, q, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Table.Name != "T3" || got[0].Score != 2 {
		t.Fatalf("user discoverer = %+v, want T3 with score 2", got)
	}
	broken := SimilarityFunc{FuncName: "broken"}
	if _, err := broken.Discover(context.Background(), l, q, 0, 0); err == nil {
		t.Error("missing Sim must error")
	}
}

func TestDiscoverErrors(t *testing.T) {
	l := demoLake(t)
	q := paperdata.T1()
	if _, err := (SantosUnion{}).Discover(context.Background(), l, q, 99, 1); err == nil {
		t.Error("bad intent column must error")
	}
	if _, err := (LSHJoin{}).Discover(context.Background(), l, q, 99, 1); err == nil {
		t.Error("bad query column must error")
	}
	if _, err := (JosieJoin{}).Discover(context.Background(), l, q, 99, 1); err == nil {
		t.Error("bad query column must error")
	}
	if _, err := (SyntacticUnion{}).Discover(context.Background(), l, table.New("empty"), 0, 1); err == nil {
		t.Error("no-column query must error")
	}
}

func TestQueryTableNeverDiscovered(t *testing.T) {
	tables := append(paperdata.CovidLake(), paperdata.T1())
	l, err := lake.New(tables, lake.Options{Knowledge: kb.Demo()})
	if err != nil {
		t.Fatal(err)
	}
	q := paperdata.T1()
	for _, d := range []Discoverer{LSHJoin{}, JosieJoin{}, SyntacticUnion{}} {
		got, err := d.Discover(context.Background(), l, q, cityCol(t, q), 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range got {
			if r.Table.Name == "T1" {
				t.Errorf("%s returned the query table", d.Name())
			}
		}
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	want := []string{"josie-join", "lsh-join", "santos-union", "syntactic-union"}
	if !reflect.DeepEqual(r.Names(), want) {
		t.Errorf("names = %v", r.Names())
	}
	if _, ok := r.Get("santos-union"); !ok {
		t.Error("santos-union missing")
	}
	if err := r.Register(SantosUnion{}); err == nil {
		t.Error("duplicate must error")
	}
	if err := r.Register(SimilarityFunc{FuncName: ""}); err == nil {
		t.Error("empty name must error")
	}
	if err := r.Register(SimilarityFunc{FuncName: "mine", Sim: func(a, b *table.Table) float64 { return 0 }}); err != nil {
		t.Error(err)
	}
	if _, ok := r.Get("mine"); !ok {
		t.Error("custom discoverer missing")
	}
}

// TestRegisterRefusesNilSimilarity: a SimilarityFunc without a function
// could only fail every run it joins, so Register refuses it, by value or
// by pointer, and the name stays free.
func TestRegisterRefusesNilSimilarity(t *testing.T) {
	r := NewRegistry()
	for _, d := range []Discoverer{SimilarityFunc{FuncName: "no-sim"}, &SimilarityFunc{FuncName: "no-sim"}} {
		if err := r.Register(d); err == nil {
			t.Errorf("Register(%#v) accepted a SimilarityFunc with no Sim", d)
		}
	}
	if _, ok := r.Get("no-sim"); ok {
		t.Error("a refused discoverer was registered")
	}
}
