package fd

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/paperdata"
	"repro/internal/table"
)

// fig3Input aligns the paper's T1,T2,T3 onto the Fig. 3 integration schema.
func fig3Input(t *testing.T) Input {
	t.Helper()
	schema := []string{paperdata.ColCountry, paperdata.ColCity, paperdata.ColVaccRate, paperdata.ColCases, paperdata.ColDeathRate}
	in, err := OuterUnion(schema, []Relation{
		{Table: paperdata.T1(), ColPos: []int{0, 1, 2}, RowIDs: []string{"t1", "t2", "t3"}},
		{Table: paperdata.T2(), ColPos: []int{0, 1, 2}, RowIDs: []string{"t4", "t5", "t6"}},
		{Table: paperdata.T3(), ColPos: []int{1, 3, 4}, RowIDs: []string{"t7", "t8", "t9", "t10"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// fig8Input aligns the paper's T4,T5,T6 onto the Fig. 8 integration schema.
func fig8Input(t *testing.T) Input {
	t.Helper()
	schema := []string{paperdata.ColVaccine, paperdata.ColApprover, paperdata.ColCountry}
	in, err := OuterUnion(schema, []Relation{
		{Table: paperdata.T4(), ColPos: []int{0, 1}, RowIDs: []string{"t11", "t12"}},
		{Table: paperdata.T5(), ColPos: []int{2, 1}, RowIDs: []string{"t13", "t14"}},
		{Table: paperdata.T6(), ColPos: []int{0, 2}, RowIDs: []string{"t15", "t16"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func valuesTable(name string, schema []string, tuples []Tuple) *table.Table {
	return ToTable(name, schema, tuples, false)
}

func TestALITEReproducesFig3(t *testing.T) {
	in := fig3Input(t)
	got := ALITE(in)
	gotTable := valuesTable("got", in.Schema, got)
	want := paperdata.Fig3Expected()
	want.Columns = in.Schema // same headers by construction
	if !gotTable.EqualUnordered(want) {
		t.Fatalf("ALITE != Fig.3:\ngot:\n%s\nwant:\n%s", gotTable, want)
	}
	// Provenance per city matches the figure's TIDs column.
	cityPos := 1
	wantProv := paperdata.Fig3Provenance()
	for _, tu := range got {
		city := tu.Values[cityPos].String()
		if !reflect.DeepEqual(tu.Prov, wantProv[city]) {
			t.Errorf("city %s provenance = %v, want %v", city, tu.Prov, wantProv[city])
		}
	}
	// Null kinds: f5 keeps the source's missing null; f2's padding is ⊥.
	for _, tu := range got {
		switch tu.Values[cityPos].String() {
		case "Mexico City":
			if tu.Values[2].Kind() != table.Null {
				t.Error("f5 vaccination rate must stay a missing null (±)")
			}
		case "Manchester":
			if tu.Values[3].Kind() != table.PNull || tu.Values[4].Kind() != table.PNull {
				t.Error("f2 padding must be produced nulls (⊥)")
			}
		}
	}
}

func TestALITEReproducesFig8b(t *testing.T) {
	in := fig8Input(t)
	got := ALITE(in)
	gotTable := valuesTable("got", in.Schema, got)
	want := paperdata.Fig8bExpected()
	want.Columns = in.Schema
	if !gotTable.EqualUnordered(want) {
		t.Fatalf("ALITE != Fig.8(b):\ngot:\n%s\nwant:\n%s", gotTable, want)
	}
	wantProv := paperdata.Fig8bProvenance()
	for _, tu := range got {
		vac := tu.Values[0].String()
		if !reflect.DeepEqual(tu.Prov, wantProv[vac]) {
			t.Errorf("vaccine %s provenance = %v, want %v", vac, tu.Prov, wantProv[vac])
		}
	}
	// The recovered fact of Example 5: J&J's approver is FDA.
	found := false
	for _, tu := range got {
		if tu.Values[0].String() == "J&J" && tu.Values[1].String() == "FDA" {
			found = true
		}
	}
	if !found {
		t.Error("FD must recover (J&J, FDA, United States) — the paper's f13")
	}
}

func TestNaiveMatchesALITEOnFixtures(t *testing.T) {
	for _, mk := range []func(*testing.T) Input{fig3Input, fig8Input} {
		in := mk(t)
		a := ALITE(in)
		n, err := Naive(in)
		if err != nil {
			t.Fatal(err)
		}
		if !sameValues(a, n) {
			t.Errorf("Naive and ALITE disagree:\nALITE:\n%s\nNaive:\n%s",
				valuesTable("a", in.Schema, a), valuesTable("n", in.Schema, n))
		}
	}
}

func sameValues(a, b []Tuple) bool {
	ka := make([]string, len(a))
	for i, t := range a {
		ka[i] = t.Key()
	}
	kb := make([]string, len(b))
	for i, t := range b {
		kb[i] = t.Key()
	}
	sort.Strings(ka)
	sort.Strings(kb)
	return reflect.DeepEqual(ka, kb)
}

func TestComplementable(t *testing.T) {
	s := table.StringValue
	n := table.NullValue()
	p := table.ProducedNull()
	cases := []struct {
		a, b []table.Value
		want bool
	}{
		{[]table.Value{s("a"), n}, []table.Value{s("a"), s("b")}, true},
		{[]table.Value{s("a"), s("x")}, []table.Value{s("a"), s("y")}, false}, // conflict
		{[]table.Value{s("a"), p}, []table.Value{p, s("b")}, false},           // no shared non-null
		{[]table.Value{n, n}, []table.Value{s("a"), s("b")}, false},           // all null side
		{[]table.Value{s("a"), s("b")}, []table.Value{s("a"), s("b")}, true},  // identical
	}
	for i, c := range cases {
		if got := Complementable(c.a, c.b); got != c.want {
			t.Errorf("case %d: Complementable = %v, want %v", i, got, c.want)
		}
	}
}

func TestMergeNullKinds(t *testing.T) {
	a := Tuple{Values: []table.Value{table.StringValue("x"), table.NullValue(), table.ProducedNull()}, Prov: []string{"a"}}
	b := Tuple{Values: []table.Value{table.StringValue("x"), table.ProducedNull(), table.ProducedNull()}, Prov: []string{"b"}}
	m := Merge(a, b)
	if m.Values[1].Kind() != table.Null {
		t.Error("missing null must survive over produced null in a merge")
	}
	if m.Values[2].Kind() != table.PNull {
		t.Error("two produced nulls merge to a produced null")
	}
	if !reflect.DeepEqual(m.Prov, []string{"a", "b"}) {
		t.Errorf("merged provenance = %v", m.Prov)
	}
}

func TestSubsumes(t *testing.T) {
	s := table.StringValue
	n := table.NullValue()
	if !Subsumes([]table.Value{s("a"), s("b")}, []table.Value{s("a"), n}) {
		t.Error("(a,b) must subsume (a,±)")
	}
	if Subsumes([]table.Value{s("a"), n}, []table.Value{s("a"), s("b")}) {
		t.Error("(a,±) must not subsume (a,b)")
	}
	if !Subsumes([]table.Value{s("a")}, []table.Value{n}) {
		t.Error("anything subsumes the all-null tuple")
	}
}

func TestRemoveSubsumed(t *testing.T) {
	s := table.StringValue
	n := table.NullValue()
	tuples := []Tuple{
		{Values: []table.Value{s("a"), n}, Prov: []string{"1"}},
		{Values: []table.Value{s("a"), s("b")}, Prov: []string{"2"}},
		{Values: []table.Value{n, n}, Prov: []string{"3"}},
		{Values: []table.Value{s("a"), s("b")}, Prov: []string{"4"}}, // dup
	}
	out := RemoveSubsumed(tuples)
	if len(out) != 1 || out[0].Values[1].Str() != "b" {
		t.Errorf("RemoveSubsumed = %v", out)
	}
	// The all-null tuple survives only alone.
	solo := RemoveSubsumed([]Tuple{{Values: []table.Value{n, n}, Prov: []string{"x"}}})
	if len(solo) != 1 {
		t.Error("lone all-null tuple must survive")
	}
}

func TestOuterUnionValidation(t *testing.T) {
	tb := table.New("t", "a", "b")
	tb.MustAddRow(table.IntValue(1), table.IntValue(2))
	if _, err := OuterUnion([]string{"x"}, []Relation{{Table: nil}}); err == nil {
		t.Error("nil table must error")
	}
	if _, err := OuterUnion([]string{"x"}, []Relation{{Table: tb, ColPos: []int{0}}}); err == nil {
		t.Error("short ColPos must error")
	}
	if _, err := OuterUnion([]string{"x"}, []Relation{{Table: tb, ColPos: []int{0, 5}}}); err == nil {
		t.Error("out-of-range position must error")
	}
	if _, err := OuterUnion([]string{"x", "y"}, []Relation{{Table: tb, ColPos: []int{0, 0}}}); err == nil {
		t.Error("duplicate positions must error")
	}
	if _, err := OuterUnion([]string{"x", "y"}, []Relation{{Table: tb, ColPos: []int{0, 1}, RowIDs: []string{"only-one-id-for-one-row-but-table-has-one-row"}}}); err != nil {
		t.Errorf("valid row IDs rejected: %v", err)
	}
	if _, err := OuterUnion([]string{"x", "y"}, []Relation{{Table: tb, ColPos: []int{0, 1}, RowIDs: []string{"a", "b"}}}); err == nil {
		t.Error("row ID count mismatch must error")
	}
}

func TestOuterUnionPadding(t *testing.T) {
	tb := table.New("t", "a")
	tb.MustAddRow(table.NullValue())
	in, err := OuterUnion([]string{"x", "y"}, []Relation{{Table: tb, ColPos: []int{0}}})
	if err != nil {
		t.Fatal(err)
	}
	if in.Tuples[0].Values[0].Kind() != table.Null {
		t.Error("source missing null must be copied as missing")
	}
	if in.Tuples[0].Values[1].Kind() != table.PNull {
		t.Error("padding must be a produced null")
	}
	if in.Tuples[0].Prov[0] != "t:0" {
		t.Errorf("default provenance = %v", in.Tuples[0].Prov)
	}
}

func TestNaiveLimit(t *testing.T) {
	var tuples []Tuple
	for i := 0; i < NaiveLimit+1; i++ {
		tuples = append(tuples, Tuple{Values: []table.Value{table.IntValue(int64(i))}, Prov: []string{"p"}})
	}
	if _, err := Naive(Input{Schema: []string{"x"}, Tuples: tuples}); err == nil {
		t.Error("Naive must refuse oversized inputs")
	}
	if out, err := Naive(Input{Schema: []string{"x"}}); err != nil || out != nil {
		t.Error("Naive on empty input must be empty")
	}
}

// randomInput generates a small random aligned input exercising nulls,
// shared values and conflicts.
func randomInput(rng *rand.Rand) Input {
	cols := 3 + rng.Intn(2)
	n := 4 + rng.Intn(6)
	alphabet := []string{"a", "b", "c"}
	var tuples []Tuple
	for i := 0; i < n; i++ {
		vals := make([]table.Value, cols)
		for c := range vals {
			switch rng.Intn(4) {
			case 0:
				vals[c] = table.ProducedNull()
			case 1:
				vals[c] = table.NullValue()
			default:
				vals[c] = table.StringValue(alphabet[rng.Intn(len(alphabet))])
			}
		}
		tuples = append(tuples, Tuple{Values: vals, Prov: []string{"s" + string(rune('0'+i))}})
	}
	schema := make([]string, cols)
	for c := range schema {
		schema[c] = "A" + string(rune('0'+c))
	}
	return Input{Schema: schema, Tuples: tuples}
}

func TestALITEMatchesNaiveRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	for iter := 0; iter < 120; iter++ {
		in := randomInput(rng)
		a := ALITE(in)
		n, err := Naive(in)
		if err != nil {
			t.Fatal(err)
		}
		if !sameValues(a, n) {
			t.Fatalf("iteration %d: ALITE and Naive disagree on input:\n%s\nALITE:\n%s\nNaive:\n%s",
				iter, valuesTable("in", in.Schema, in.Tuples),
				valuesTable("a", in.Schema, a), valuesTable("n", in.Schema, n))
		}
	}
}

func TestFDAxiomsRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for iter := 0; iter < 80; iter++ {
		in := randomInput(rng)
		out := ALITE(in)
		// Antichain: no output tuple subsumed by another.
		for i := range out {
			for j := range out {
				if i != j && Subsumes(out[j].Values, out[i].Values) && out[i].Key() != out[j].Key() {
					t.Fatalf("iteration %d: output is not an antichain", iter)
				}
			}
		}
		// Coverage: every source tuple is subsumed by some output tuple.
		for _, src := range in.Tuples {
			covered := false
			for _, o := range out {
				if Subsumes(o.Values, src.Values) {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("iteration %d: source tuple %v lost", iter, src.Values)
			}
		}
		// Idempotence: FD of the FD result is itself.
		again := ALITE(Input{Schema: in.Schema, Tuples: out})
		if !sameValues(out, again) {
			t.Fatalf("iteration %d: FD is not idempotent", iter)
		}
		// Order invariance: permuting input tuples changes nothing.
		perm := make([]Tuple, len(in.Tuples))
		for i, p := range rng.Perm(len(in.Tuples)) {
			perm[i] = in.Tuples[p]
		}
		permOut := ALITE(Input{Schema: in.Schema, Tuples: perm})
		if !sameValues(out, permOut) {
			t.Fatalf("iteration %d: FD depends on input order", iter)
		}
	}
}

func TestToTableProvenance(t *testing.T) {
	tuples := []Tuple{{Values: []table.Value{table.StringValue("x")}, Prov: []string{"t1", "t2"}}}
	out := ToTable("o", []string{"A"}, tuples, true)
	if out.Columns[0] != "TIDs" || out.Cell(0, 0).Str() != "{t1, t2}" {
		t.Errorf("ToTable with provenance = %s", out)
	}
	plain := ToTable("o", []string{"A"}, tuples, false)
	if plain.NumCols() != 1 {
		t.Error("ToTable without provenance must not add TIDs")
	}
}
