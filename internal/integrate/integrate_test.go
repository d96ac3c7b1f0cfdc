package integrate

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/fd"
	"repro/internal/kb"
	"repro/internal/paperdata"
	"repro/internal/schemamatch"
	"repro/internal/table"
)

func paperRowIDs(tableName string, row int) string {
	return paperdata.TupleID(tableName, row)
}

func vaccineMatcher() schemamatch.Matcher {
	return schemamatch.Holistic{Knowledge: kb.Demo()}
}

func TestFullOuterJoinReproducesFig8a(t *testing.T) {
	got, tuples, err := Apply(context.Background(), FullOuterJoin{}, paperdata.VaccineSet(), vaccineMatcher(), paperRowIDs, false)
	if err != nil {
		t.Fatal(err)
	}
	want := paperdata.Fig8aExpected()
	cmp := got.Clone()
	cmp.Columns = want.Columns
	if !cmp.EqualUnordered(want) {
		t.Fatalf("outer join != Fig. 8(a):\ngot:\n%s\nwant:\n%s", got, want)
	}
	// Provenance of the joined tuple f8 = {t11, t13}.
	for _, tu := range tuples {
		if tu.Values[0].String() == "Pfizer" {
			if !reflect.DeepEqual(tu.Prov, []string{"t11", "t13"}) {
				t.Errorf("f8 provenance = %v", tu.Prov)
			}
		}
	}
	// The outer join result must NOT contain the J&J-approver fact that FD
	// recovers (the paper's key contrast).
	for _, tu := range tuples {
		if tu.Values[0].String() == "J&J" && tu.Values[1].String() == "FDA" {
			t.Error("outer join must not derive (J&J, FDA, ...)")
		}
	}
}

func TestALITEFDOperatorReproducesFig8b(t *testing.T) {
	got, _, err := Apply(context.Background(), ALITEFD{}, paperdata.VaccineSet(), vaccineMatcher(), paperRowIDs, false)
	if err != nil {
		t.Fatal(err)
	}
	want := paperdata.Fig8bExpected()
	cmp := got.Clone()
	cmp.Columns = want.Columns
	if !cmp.EqualUnordered(want) {
		t.Fatalf("alite-fd operator != Fig. 8(b):\ngot:\n%s", got)
	}
}

func TestALITEFDOperatorReproducesFig3(t *testing.T) {
	// Holistic matching + FD over the paper's three COVID tables, compared
	// against Fig. 3 including null kinds.
	set := []*table.Table{paperdata.T1(), paperdata.T2(), paperdata.T3()}
	got, _, err := Apply(context.Background(), ALITEFD{}, set, vaccineMatcher(), paperRowIDs, false)
	if err != nil {
		t.Fatal(err)
	}
	want := paperdata.Fig3Expected()
	if got.NumCols() != 5 {
		t.Errorf("schema = %v", got.Columns)
	}
	cmp := got.Clone()
	cmp.Columns = want.Columns // integration IDs carry the same headers here
	if !cmp.EqualUnordered(want) {
		t.Fatalf("alite-fd operator != Fig. 3:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestALITEFDProvenance(t *testing.T) {
	// Provenance sets match Fig. 8(b), tuple by tuple.
	got, tuples, err := Apply(context.Background(), ALITEFD{}, paperdata.VaccineSet(), vaccineMatcher(), paperRowIDs, true)
	if err != nil {
		t.Fatal(err)
	}
	if got.Columns[0] != "TIDs" {
		t.Fatalf("first column = %q, want TIDs", got.Columns[0])
	}
	vacPos, ok := got.ColumnIndex(paperdata.ColVaccine)
	if !ok {
		t.Fatalf("no Vaccine integration ID in %v", got.Columns)
	}
	vacPos-- // tuples carry no TIDs column
	wantProv := paperdata.Fig8bProvenance()
	for _, tu := range tuples {
		vac := tu.Values[vacPos].String()
		if want := wantProv[vac]; !reflect.DeepEqual(tu.Prov, want) {
			t.Errorf("prov of %s = %v, want %v", vac, tu.Prov, want)
		}
	}
	found := false
	for r := 0; r < got.NumRows(); r++ {
		if got.Cell(r, 0).Str() == "{t13, t15}" {
			found = true
		}
	}
	if !found {
		t.Error("f13's TIDs {t13, t15} not rendered")
	}

	// Without a RowIDFunc, provenance IDs default to "<table>:<row>".
	_, tuples, err = Apply(context.Background(), ALITEFD{}, paperdata.VaccineSet(), vaccineMatcher(), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, tu := range tuples {
		for _, p := range tu.Prov {
			if !strings.Contains(p, ":") {
				t.Errorf("default provenance ID %q is not table:row", p)
			}
		}
	}
}

func TestALITEFDWithOracleMatcher(t *testing.T) {
	oracle := schemamatch.Oracle{Label: func(name string, col int) string {
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
	got, _, err := Apply(context.Background(), ALITEFD{}, paperdata.VaccineSet(), oracle, paperRowIDs, false)
	if err != nil {
		t.Fatal(err)
	}
	want := paperdata.Fig8bExpected()
	cmp := got.Clone()
	cmp.Columns = want.Columns
	if !cmp.EqualUnordered(want) {
		t.Fatalf("oracle-matched integration != Fig. 8(b):\n%s", got)
	}
}

func TestALITEFDObservesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := Apply(ctx, ALITEFD{}, paperdata.VaccineSet(), vaccineMatcher(), nil, false); !errors.Is(err, context.Canceled) {
		t.Errorf("Apply under a cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestFDSubsumesOuterJoinInformation(t *testing.T) {
	// Every outer-join tuple is subsumed by some FD tuple (FD integrates
	// maximally); the converse is false.
	_, oj, err := Apply(context.Background(), FullOuterJoin{}, paperdata.VaccineSet(), vaccineMatcher(), paperRowIDs, false)
	if err != nil {
		t.Fatal(err)
	}
	_, fdt, err := Apply(context.Background(), ALITEFD{}, paperdata.VaccineSet(), vaccineMatcher(), paperRowIDs, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range oj {
		covered := false
		for _, b := range fdt {
			if fd.Subsumes(b.Values, a.Values) {
				covered = true
				break
			}
		}
		if !covered {
			t.Errorf("outer-join tuple %v not subsumed by any FD tuple", a.Values)
		}
	}
}

func TestInnerJoin(t *testing.T) {
	_, tuples, err := Apply(context.Background(), InnerJoin{}, paperdata.VaccineSet(), vaccineMatcher(), paperRowIDs, false)
	if err != nil {
		t.Fatal(err)
	}
	// Inner join keeps only fully-matching chains: T4⋈T5 on Approver gives
	// (Pfizer,FDA,United States); joining T6 on (Vaccine,Country) requires
	// Vaccine=Pfizer AND Country=United States in T6 — absent — so the
	// chain is empty.
	if len(tuples) != 0 {
		t.Errorf("inner join = %d tuples, want 0: %v", len(tuples), tuples)
	}
}

func TestUnionOperator(t *testing.T) {
	_, tuples, err := Apply(context.Background(), Union{}, paperdata.VaccineSet(), vaccineMatcher(), paperRowIDs, false)
	if err != nil {
		t.Fatal(err)
	}
	// Outer union keeps every padded source tuple (6 rows, all distinct).
	if len(tuples) != 6 {
		t.Errorf("union = %d tuples, want 6", len(tuples))
	}
}

// canonicalColumns reorders a table's columns alphabetically by header so
// results from different alignment orders become comparable.
func canonicalColumns(t *testing.T, tb *table.Table) *table.Table {
	t.Helper()
	idx := make([]int, tb.NumCols())
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return tb.Columns[idx[a]] < tb.Columns[idx[b]] })
	out, err := tb.Project("canon", idx...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestOuterJoinOrderDependence(t *testing.T) {
	// The paper motivates FD as the associative alternative: outer join
	// chains depend on table order. T5,T6,T4 vs T4,T5,T6 differ — the
	// reversed order happens to derive the J&J fact while the paper's
	// order does not.
	tablesA := paperdata.VaccineSet()
	tablesB := []*table.Table{paperdata.T5(), paperdata.T6(), paperdata.T4()}
	ta, _, err := Apply(context.Background(), FullOuterJoin{}, tablesA, vaccineMatcher(), paperRowIDs, false)
	if err != nil {
		t.Fatal(err)
	}
	tb, _, err := Apply(context.Background(), FullOuterJoin{}, tablesB, vaccineMatcher(), paperRowIDs, false)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalColumns(t, ta).EqualUnordered(canonicalColumns(t, tb)) {
		t.Error("outer join chain should be order-dependent on the Fig. 7 tables")
	}
	// FD must be order-invariant on the same permutation.
	fa, _, err := Apply(context.Background(), ALITEFD{}, tablesA, vaccineMatcher(), paperRowIDs, false)
	if err != nil {
		t.Fatal(err)
	}
	fb, _, err := Apply(context.Background(), ALITEFD{}, tablesB, vaccineMatcher(), paperRowIDs, false)
	if err != nil {
		t.Fatal(err)
	}
	if !canonicalColumns(t, fa).EqualUnordered(canonicalColumns(t, fb)) {
		t.Errorf("FD must be order-invariant:\n%s\n%s", fa, fb)
	}
}

func TestCrossProductWhenNoSharedPositions(t *testing.T) {
	a := table.New("A", "x")
	a.MustAddRow(table.StringValue("p"))
	a.MustAddRow(table.StringValue("q"))
	b := table.New("B", "y")
	b.MustAddRow(table.IntValue(1))
	oracle := schemamatch.Oracle{Label: func(name string, col int) string { return name }}
	_, tuples, err := Apply(context.Background(), FullOuterJoin{}, []*table.Table{a, b}, oracle, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuples) != 2 {
		t.Errorf("cross product of 2x1 = %d tuples, want 2", len(tuples))
	}
}

func TestPrepareValidation(t *testing.T) {
	if _, _, err := Prepare(nil, nil, nil); err == nil {
		t.Error("empty set must error")
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	want := []string{"alite-fd", "inner-join", "outer-join", "union"}
	if !reflect.DeepEqual(r.Names(), want) {
		t.Errorf("builtin names = %v", r.Names())
	}
	if _, ok := r.Get("alite-fd"); !ok {
		t.Error("alite-fd missing")
	}
	if err := r.Register(ALITEFD{}); err == nil {
		t.Error("duplicate registration must error")
	}
	if err := r.Register(Func{OpName: ""}); err == nil {
		t.Error("empty name must error")
	}
	custom := Func{OpName: "left-pad", F: func(ctx context.Context, schema []string, sets []AlignedSet) ([]Tuple, error) {
		return nil, nil
	}}
	if err := r.Register(custom); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Get("left-pad"); !ok {
		t.Error("custom operator not registered")
	}
}

// TestRegisterRefusesNilFunc: a Func without F could only fail every
// request that names it, by the server's fault, so Register refuses it, by
// value or by pointer, and the name stays free.
func TestRegisterRefusesNilFunc(t *testing.T) {
	r := NewRegistry()
	for _, op := range []Operator{Func{OpName: "no-func"}, &Func{OpName: "no-func"}} {
		if err := r.Register(op); err == nil {
			t.Errorf("Register(%#v) accepted a Func with no F", op)
		}
	}
	if _, ok := r.Get("no-func"); ok {
		t.Error("a refused operator was registered")
	}
}

// TestApplyContainsOperatorFaults: an operator that panics, or that returns
// a tuple whose width is not the schema's, is answered as one
// *OperatorError naming the operator, with no table; Apply itself never
// panics and never renders a ragged table.
func TestApplyContainsOperatorFaults(t *testing.T) {
	faults := []struct {
		op   Func
		want string
	}{
		{Func{OpName: "explodes", F: func(context.Context, []string, []AlignedSet) ([]Tuple, error) {
			panic("user operator exploded")
		}}, `integrate: operator "explodes" panicked: user operator exploded`},
		{Func{OpName: "narrow", F: func(_ context.Context, schema []string, _ []AlignedSet) ([]Tuple, error) {
			return []Tuple{{Values: make([]table.Value, len(schema))}, {Values: []table.Value{table.StringValue("x")}}}, nil
		}}, `integrate: operator "narrow" returned tuple 1 with 1 values for 3 columns`},
	}
	for _, f := range faults {
		out, tuples, err := Apply(context.Background(), f.op, paperdata.VaccineSet(), vaccineMatcher(), nil, false)
		var fault *OperatorError
		if !errors.As(err, &fault) || fault.Operator != f.op.OpName {
			t.Fatalf("%s: err = %v, want an *OperatorError for it", f.op.OpName, err)
		}
		if err.Error() != f.want {
			t.Errorf("%s: err = %q, want %q", f.op.OpName, err, f.want)
		}
		if out != nil || tuples != nil {
			t.Errorf("%s: a faulted operator rendered %v / %d tuples", f.op.OpName, out, len(tuples))
		}
	}
}

func TestFuncOperator(t *testing.T) {
	// Fig. 6's scenario: a user-defined outer-join operator plugged in as a
	// function behaves identically to the built-in.
	user := Func{OpName: "my-outer-join", F: FullOuterJoin{}.Run}
	got, _, err := Apply(context.Background(), user, paperdata.VaccineSet(), vaccineMatcher(), paperRowIDs, false)
	if err != nil {
		t.Fatal(err)
	}
	builtin, _, err := Apply(context.Background(), FullOuterJoin{}, paperdata.VaccineSet(), vaccineMatcher(), paperRowIDs, false)
	if err != nil {
		t.Fatal(err)
	}
	cmp := got.Clone()
	cmp.Name = builtin.Name
	if !cmp.EqualUnordered(builtin) {
		t.Error("user-defined operator diverges from built-in")
	}
	broken := Func{OpName: "broken"}
	if _, err := broken.Run(context.Background(), nil, nil); err == nil {
		t.Error("Func without F must error")
	}
}

func TestApplyNamesResult(t *testing.T) {
	got, _, err := Apply(context.Background(), FullOuterJoin{}, paperdata.VaccineSet(), vaccineMatcher(), nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "outer-join(T4,T5,T6)" {
		t.Errorf("result name = %q", got.Name)
	}
	withProv, _, err := Apply(context.Background(), FullOuterJoin{}, paperdata.VaccineSet(), vaccineMatcher(), paperRowIDs, true)
	if err != nil {
		t.Fatal(err)
	}
	if withProv.Columns[0] != "TIDs" {
		t.Error("provenance column missing")
	}
}
