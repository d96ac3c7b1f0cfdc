package table

import (
	"strings"
	"testing"
)

func sample() *Table {
	t := New("t1", "Country", "City", "Rate")
	t.MustAddRow(StringValue("Germany"), StringValue("Berlin"), IntValue(63))
	t.MustAddRow(StringValue("England"), StringValue("Manchester"), IntValue(78))
	t.MustAddRow(StringValue("Spain"), StringValue("Barcelona"), IntValue(82))
	return t
}

func TestNewAndDims(t *testing.T) {
	tb := sample()
	if tb.NumRows() != 3 || tb.NumCols() != 3 {
		t.Fatalf("dims = %dx%d, want 3x3", tb.NumRows(), tb.NumCols())
	}
}

func TestAddRowArity(t *testing.T) {
	tb := New("x", "a", "b")
	if err := tb.AddRow(IntValue(1)); err == nil {
		t.Error("AddRow with wrong arity must error")
	}
	if err := tb.AddRow(IntValue(1), IntValue(2)); err != nil {
		t.Errorf("AddRow: %v", err)
	}
}

func TestMustAddRowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAddRow must panic on arity mismatch")
		}
	}()
	New("x", "a").MustAddRow(IntValue(1), IntValue(2))
}

func TestColumnIndexAndAccess(t *testing.T) {
	tb := sample()
	i, ok := tb.ColumnIndex("City")
	if !ok || i != 1 {
		t.Fatalf("ColumnIndex(City) = %d,%v", i, ok)
	}
	if _, ok := tb.ColumnIndex("missing"); ok {
		t.Error("ColumnIndex(missing) should fail")
	}
	col := tb.Column(1)
	if len(col) != 3 || col[0].Str() != "Berlin" {
		t.Errorf("Column(1) = %v", col)
	}
}

func TestDistinctStrings(t *testing.T) {
	tb := New("x", "c")
	tb.MustAddRow(StringValue("a"))
	tb.MustAddRow(StringValue("b"))
	tb.MustAddRow(StringValue("a"))
	tb.MustAddRow(NullValue())
	tb.MustAddRow(IntValue(7))
	got := tb.DistinctStrings(0)
	want := []string{"a", "b", "7"}
	if len(got) != len(want) {
		t.Fatalf("DistinctStrings = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("DistinctStrings[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestProject(t *testing.T) {
	tb := sample()
	p, err := tb.Project("p", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCols() != 2 || p.Columns[0] != "Rate" || p.Columns[1] != "Country" {
		t.Errorf("Project headers = %v", p.Columns)
	}
	if !p.Cell(0, 0).Equal(IntValue(63)) || p.Cell(0, 1).Str() != "Germany" {
		t.Error("Project cells wrong")
	}
	if _, err := tb.Project("bad", 5); err == nil {
		t.Error("Project out of range must error")
	}
}

func TestCloneIsDeep(t *testing.T) {
	tb := sample()
	cp := tb.Clone()
	cp.Rows[0][0] = StringValue("CHANGED")
	cp.Columns[0] = "CHANGED"
	if tb.Rows[0][0].Str() == "CHANGED" || tb.Columns[0] == "CHANGED" {
		t.Error("Clone is shallow")
	}
	if !tb.EqualUnordered(sample()) {
		t.Error("original mutated")
	}
}

func TestEqualAndUnordered(t *testing.T) {
	a := sample()
	b := sample()
	if !a.Equal(b) {
		t.Error("identical tables must be Equal")
	}
	// Swap rows: Equal fails, EqualUnordered holds.
	b.Rows[0], b.Rows[1] = b.Rows[1], b.Rows[0]
	if a.Equal(b) {
		t.Error("row order must matter for Equal")
	}
	if !a.EqualUnordered(b) {
		t.Error("EqualUnordered must ignore row order")
	}
	// Different header fails both.
	c := sample()
	c.Columns[2] = "Other"
	if a.Equal(c) || a.EqualUnordered(c) {
		t.Error("headers must matter")
	}
	// Different cell fails.
	d := sample()
	d.Rows[2][2] = IntValue(99)
	if a.Equal(d) || a.EqualUnordered(d) {
		t.Error("cells must matter")
	}
}

func TestSortRowsCanonical(t *testing.T) {
	tb := New("x", "v")
	tb.MustAddRow(StringValue("z"))
	tb.MustAddRow(NullValue())
	tb.MustAddRow(IntValue(5))
	tb.MustAddRow(BoolValue(true))
	tb.SortRows()
	kinds := []Kind{Null, Bool, Int, String}
	for i, k := range kinds {
		if tb.Rows[i][0].Kind() != k {
			t.Errorf("sorted row %d kind = %v, want %v", i, tb.Rows[i][0].Kind(), k)
		}
	}
}

func TestRowKeyDistinguishes(t *testing.T) {
	a := []Value{StringValue("ab"), StringValue("c")}
	b := []Value{StringValue("a"), StringValue("bc")}
	if RowKey(a) == RowKey(b) {
		t.Error("RowKey must not collide across cell boundaries")
	}
	n1 := []Value{NullValue(), StringValue("x")}
	n2 := []Value{ProducedNull(), StringValue("x")}
	if RowKey(n1) != RowKey(n2) {
		t.Error("null kinds must share a key (set semantics)")
	}
}

func TestCompareRows(t *testing.T) {
	a := []Value{IntValue(1), StringValue("a")}
	b := []Value{IntValue(1), StringValue("b")}
	if CompareRows(a, b) >= 0 || CompareRows(b, a) <= 0 || CompareRows(a, a) != 0 {
		t.Error("CompareRows ordering broken")
	}
	short := []Value{IntValue(1)}
	if CompareRows(short, a) >= 0 {
		t.Error("shorter row must sort first on prefix tie")
	}
}

func TestStringRendering(t *testing.T) {
	tb := sample()
	s := tb.String()
	if !strings.Contains(s, "t1 (3 rows)") {
		t.Errorf("render missing banner: %q", s)
	}
	if !strings.Contains(s, "Berlin") || !strings.Contains(s, "Country") {
		t.Errorf("render missing contents: %q", s)
	}
}
