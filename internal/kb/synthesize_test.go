package kb

import (
	"testing"

	"repro/internal/table"
)

// lakeFixture builds two tables whose first columns share most values
// (same synthesized type) and a third unrelated table.
func lakeFixture() []*table.Table {
	a := table.New("a", "name", "team")
	a.MustAddRow(table.StringValue("alice"), table.StringValue("red"))
	a.MustAddRow(table.StringValue("bob"), table.StringValue("blue"))
	a.MustAddRow(table.StringValue("carol"), table.StringValue("red"))

	b := table.New("b", "person", "squad")
	b.MustAddRow(table.StringValue("alice"), table.StringValue("red"))
	b.MustAddRow(table.StringValue("bob"), table.StringValue("green"))
	b.MustAddRow(table.StringValue("dave"), table.StringValue("blue"))

	c := table.New("c", "product", "price")
	c.MustAddRow(table.StringValue("widget"), table.IntValue(5))
	c.MustAddRow(table.StringValue("gadget"), table.IntValue(9))
	return []*table.Table{a, b, c}
}

func TestSynthesizeClustersColumns(t *testing.T) {
	k := Synthesize(lakeFixture(), SynthesizeOptions{})
	// alice appears in both name columns; they overlap 2/4 = 0.5 >= 0.3 so
	// they share one synthesized type.
	ta := k.TypesOf("alice")
	tb := k.TypesOf("bob")
	if len(ta) != 1 || len(tb) != 1 || ta[0] != tb[0] {
		t.Errorf("alice types %v, bob types %v — expected one shared synthesized type", ta, tb)
	}
	// The product column does not overlap the name columns.
	tp := k.TypesOf("widget")
	if len(tp) != 1 || tp[0] == ta[0] {
		t.Errorf("widget types %v must differ from %v", tp, ta)
	}
}

func TestSynthesizeRelationships(t *testing.T) {
	k := Synthesize(lakeFixture(), SynthesizeOptions{})
	rs := k.RelationsBetween("alice", "red")
	if len(rs) == 0 {
		t.Fatal("expected synthesized relationship alice->red")
	}
	// Both tables relate the same synthesized types, so the labels from
	// table a and table b agree (that is the point of the synthesized KB).
	rs2 := k.RelationsBetween("bob", "green")
	if len(rs2) == 0 || rs[0] != rs2[0] {
		t.Errorf("labels differ across tables: %v vs %v", rs, rs2)
	}
}

func TestSynthesizeSkipsNumericColumns(t *testing.T) {
	k := Synthesize(lakeFixture(), SynthesizeOptions{})
	if k.HasEntity("5") || k.HasEntity("9") {
		t.Error("numeric measure column must not produce entities")
	}
}

func TestSynthesizeEmptyLake(t *testing.T) {
	k := Synthesize(nil, SynthesizeOptions{})
	if k.NumEntities() != 0 || k.NumRelations() != 0 {
		t.Error("empty lake must synthesize empty KB")
	}
}

func TestSynthesizePairCap(t *testing.T) {
	big := table.New("big", "x", "y")
	for i := 0; i < maxPairsPerTable+100; i++ {
		big.MustAddRow(table.StringValue(stringN("x", i)), table.StringValue(stringN("y", i)))
	}
	k := Synthesize([]*table.Table{big}, SynthesizeOptions{})
	if k.NumRelations() > maxPairsPerTable {
		t.Errorf("pair cap not applied: %d relations", k.NumRelations())
	}
}

func TestMostlyTextual(t *testing.T) {
	tb := table.New("t", "text", "num", "mixed", "empty")
	tb.MustAddRow(table.StringValue("a"), table.IntValue(1), table.StringValue("x"), table.NullValue())
	tb.MustAddRow(table.StringValue("b"), table.IntValue(2), table.IntValue(3), table.NullValue())
	if !MostlyTextual(tb, 0) {
		t.Error("text column must be textual")
	}
	if MostlyTextual(tb, 1) {
		t.Error("numeric column must not be textual")
	}
	if !MostlyTextual(tb, 2) {
		t.Error("half-text column counts as textual (>= half)")
	}
	if MostlyTextual(tb, 3) {
		t.Error("all-null column must not be textual")
	}
}

func stringN(prefix string, i int) string {
	return prefix + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+(i/676)%26))
}
