package schemamatch

import (
	"reflect"
	"testing"

	"repro/internal/table"
)

// TestIntegrationSchemaNamesUnique: a repeated cluster name takes the
// first free "_N" suffix, never one a header (or an earlier suffix) already
// holds, so by-name lookups on the integrated table see one column per
// name. Every matcher names clusters through buildAlignment.
func TestIntegrationSchemaNamesUnique(t *testing.T) {
	a := table.New("a", "x_2", "x")
	a.MustAddRow(table.StringValue("p"), table.IntValue(42424242))
	b := table.New("b", "x")
	b.MustAddRow(table.BoolValue(true))
	c := table.New("c", "x")
	c.MustAddRow(table.StringValue("zzz qqq"))
	singletons := Oracle{Label: func(string, int) string { return "" }}
	for _, tc := range []struct {
		tables []*table.Table
		want   []string
	}{
		{[]*table.Table{a, b}, []string{"x_2", "x", "x_3"}},
		{[]*table.Table{b, c, b}, []string{"x", "x_2", "x_3"}},
		{[]*table.Table{b, a, c}, []string{"x", "x_2", "x_3", "x_4"}},
	} {
		got, err := singletons.Align(tc.tables)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Schema, tc.want) {
			t.Errorf("oracle schema = %q, want %q", got.Schema, tc.want)
		}
	}
	for name, m := range map[string]Matcher{
		"holistic":      Holistic{},
		"auto-holistic": AutoHolistic{},
		"header":        HeaderMatcher{},
	} {
		got, err := m.Align([]*table.Table{a, b, c})
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, s := range got.Schema {
			if seen[s] {
				t.Errorf("%s: duplicate integration ID %q in %q", name, s, got.Schema)
			}
			seen[s] = true
		}
	}
}
