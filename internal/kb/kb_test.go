package kb

import (
	"fmt"
	"strings"
	"testing"
)

func TestAddEntityAndTypes(t *testing.T) {
	k := New()
	k.AddType("place", "")
	k.AddType("city", "place")
	k.AddEntity("Berlin", "city")
	k.AddEntity("berlin", "city") // repeated add must not duplicate
	ts := k.TypesOf("BERLIN")
	if len(ts) != 1 || ts[0] != "city" {
		t.Errorf("TypesOf = %v", ts)
	}
	if k.TypesOf("unknown") != nil {
		t.Error("unknown entity must have nil types")
	}
	if !k.HasEntity("Berlin") || k.HasEntity("Atlantis") {
		t.Error("HasEntity broken")
	}
	if k.NumEntities() != 1 {
		t.Errorf("NumEntities = %d", k.NumEntities())
	}
}

func TestAliasResolution(t *testing.T) {
	k := New()
	k.AddAlias("USA", "United States")
	if k.Canonical("usa") != "united states" {
		t.Errorf("Canonical(usa) = %q", k.Canonical("usa"))
	}
	if !k.SameEntity("USA", "United  States") {
		t.Error("SameEntity via alias broken")
	}
	if k.SameEntity("", "") {
		t.Error("empty strings must not be the same entity")
	}
	// Self-alias and empty alias are ignored.
	k.AddAlias("x", "x")
	if k.Canonical("x") != "x" {
		t.Error("self alias should be a no-op")
	}
}

func TestAncestors(t *testing.T) {
	k := New()
	k.AddType("thing", "")
	k.AddType("place", "thing")
	k.AddType("city", "place")
	anc := k.Ancestors("city")
	if len(anc) != 2 || anc[0] != "place" || anc[1] != "thing" {
		t.Errorf("Ancestors = %v", anc)
	}
	if len(k.Ancestors("thing")) != 0 {
		t.Error("root has no ancestors")
	}
	// Cycle defense.
	k.AddType("a", "b")
	k.AddType("b", "a")
	if len(k.Ancestors("a")) > 2 {
		t.Error("cycle must terminate")
	}
}

func TestRelations(t *testing.T) {
	k := New()
	k.AddAlias("j&j", "jnj")
	k.AddRelation("JnJ", "approvedBy", "FDA")
	k.AddRelation("jnj", "approvedBy", "fda") // duplicate
	rs := k.RelationsBetween("J&J", "FDA")
	if len(rs) != 1 || rs[0] != "approvedBy" {
		t.Errorf("RelationsBetween = %v", rs)
	}
	if k.RelationsBetween("FDA", "JnJ") != nil {
		t.Error("relations are directed")
	}
	if k.NumRelations() != 1 {
		t.Errorf("NumRelations = %d", k.NumRelations())
	}
}

func TestAnnotateColumn(t *testing.T) {
	k := Demo()
	ann := k.AnnotateColumn([]string{"Berlin", "Manchester", "Barcelona", "Nowhereville"})
	if ann.Type != TypeCity {
		t.Errorf("type = %q, want city", ann.Type)
	}
	if ann.Confidence != 0.75 {
		t.Errorf("confidence = %v, want 0.75", ann.Confidence)
	}
	if got := k.AnnotateColumn(nil); got.Type != "" || got.Confidence != 0 {
		t.Errorf("empty column annotation = %+v", got)
	}
	if got := k.AnnotateColumn([]string{"zzz", "qqq"}); got.Type != "" {
		t.Errorf("unknown values should not annotate, got %+v", got)
	}
}

func TestAnnotateColumnMixedPrefersSupertype(t *testing.T) {
	k := Demo()
	// Half cities, half countries: the shared supertype "place" accumulates
	// decayed votes from both and wins over either sibling.
	ann := k.AnnotateColumn([]string{"Berlin", "Boston", "Germany", "Spain"})
	if ann.Type != TypePlace {
		t.Errorf("mixed column type = %q, want place", ann.Type)
	}
	if ann.Confidence != 1 {
		t.Errorf("mixed column confidence = %v, want 1", ann.Confidence)
	}
}

func TestAnnotateColumnPair(t *testing.T) {
	k := Demo()
	pairs := [][2]string{
		{"Berlin", "Germany"},
		{"Manchester", "England"},
		{"Boston", "USA"}, // via alias
		{"Nowhereville", "Germany"},
	}
	ann := k.AnnotateColumnPair(pairs)
	if ann.Label != RelLocatedIn || ann.Inverse {
		t.Errorf("pair annotation = %+v, want locatedIn forward", ann)
	}
	if ann.Confidence != 0.75 {
		t.Errorf("pair confidence = %v, want 0.75", ann.Confidence)
	}
	// Reversed pair direction must be detected as inverse.
	rev := k.AnnotateColumnPair([][2]string{{"Germany", "Berlin"}, {"Spain", "Barcelona"}})
	if rev.Label != RelLocatedIn || !rev.Inverse {
		t.Errorf("reversed pair = %+v, want locatedIn inverse", rev)
	}
	if got := k.AnnotateColumnPair(nil); got.Label != "" {
		t.Errorf("empty pairs = %+v", got)
	}
}

func TestDemoKBFacts(t *testing.T) {
	k := Demo()
	// The Fig. 7/8 facts the demo depends on.
	if !k.SameEntity("J&J", "JnJ") {
		t.Error("J&J must alias JnJ")
	}
	if !k.SameEntity("USA", "United States") {
		t.Error("USA must alias United States")
	}
	if rs := k.RelationsBetween("jnj", "fda"); len(rs) == 0 {
		t.Error("JnJ approvedBy FDA missing")
	}
	if rs := k.RelationsBetween("pfizer", "united states"); len(rs) == 0 {
		t.Error("Pfizer originCountry United States missing")
	}
	// Cities of the Fig. 2 example.
	for _, city := range []string{"berlin", "manchester", "barcelona", "toronto", "mexico city", "boston", "new delhi"} {
		ts := k.TypesOf(city)
		found := false
		for _, tt := range ts {
			if tt == TypeCity {
				found = true
			}
		}
		if !found {
			t.Errorf("city %q missing from demo KB", city)
		}
	}
	if len(DemoCities()) < 40 {
		t.Errorf("demo KB has only %d cities", len(DemoCities()))
	}
	if DemoCountryOf("berlin") != "germany" {
		t.Error("DemoCountryOf broken")
	}
	if len(DemoVaccines()) < 5 || len(DemoAgencies()) < 5 {
		t.Error("demo vaccine/agency lists too small")
	}
}

func TestMerge(t *testing.T) {
	a := New()
	a.AddType("city", "")
	a.AddEntity("berlin", "city")
	a.AddAlias("bln", "berlin")
	a.AddRelation("berlin", "in", "germany")
	b := New()
	b.AddType("syn:x", "")
	b.AddEntity("berlin", "syn:x")
	b.AddRelation("berlin", "syn:rel", "germany")
	m := a.Merge(b)
	ts := m.TypesOf("berlin")
	if len(ts) != 2 {
		t.Errorf("merged types = %v", ts)
	}
	if len(m.RelationsBetween("berlin", "germany")) != 2 {
		t.Errorf("merged relations = %v", m.RelationsBetween("berlin", "germany"))
	}
	if m.Canonical("bln") != "berlin" {
		t.Error("merge must keep aliases")
	}
}

// TestCompiledFreezesKB pins the freeze contract: the first Compiled() call
// fixes the KB, later calls return the same engine, and each of the four
// mutators panics on the frozen KB without changing it. Merge still yields
// a mutable copy.
func TestCompiledFreezesKB(t *testing.T) {
	k := Demo()
	c := k.Compiled()
	if k.Compiled() != c {
		t.Fatal("Compiled must return the same engine on every call")
	}
	mutators := []struct {
		name string
		f    func()
	}{
		{"AddType", func() { k.AddType("island", TypePlace) }},
		{"AddEntity", func() { k.AddEntity("atlantis", TypeCity) }},
		{"AddAlias", func() { k.AddAlias("atl", "atlantis") }},
		{"AddRelation", func() { k.AddRelation("atlantis", "locatedIn", "ocean") }},
	}
	for _, m := range mutators {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("%s on a frozen KB did not panic", m.name)
				} else if !strings.Contains(fmt.Sprint(r), "Merge") {
					t.Errorf("%s panic %q does not point at Merge", m.name, r)
				}
			}()
			m.f()
		}()
	}
	if k.Compiled() != c || k.HasEntity("atlantis") || k.Canonical("atl") != "atl" {
		t.Error("a rejected mutation changed the frozen KB")
	}
	cp := k.Merge(New())
	cp.AddEntity("atlantis", TypeCity)
	if !cp.HasEntity("atlantis") || k.HasEntity("atlantis") {
		t.Error("Merge must give an independent, mutable copy of a frozen KB")
	}
}
