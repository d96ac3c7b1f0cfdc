package lake

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/kb"
	"repro/internal/paperdata"
	"repro/internal/synth"
	"repro/internal/table"
)

// TestSynthesizedKBEveryBuild pins the build order's one shared read: a Lake
// synthesizes its KB from the domains it has just extracted, a Sharded once
// from its shards' domains gathered back into input order, and both hold
// exactly the KB the curated one merged with kb.Synthesize(tables) gives —
// Dump for Dump — on the paper lakes and on synthetic lakes.
func TestSynthesizedKBEveryBuild(t *testing.T) {
	lakes := []struct {
		name   string
		tables []*table.Table
	}{
		{"covid", paperdata.CovidLake()},
		{"vaccine", paperdata.VaccineSet()},
		{"paper", []*table.Table{paperdata.T1(), paperdata.T2(), paperdata.T3(),
			paperdata.T4(), paperdata.T5(), paperdata.T6()}},
	}
	for _, seed := range []int64{1, 2} {
		sl := synth.GenerateLake(synth.LakeOptions{Seed: seed, Families: 12, TablesPerFamily: 6,
			RowsPerTable: 120, JoinablePerFamily: 2, NoiseTables: 24})
		lakes = append(lakes, struct {
			name   string
			tables []*table.Table
		}{fmt.Sprintf("synth seed %d", seed), sl.Tables})
	}
	for _, lk := range lakes {
		want := kb.Demo().Merge(kb.Synthesize(lk.tables, kb.SynthesizeOptions{})).Dump()
		l, err := New(lk.tables, Options{Knowledge: kb.Demo(), SynthesizeKB: true})
		if err != nil {
			t.Fatalf("%s: New: %v", lk.name, err)
		}
		s, err := NewSharded(lk.tables, 3, Options{Knowledge: kb.Demo(), SynthesizeKB: true})
		if err != nil {
			t.Fatalf("%s: NewSharded: %v", lk.name, err)
		}
		if got := l.Knowledge().Dump(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: New's KB differs from Demo().Merge(Synthesize(tables)): %d/%d types, %d/%d entities, %d/%d relations",
				lk.name, len(got.Types), len(want.Types), len(got.Entities), len(want.Entities), len(got.Relations), len(want.Relations))
		}
		if got := s.Knowledge().Dump(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: NewSharded's KB differs from Demo().Merge(Synthesize(tables)): %d/%d types, %d/%d entities, %d/%d relations",
				lk.name, len(got.Types), len(want.Types), len(got.Entities), len(want.Entities), len(got.Relations), len(want.Relations))
		}
		if len(want.Types) <= len(kb.Demo().Dump().Types) {
			t.Errorf("%s: synthesis added no type; the check compares nothing", lk.name)
		}
	}
}

// TestSynthesizedKBMergeRule pins the rule a build synthesizes into its
// curated KB by, on the edge cases the paper lakes never reach: an alias
// whose source is a lake cell value (relation endpoints are normalized, not
// alias-resolved), a curated syn:-named type with a parent (the curated
// parent wins), and a curated entity and relation that the lake also
// holds (synthesized types and labels come after the curated ones). Every
// build shape must hold exactly curated.Merge(kb.Synthesize(tables)), and
// the caller's curated KB must come out neither modified nor frozen.
func TestSynthesizedKBMergeRule(t *testing.T) {
	rows := func(name string, pairs ...string) *table.Table {
		tb := table.New(name, "City", "Country")
		for i := 0; i < len(pairs); i += 2 {
			tb.MustAddRow(table.StringValue(pairs[i]), table.StringValue(pairs[i+1]))
		}
		return tb
	}
	tables := []*table.Table{
		rows("A", "Berlin", "Germany", "Paris", "France", "Rome", "Italy", "Madrid", "Spain"),
		rows("B", "Berlin", "Germany", "Paris", "France", "Rome", "Italy", "Lisbon", "Portugal"),
		rows("C", "Vienna", "Austria", "Paris", "France", "Rome", "Italy", "Oslo", "Norway"),
		rows("D", "Madrid", "Spain", "Lisbon", "Portugal", "Oslo", "Norway", "Berlin", "Germany"),
	}
	curated := func() *kb.KB {
		k := kb.New()
		k.AddType("place", "")
		k.AddType("city", "place")
		k.AddType("syn:A.0", "place")
		k.AddEntity("Berlin", "city")
		k.AddAlias("Paris", "Rome")
		k.AddRelation("Berlin", "capitalOf", "Germany")
		return k
	}
	own := curated()
	want := own.Merge(kb.Synthesize(tables, kb.SynthesizeOptions{})).Dump()
	// The edge cases must be in want, or the comparison below pins nothing.
	label := "syn:syn:A.0->syn:A.1"
	if !slices.Contains(want.Types, kb.TypeDecl{Type: "syn:A.0", Parent: "place"}) ||
		!slices.ContainsFunc(want.Entities, func(e kb.EntityDecl) bool {
			return e.Entity == "berlin" && slices.Equal(e.Types, []string{"city", "syn:A.0"})
		}) ||
		!slices.ContainsFunc(want.Relations, func(r kb.RelationDecl) bool {
			return r.Subject == "paris" && r.Object == "france" && slices.Equal(r.Labels, []string{label})
		}) ||
		!slices.ContainsFunc(want.Relations, func(r kb.RelationDecl) bool {
			return r.Subject == "berlin" && r.Object == "germany" && slices.Equal(r.Labels, []string{"capitalOf", label})
		}) {
		t.Fatalf("the reference KB misses an edge case: %+v", want)
	}
	builds := []struct {
		name  string
		build func(Options) (Catalog, error)
	}{
		{"New", func(o Options) (Catalog, error) { return New(tables, o) }},
		{"NewSharded", func(o Options) (Catalog, error) { return NewSharded(tables, 3, o) }},
	}
	for _, b := range builds {
		c, err := b.build(Options{Knowledge: own, SynthesizeKB: true})
		if err != nil {
			t.Fatalf("%s: %v", b.name, err)
		}
		if got := c.Knowledge().Dump(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s's KB differs from curated.Merge(Synthesize(tables)):\n got  %+v\n want %+v", b.name, got, want)
		}
		if !reflect.DeepEqual(own.Dump(), curated().Dump()) {
			t.Fatalf("%s modified the caller's curated KB", b.name)
		}
	}
	own.AddEntity("Atlantis", "city") // panics if a build froze it
}
