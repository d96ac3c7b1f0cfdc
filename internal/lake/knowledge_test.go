package lake

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/kb"
	"repro/internal/paperdata"
	"repro/internal/synth"
	"repro/internal/table"
)

// TestSynthesizedKBEveryBuild pins the build order's one shared read: a Lake
// synthesizes its KB from the domains it has just extracted, a Sharded from
// kb.Synthesize over its whole input, and both hold exactly the KB the
// curated one merged with kb.Synthesize(tables) gives — Dump for Dump — on
// the paper lakes and on synthetic lakes.
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
