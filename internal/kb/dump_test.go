package kb_test

import (
	"reflect"
	"testing"

	"repro/internal/kb"
	"repro/internal/paperdata"
	"repro/internal/synth"
)

// TestDumpMatchesReference: Dump returns the reference's lists, in its
// order, nil lists included, for an empty KB, the demo KB, synthesized KBs
// and a curated KB merged with a synthesized one — both while the KB is
// mutable and once it is frozen, when Dump reads the compiled engine. The
// reference reads the string form, so it is taken before freezing.
func TestDumpMatchesReference(t *testing.T) {
	sl := synth.GenerateLake(synth.LakeOptions{Families: 6, TablesPerFamily: 3, RowsPerTable: 30, JoinablePerFamily: 1, NoiseTables: 4, Seed: 5})
	synthesized := kb.Synthesize(sl.Tables, kb.SynthesizeOptions{})
	paper := kb.Synthesize(paperdata.CovidLake(), kb.SynthesizeOptions{})
	for name, k := range map[string]*kb.KB{
		"empty":       kb.New(),
		"demo":        kb.Demo(),
		"synthesized": synthesized,
		"paper":       paper,
		"merged":      kb.Demo().Merge(synthesized),
	} {
		want := kb.DumpReference(k)
		for _, form := range []string{"mutable", "frozen"} {
			if form == "frozen" {
				k.Compiled()
			}
			if got := k.Dump(); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %s: Dump differs from the reference (%d/%d types, %d/%d entities, %d/%d aliases, %d/%d relations)", name, form,
					len(got.Types), len(want.Types), len(got.Entities), len(want.Entities),
					len(got.Aliases), len(want.Aliases), len(got.Relations), len(want.Relations))
			}
		}
	}
}
