package persist

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/difftest"
	"repro/internal/kb"
	"repro/internal/lake"
	"repro/internal/paperdata"
	"repro/internal/table"
)

// roundTrip pushes a lake through the full snapshot codec — stateOf,
// encodeSnapshot, decodeSnapshot, buildLake (lake.New) — and returns the
// recovered lake.
func roundTrip(t *testing.T, l *lake.Lake) *lake.Lake {
	t.Helper()
	img := encodeSnapshot(stateOf(l), 7)
	st2, seq, err := decodeSnapshot("snap", img)
	if err != nil {
		t.Fatalf("decodeSnapshot: %v", err)
	}
	if seq != 7 {
		t.Fatalf("decoded seq = %d, want 7", seq)
	}
	r, err := buildLake(st2)
	if err != nil {
		t.Fatalf("buildLake: %v", err)
	}
	return r
}

// TestSnapshotRoundTripPaperData snapshots a lake over every paper dataset
// (the running-example tables T1-T6, the COVID-19 lake, the vaccine
// integration set) plus the differential pool, restores it, and requires
// byte-identical discovery behavior — per-method rankings, integration
// sets and raw index answers — against the original lake.
func TestSnapshotRoundTripPaperData(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	diffPool := make([]*table.Table, 12)
	for i := range diffPool {
		diffPool[i] = difftest.DiffTable(rng, fmt.Sprintf("p%02d", i))
	}
	cases := []struct {
		name   string
		tables []*table.Table
		opts   lake.Options
	}{
		{"paper-tables", []*table.Table{paperdata.T1(), paperdata.T2(), paperdata.T3(), paperdata.T4(), paperdata.T5(), paperdata.T6()}, lake.Options{Knowledge: kb.Demo()}},
		{"covid", paperdata.CovidLake(), lake.Options{Knowledge: kb.Demo()}},
		{"covid-synth-kb", paperdata.CovidLake(), lake.Options{Knowledge: kb.Demo(), SynthesizeKB: true}},
		{"vaccine", paperdata.VaccineSet(), lake.Options{Knowledge: kb.Demo()}},
		{"differential-pool", diffPool, lake.Options{Knowledge: difftest.DiffKB()}},
		{"no-kb", diffPool[:6], lake.Options{}},
		{"empty", nil, lake.Options{Knowledge: difftest.DiffKB()}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			l, err := lake.New(tc.tables, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			r := roundTrip(t, l)
			// Query with the lake's own tables (cached-domain fast paths) and
			// one foreign table (per-query extraction + annotation).
			queries := tc.tables
			if len(queries) > 4 {
				queries = queries[:4]
			}
			queries = append(append([]*table.Table(nil), queries...), difftest.DiffTable(rng, "foreign"))
			if got, want := difftest.LakeSig(r, queries), difftest.LakeSig(l, queries); got != want {
				t.Fatalf("restored lake diverged from original\n got:\n%s\nwant:\n%s", got, want)
			}
			if got, want := r.Size(), l.Size(); got != want {
				t.Fatalf("restored size = %d, want %d", got, want)
			}
		})
	}
}

// TestRestoredLakeStaysMutable pins that a restored lake is not a frozen
// replica: Add/Remove after restore behave identically to the same
// mutations on the original lake.
func TestRestoredLakeStaysMutable(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pool := make([]*table.Table, 8)
	for i := range pool {
		pool[i] = difftest.DiffTable(rng, fmt.Sprintf("m%02d", i))
	}
	opts := lake.Options{Knowledge: difftest.DiffKB()}
	l, err := lake.New(pool[:5], opts)
	if err != nil {
		t.Fatal(err)
	}
	r := roundTrip(t, l)
	for _, target := range []*lake.Lake{l, r} {
		if err := target.Add(pool[5], pool[6]); err != nil {
			t.Fatalf("Add: %v", err)
		}
		if err := target.Remove(pool[1].Name); err != nil {
			t.Fatalf("Remove: %v", err)
		}
	}
	queries := []*table.Table{pool[0], pool[6], pool[7]}
	if got, want := difftest.LakeSig(r, queries), difftest.LakeSig(l, queries); got != want {
		t.Fatalf("mutated restored lake diverged from mutated original\n got:\n%s\nwant:\n%s", got, want)
	}
}
