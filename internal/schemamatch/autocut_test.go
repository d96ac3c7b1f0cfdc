package schemamatch

import (
	"testing"

	"repro/internal/kb"
	"repro/internal/paperdata"
	"repro/internal/table"
)

func TestAutoHolisticAlignsFig2Tables(t *testing.T) {
	tables := []*table.Table{paperdata.T1(), paperdata.T2(), paperdata.T3()}
	got, err := AutoHolistic{Knowledge: kb.Demo()}.Align(tables)
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := fig2Truth().Align(tables)
	_, _, f1 := PairwiseScores(got, truth)
	if f1 != 1 {
		t.Errorf("auto-cut alignment f1 = %v, schema %v", f1, got.Schema)
	}
	if len(got.Schema) != 5 {
		t.Errorf("auto-cut schema = %v, want 5 IDs", got.Schema)
	}
}

func TestAutoHolisticVaccineTables(t *testing.T) {
	got, err := AutoHolistic{Knowledge: kb.Demo()}.Align(paperdata.VaccineSet())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Schema) != 3 {
		t.Errorf("auto-cut vaccine schema = %v, want 3 IDs", got.Schema)
	}
}

func TestAutoHolisticRespectsCannotLink(t *testing.T) {
	tb := table.New("twin", "a", "b")
	tb.MustAddRow(table.StringValue("x"), table.StringValue("x"))
	got, err := AutoHolistic{}.Align([]*table.Table{tb})
	if err != nil {
		t.Fatal(err)
	}
	pa, _ := got.PositionOf(0, 0)
	pb, _ := got.PositionOf(0, 1)
	if pa == pb {
		t.Error("cannot-link violated by auto-cut")
	}
}

func TestAutoHolisticValidation(t *testing.T) {
	if _, err := (AutoHolistic{}).Align(nil); err == nil {
		t.Error("empty set must error")
	}
	if _, err := (AutoHolistic{}).Align([]*table.Table{table.New("e")}); err == nil {
		t.Error("zero-column set must error")
	}
}

func TestAvgSilhouette(t *testing.T) {
	// Two tight clusters, far apart: silhouette near 1.
	sim := [][]float64{
		{1.0, 0.9, 0.1, 0.1},
		{0.9, 1.0, 0.1, 0.1},
		{0.1, 0.1, 1.0, 0.9},
		{0.1, 0.1, 0.9, 1.0},
	}
	good := avgSilhouette([]int{0, 0, 1, 1}, sim)
	if good < 0.8 {
		t.Errorf("good clustering silhouette = %v", good)
	}
	// The crossed clustering scores worse.
	bad := avgSilhouette([]int{0, 1, 0, 1}, sim)
	if bad >= good {
		t.Errorf("bad clustering %v should score below good %v", bad, good)
	}
	// Degenerate cases.
	if avgSilhouette([]int{0, 0, 0, 0}, sim) != 0 {
		t.Error("single cluster scores 0")
	}
	if avgSilhouette(nil, nil) != 0 {
		t.Error("empty clustering scores 0")
	}
	if avgSilhouette([]int{0, 1, 2, 3}, sim) != 0 {
		t.Error("all singletons score 0")
	}
}

func TestAutoHolisticHeaderlessStillAligns(t *testing.T) {
	tables := []*table.Table{paperdata.T1(), paperdata.T2(), paperdata.T3()}
	for _, tb := range tables {
		for c := range tb.Columns {
			tb.Columns[c] = ""
		}
	}
	got, err := AutoHolistic{Knowledge: kb.Demo()}.Align(tables)
	if err != nil {
		t.Fatal(err)
	}
	truth, _ := fig2Truth().Align(tables)
	_, _, f1 := PairwiseScores(got, truth)
	if f1 < 0.99 {
		t.Errorf("headerless auto-cut f1 = %v", f1)
	}
}
