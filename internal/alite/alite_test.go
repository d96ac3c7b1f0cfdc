package alite

import (
	"context"
	"testing"

	"repro/internal/fd"
	"repro/internal/kb"
	"repro/internal/paperdata"
	"repro/internal/schemamatch"
	"repro/internal/table"
)

func TestBuildInputFig3(t *testing.T) {
	// Holistic matching + outer union + FD over the paper's three tables,
	// compared against Fig. 3 including null kinds.
	tables := []*table.Table{paperdata.T1(), paperdata.T2(), paperdata.T3()}
	align, err := schemamatch.Holistic{Knowledge: kb.Demo()}.Align(tables)
	if err != nil {
		t.Fatal(err)
	}
	in, err := BuildInput(tables, align, paperdata.TupleID)
	if err != nil {
		t.Fatal(err)
	}
	if len(in.Schema) != 5 {
		t.Errorf("schema = %v", in.Schema)
	}
	tuples, err := fd.ALITECtx(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	want := paperdata.Fig3Expected()
	got := fd.ToTable("fig3", in.Schema, tuples, false)
	got.Columns = want.Columns // integration IDs carry the same headers here
	if !got.EqualUnordered(want) {
		t.Fatalf("FD over BuildInput != Fig. 3:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestRelationRejectsIncompleteAlignment(t *testing.T) {
	// An alignment that does not place every column cannot be projected.
	if _, err := Relation(0, paperdata.T1(), schemamatch.Alignment{}, nil); err == nil {
		t.Error("a column the alignment misses must error")
	}
	if _, err := BuildInput([]*table.Table{paperdata.T1()}, schemamatch.Alignment{}, nil); err == nil {
		t.Error("BuildInput must surface the relation error")
	}
}
