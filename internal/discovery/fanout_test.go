package discovery

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"repro/internal/kb"
	"repro/internal/lake"
	"repro/internal/paperdata"
	"repro/internal/table"
	"repro/internal/tokenize"
)

// TestRunAllMatchesSequential pins the fan-out's contract: slot-indexed
// results identical to running each discoverer by itself.
func TestRunAllMatchesSequential(t *testing.T) {
	l := demoLake(t)
	q := paperdata.T1()
	col := cityCol(t, q)
	ds := []Discoverer{SantosUnion{}, LSHJoin{}, JosieJoin{}, SyntacticUnion{}}
	got, _, err := RunAll(context.Background(), l, q, col, 10, ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ds) {
		t.Fatalf("got %d result sets, want %d", len(got), len(ds))
	}
	for i, d := range ds {
		want, err := d.Discover(context.Background(), l, q, col, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("slot %d (%s): concurrent = %+v, sequential = %+v", i, d.Name(), got[i], want)
		}
	}
}

// TestRunAllFirstErrorBySlot verifies error selection is deterministic:
// the first failing slot wins regardless of scheduling.
func TestRunAllFirstErrorBySlot(t *testing.T) {
	l := demoLake(t)
	q := paperdata.T1()
	ds := []Discoverer{
		SimilarityFunc{FuncName: "later-error"},   // slot 0: Sim == nil errors
		SimilarityFunc{FuncName: "another-error"}, // slot 1: also errors
	}
	_, _, err := RunAll(context.Background(), l, q, 0, 10, ds)
	if err == nil {
		t.Fatal("want error")
	}
	if want := `discovery: "later-error" has no similarity function`; err.Error() != want {
		t.Errorf("err = %q, want slot-0 error %q", err, want)
	}
}

// TestRunAllContainsPanics verifies a panicking user hook surfaces as that
// slot's error instead of killing the process from a worker goroutine.
func TestRunAllContainsPanics(t *testing.T) {
	l := demoLake(t)
	q := paperdata.T1()
	ds := []Discoverer{
		SimilarityFunc{FuncName: "bad-hook", Sim: func(query, candidate *table.Table) float64 {
			panic("user hook exploded")
		}},
		LSHJoin{},
	}
	_, _, err := RunAll(context.Background(), l, q, cityCol(t, q), 10, ds)
	if err == nil {
		t.Fatal("panicking discoverer must surface as an error")
	}
	if want := `discovery: "bad-hook" panicked: user hook exploded`; err.Error() != want {
		t.Errorf("err = %q, want %q", err, want)
	}
}

func TestRegistryResolve(t *testing.T) {
	r := NewRegistry()
	ds, err := r.resolve([]string{"lsh-join", "santos-union"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 2 || ds[0].Name() != "lsh-join" || ds[1].Name() != "santos-union" {
		t.Errorf("Resolve order broken: %v", ds)
	}
	if _, err := r.resolve([]string{"lsh-join", "nope"}); err == nil {
		t.Error("unknown method must error")
	}
}

func TestDiscoverFanOut(t *testing.T) {
	l := demoLake(t)
	q := paperdata.T1()
	per, set, _, err := Discover(context.Background(), NewRegistry(), l, q, cityCol(t, q), 10,
		[]string{"santos-union", "lsh-join"})
	if err != nil {
		t.Fatal(err)
	}
	if len(per["santos-union"]) == 0 || len(per["lsh-join"]) == 0 {
		t.Fatalf("per-method results missing: %+v", per)
	}
	names := make([]string, len(set))
	for i, tb := range set {
		names[i] = tb.Name
	}
	if !reflect.DeepEqual(names, []string{"T1", "T2", "T3"}) {
		t.Errorf("integration set = %v, want [T1 T2 T3]", names)
	}
	if _, _, _, err := Discover(context.Background(), NewRegistry(), l, q, 1, 10, []string{"nope"}); err == nil {
		t.Error("unknown method must error before any discoverer runs")
	}
}

// TestConcurrentFanOutRace exercises the fan-out under -race: many
// concurrent multi-method queries — including the user-defined-similarity
// hook of Fig. 4, which touches raw tables, and the joinable discoverers,
// which share the lake token dictionary and cached domains — against one
// lake. Run with `go test -race ./internal/discovery/...`.
func TestConcurrentFanOutRace(t *testing.T) {
	tables := append(paperdata.CovidLake(), paperdata.T1())
	l, err := lake.New(tables, lake.Options{Knowledge: kb.Demo()})
	if err != nil {
		t.Fatal(err)
	}
	r := NewRegistry()
	if err := r.Register(SimilarityFunc{
		FuncName: "user-sim",
		Sim: func(query, candidate *table.Table) float64 {
			best := 0
			for qc := 0; qc < query.NumCols(); qc++ {
				qd := tokenize.ValueSet(query.DistinctStrings(qc))
				for cc := 0; cc < candidate.NumCols(); cc++ {
					if ov := tokenize.Overlap(qd, tokenize.ValueSet(candidate.DistinctStrings(cc))); ov > best {
						best = ov
					}
				}
			}
			return float64(best)
		},
	}); err != nil {
		t.Fatal(err)
	}
	methods := []string{"santos-union", "lsh-join", "josie-join", "syntactic-union", "user-sim"}
	q := paperdata.T1()
	col := cityCol(t, q)
	want, _, _, err := Discover(context.Background(), r, l, q, col, 10, methods)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				got, _, _, err := Discover(context.Background(), r, l, q, col, 10, methods)
				if err != nil {
					t.Error(err)
					return
				}
				for _, m := range methods {
					for j := range got[m] {
						if got[m][j].Table.Name != want[m][j].Table.Name || got[m][j].Score != want[m][j].Score {
							t.Errorf("method %s rank %d drifted under concurrency", m, j)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}
