package santos

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/kb"
	"repro/internal/paperdata"
	"repro/internal/table"
)

func santosSig(rs []Result) string {
	s := ""
	for _, r := range rs {
		s += fmt.Sprintf("%s|%.12f|%d;", r.Table.Name, r.Score, r.MatchedColumn)
	}
	return s
}

// TestAddMatchesRebuild pins incremental annotation: building over two
// tables and adding a third must answer exactly like building over all
// three (the per-table graphs are independent; annotation runs against the
// same compiled KB snapshot).
func TestAddMatchesRebuild(t *testing.T) {
	all := append(paperdata.CovidLake(), paperdata.T1())
	grown := Build(all[:2], kb.Demo()).With(all[2:], nil)
	fresh := Build(all, kb.Demo())
	q := paperdata.T1()
	city, _ := q.ColumnIndex(paperdata.ColCity)
	got, err := grown.QueryCtx(context.Background(), q, city, 10)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.QueryCtx(context.Background(), q, city, 10)
	if err != nil {
		t.Fatal(err)
	}
	if santosSig(got) != santosSig(want) {
		t.Errorf("incremental add diverged:\n got %s\nwant %s", santosSig(got), santosSig(want))
	}
	if grown.NumTables() != 3 {
		t.Errorf("NumTables = %d", grown.NumTables())
	}
}

func TestRemoveEvictsGraph(t *testing.T) {
	ix := demoIndex()
	next := ix.With(nil, []string{"T2", "absent"})
	q := paperdata.T1()
	city, _ := q.ColumnIndex(paperdata.ColCity)
	returns := func(ix *Index, name string) bool {
		got, err := ix.QueryCtx(context.Background(), q, city, 10)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range got {
			if r.Table.Name == name {
				return true
			}
		}
		return false
	}
	if returns(next, "T2") {
		t.Error("removed table still returned")
	}
	if next.NumTables() != 1 {
		t.Errorf("NumTables = %d, want 1", next.NumTables())
	}
	// The receiver is immutable: it still indexes and returns T2.
	if !returns(ix, "T2") {
		t.Error("With changed its receiver: T2 is no longer returned")
	}
	if ix.NumTables() != 2 {
		t.Errorf("receiver NumTables = %d, want 2", ix.NumTables())
	}
}

// TestChurnGenerationsMatchBuild churns a 20-row table of unique city
// strings in and out of the demo index for 100 rounds. Every generation
// answers as a fresh Build over its tables does, float64 bits included.
func TestChurnGenerationsMatchBuild(t *testing.T) {
	demo := paperdata.CovidLake()
	queries := []*table.Table{paperdata.T1()}
	answers := func(ix *Index) string {
		var b strings.Builder
		for _, q := range queries {
			rs, err := ix.QueryCtx(context.Background(), q, 0, 0)
			fmt.Fprintf(&b, "%v:", err)
			for _, r := range rs {
				fmt.Fprintf(&b, "%s|%x|%d;", r.Table.Name, math.Float64bits(r.Score), r.MatchedColumn)
			}
			b.WriteByte('\n')
		}
		return b.String()
	}
	check := func(ix *Index, tables []*table.Table, label string) {
		t.Helper()
		fresh := Build(tables, kb.Demo())
		if got, want := answers(ix), answers(fresh); got != want {
			t.Fatalf("%s: answers diverged from a fresh Build\n got %s\nwant %s", label, got, want)
		}
	}
	ix := Build(demo, kb.Demo())
	for round := 0; round < 100; round++ {
		churn := table.New(fmt.Sprintf("churn%03d", round), paperdata.ColCity, paperdata.ColCountry)
		for i := 0; i < 20; i++ {
			churn.MustAddRow(table.StringValue(fmt.Sprintf("Newtown %d-%d", round, i)), table.StringValue("Germany"))
		}
		queries = []*table.Table{paperdata.T1(), churn}
		grown := append(slices.Clone(demo), churn)
		ix = ix.With([]*table.Table{churn}, nil)
		check(ix, grown, fmt.Sprintf("round %d add", round))
		ix = ix.With(nil, []string{churn.Name})
		check(ix, demo, fmt.Sprintf("round %d remove", round))
	}
}

// TestQueriesConcurrentWithDerive queries published generations while With
// derives the next ones from them on the shared scratch pool. A churn
// table of new city strings is added and removed each round, and each
// round's queries include it, so queries annotate renderings that a With
// is annotating at the same time. Every answer equals a fresh Build over
// the generation's tables.
func TestQueriesConcurrentWithDerive(t *testing.T) {
	type generation struct {
		ix      *Index
		queries []*table.Table
		want    []string
	}
	answers := func(ix *Index, queries []*table.Table) []string {
		out := make([]string, len(queries))
		for i, q := range queries {
			rs, err := ix.QueryCtx(context.Background(), q, 0, 0)
			var b strings.Builder
			fmt.Fprintf(&b, "%v:", err)
			for _, r := range rs {
				fmt.Fprintf(&b, "%s|%x|%d;", r.Table.Name, math.Float64bits(r.Score), r.MatchedColumn)
			}
			out[i] = b.String()
		}
		return out
	}
	publish := func(ix *Index, tables, queries []*table.Table) *generation {
		return &generation{ix: ix, queries: queries, want: answers(Build(tables, kb.Demo()), queries)}
	}
	demo := paperdata.CovidLake()
	base := publish(Build(demo, kb.Demo()), demo, []*table.Table{paperdata.T1()})
	var cur atomic.Pointer[generation]
	cur.Store(base)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, g := range []*generation{base, cur.Load()} {
					if got := answers(g.ix, g.queries); !slices.Equal(got, g.want) {
						t.Errorf("answers diverged from a fresh Build\n got %q\nwant %q", got, g.want)
						return
					}
				}
			}
		}()
	}
	for round := 0; round < 30; round++ {
		churn := table.New(fmt.Sprintf("churn%03d", round), paperdata.ColCity, paperdata.ColCountry)
		for i := 0; i < 20; i++ {
			churn.MustAddRow(table.StringValue(fmt.Sprintf("Newtown %d-%d", round, i)), table.StringValue("Germany"))
		}
		queries := []*table.Table{paperdata.T1(), churn}
		// Queries on the published generation annotate churn while With
		// annotates it for the next generation.
		cur.Store(publish(cur.Load().ix, demo, queries))
		added := cur.Load().ix.With([]*table.Table{churn}, nil)
		cur.Store(publish(added, append(slices.Clone(demo), churn), queries))
		removed := added.With(nil, []string{churn.Name})
		cur.Store(publish(removed, demo, queries))
	}
	close(stop)
	wg.Wait()
}
