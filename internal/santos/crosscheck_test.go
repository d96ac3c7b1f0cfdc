package santos

// crosscheck_test pins the packed-edge-key index to the pre-refactor
// string-keyed implementation: on the demo lake and randomized synthesized
// lakes, Query must return exactly the same ranked results — same tables,
// same scores, same matched columns, same order — as the reference below,
// which re-derives the semantic graphs with "out:<label>:<type>" string
// edges via the KB's exported API.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/kb"
	"repro/internal/paperdata"
	"repro/internal/table"
)

// refColumn is the string-keyed column annotation of the old
// implementation.
type refColumn struct {
	col   int
	ann   kb.ColumnAnnotation
	edges []string
}

// refAnnotate is the pre-refactor annotate with fmt.Sprintf edge keys.
func refAnnotate(t *table.Table, knowledge *kb.KB) []refColumn {
	anns := make([]kb.ColumnAnnotation, t.NumCols())
	textual := make([]bool, t.NumCols())
	for c := 0; c < t.NumCols(); c++ {
		if !kb.MostlyTextual(t, c) {
			continue
		}
		textual[c] = true
		anns[c] = knowledge.AnnotateColumn(t.DistinctStrings(c))
	}
	edgesByCol := make(map[int][]string)
	for a := 0; a < t.NumCols(); a++ {
		if !textual[a] || anns[a].Type == "" {
			continue
		}
		for b := a + 1; b < t.NumCols(); b++ {
			if !textual[b] || anns[b].Type == "" {
				continue
			}
			pa := knowledge.AnnotateColumnPair(rowPairs(t, a, b))
			if pa.Label == "" {
				continue
			}
			from, to := a, b
			if pa.Inverse {
				from, to = b, a
			}
			edgesByCol[from] = append(edgesByCol[from], fmt.Sprintf("out:%s:%s", pa.Label, anns[to].Type))
			edgesByCol[to] = append(edgesByCol[to], fmt.Sprintf("in:%s:%s", pa.Label, anns[from].Type))
		}
	}
	var cols []refColumn
	for c := 0; c < t.NumCols(); c++ {
		if anns[c].Type == "" {
			continue
		}
		cols = append(cols, refColumn{col: c, ann: anns[c], edges: edgesByCol[c]})
	}
	return cols
}

// refEdgeJaccard is the old map-based Jaccard over string edge keys.
func refEdgeJaccard(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	as := make(map[string]bool, len(a))
	for _, e := range a {
		as[e] = true
	}
	bs := make(map[string]bool, len(b))
	for _, e := range b {
		bs[e] = true
	}
	inter := 0
	for k := range as {
		if bs[k] {
			inter++
		}
	}
	union := len(as) + len(bs) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

type refResult struct {
	name    string
	score   float64
	matched int
}

// refQuery is the pre-refactor Query over string-keyed semantic graphs.
func refQuery(lakeTables []*table.Table, knowledge *kb.KB, q *table.Table, intentCol, k int) ([]refResult, error) {
	qcols := refAnnotate(q, knowledge)
	var qcs *refColumn
	for i := range qcols {
		if qcols[i].col == intentCol {
			qcs = &qcols[i]
		}
	}
	if qcs == nil {
		return nil, fmt.Errorf("no annotation for intent column %d", intentCol)
	}
	var results []refResult
	for _, cand := range lakeTables {
		if cand.Name == q.Name {
			continue
		}
		best := 0.0
		bestCol := -1
		for _, cc := range refAnnotate(cand, knowledge) {
			tm := typeMatchScore(knowledge, qcs.ann.Type, cc.ann.Type)
			if tm == 0 {
				continue
			}
			score := qcs.ann.Confidence * cc.ann.Confidence * tm * (1 + refEdgeJaccard(qcs.edges, cc.edges))
			if score > best {
				best = score
				bestCol = cc.col
			}
		}
		if best > 0 {
			results = append(results, refResult{name: cand.Name, score: best, matched: bestCol})
		}
	}
	sort.Slice(results, func(a, b int) bool {
		if results[a].score != results[b].score {
			return results[a].score > results[b].score
		}
		return results[a].name < results[b].name
	})
	if k > 0 && len(results) > k {
		results = results[:k]
	}
	return results, nil
}

func assertSameRanking(t *testing.T, label string, got []Result, want []refResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d\ngot: %+v\nwant: %+v", label, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i].Table.Name != want[i].name || got[i].Score != want[i].score || got[i].MatchedColumn != want[i].matched {
			t.Fatalf("%s: rank %d: got %s/%v/col%d, want %s/%v/col%d", label, i,
				got[i].Table.Name, got[i].Score, got[i].MatchedColumn,
				want[i].name, want[i].score, want[i].matched)
		}
	}
}

func TestCrossCheckDemoLake(t *testing.T) {
	know := kb.Demo()
	ref := kb.FromDump(know.Dump()) // the reference's unfrozen twin
	lakeTables := append(paperdata.CovidLake(), paperdata.T3())
	ix := Build(lakeTables, know)
	q := paperdata.T1()
	for col := 0; col < q.NumCols(); col++ {
		for _, k := range []int{0, 1, 10} {
			got, gerr := ix.QueryCtx(context.Background(), q, col, k)
			want, werr := refQuery(lakeTables, ref, q, col, k)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("col=%d k=%d: error mismatch: %v vs %v", col, k, gerr, werr)
			}
			if gerr != nil {
				continue
			}
			assertSameRanking(t, fmt.Sprintf("col=%d k=%d", col, k), got, want)
		}
	}
}

// TestCrossCheckMixedKindLakes builds randomized lakes whose textual
// columns carry a minority of numeric/bool cells — exercising the compiled
// path's rendered-string dedupe (cross-kind collisions like the string "12"
// versus the int 12 must collapse exactly as DistinctStrings collapses
// them) — plus demo-KB alias spellings, whose distinct raw forms must keep
// voting separately.
func TestCrossCheckMixedKindLakes(t *testing.T) {
	know := kb.Demo()
	ref := kb.FromDump(know.Dump()) // the reference's unfrozen twin
	for _, seed := range []int64{11, 12, 13} {
		rng := rand.New(rand.NewSource(seed))
		cities := []string{"Berlin", "berlin", "Boston", "Tokyo", "Lyon", "Madrid"}
		countries := []string{"Germany", "USA", "U.S.A.", "United States", "Japan", "France", "Spain"}
		mixed := []table.Value{
			table.IntValue(12), table.StringValue("12"), table.FloatValue(3.5),
			table.BoolValue(true), table.NullValue(), table.ProducedNull(),
		}
		mk := func(name string, rows int) *table.Table {
			tb := table.New(name, "city", "country", "noise")
			for r := 0; r < rows; r++ {
				city := table.Value(table.StringValue(cities[rng.Intn(len(cities))]))
				country := table.Value(table.StringValue(countries[rng.Intn(len(countries))]))
				// A minority of non-string cells keeps columns mostly
				// textual while forcing the string-dedupe fallback.
				if rng.Intn(4) == 0 {
					city = mixed[rng.Intn(len(mixed))]
				}
				if rng.Intn(4) == 0 {
					country = mixed[rng.Intn(len(mixed))]
				}
				tb.MustAddRow(city, country, mixed[rng.Intn(len(mixed))])
			}
			return tb
		}
		var lakeTables []*table.Table
		for i := 0; i < 5+rng.Intn(5); i++ {
			lakeTables = append(lakeTables, mk(fmt.Sprintf("m%02d", i), 6+rng.Intn(10)))
		}
		q := mk("query", 8)

		ix := Build(lakeTables, know)
		for col := 0; col < q.NumCols(); col++ {
			got, gerr := ix.QueryCtx(context.Background(), q, col, 0)
			want, werr := refQuery(lakeTables, ref, q, col, 0)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("seed=%d col=%d: error mismatch: %v vs %v", seed, col, gerr, werr)
			}
			if gerr != nil {
				continue
			}
			assertSameRanking(t, fmt.Sprintf("seed=%d col=%d", seed, col), got, want)
		}
	}
}

// TestCrossCheckRandomizedLakes builds randomized two-column entity lakes,
// synthesizes a KB from each (the SANTOS fallback), and asserts the
// packed-edge index ranks identically to the string-keyed reference.
func TestCrossCheckRandomizedLakes(t *testing.T) {
	for _, seed := range []int64{5, 6, 7} {
		rng := rand.New(rand.NewSource(seed))
		people := make([]string, 20)
		for i := range people {
			people[i] = fmt.Sprintf("person%02d", i)
		}
		teams := []string{"red", "blue", "green", "gold"}
		cities := []string{"berlin", "boston", "tokyo", "lyon", "oslo"}
		mk := func(name string, rows int) *table.Table {
			tb := table.New(name, "who", "team", "city")
			for r := 0; r < rows; r++ {
				tb.MustAddRow(
					table.StringValue(people[rng.Intn(len(people))]),
					table.StringValue(teams[rng.Intn(len(teams))]),
					table.StringValue(cities[rng.Intn(len(cities))]),
				)
			}
			return tb
		}
		var lakeTables []*table.Table
		for i := 0; i < 6+rng.Intn(6); i++ {
			lakeTables = append(lakeTables, mk(fmt.Sprintf("t%02d", i), 4+rng.Intn(10)))
		}
		know := kb.Synthesize(lakeTables, kb.SynthesizeOptions{})
		ref := kb.FromDump(know.Dump()) // the reference's unfrozen twin
		ix := Build(lakeTables, know)
		q := mk("query", 6)
		for col := 0; col < q.NumCols(); col++ {
			got, gerr := ix.QueryCtx(context.Background(), q, col, 0)
			want, werr := refQuery(lakeTables, ref, q, col, 0)
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("seed=%d col=%d: error mismatch: %v vs %v", seed, col, gerr, werr)
			}
			if gerr != nil {
				continue
			}
			assertSameRanking(t, fmt.Sprintf("seed=%d col=%d", seed, col), got, want)
		}
	}
}
