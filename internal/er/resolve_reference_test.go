package er

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/kb"
	"repro/internal/table"
)

// Similarity scores two aligned rows through the string reference
// (cellSimilarity: per-comparison canonicalization, no annotation codes,
// no memo). comparable is false when the rows share no column filled on
// both sides (such rows can never be resolved — the fate of the outer
// join's f9/f10) or when a shared column triggers the conflict veto. It is
// what refResolve scores with.
func Similarity(a, b []table.Value, opts Options) (score float64, comparable bool) {
	opts = opts.withDefaults()
	return similarityWith(a, b, opts, func(i int) float64 {
		return cellSimilarity(a[i], b[i], opts.Knowledge)
	})
}

// fuzzAlphabet is small on purpose: with 2–40 rows over it, blocks are
// dense and most text-fallback comparisons repeat an earlier value pair.
// It mixes alias spellings, near-miss strings, numbers whose canonical
// forms collide ("-5" and "5"), an integral float equal to an int whose
// renderings differ (10^15), a string rendering of the same number, and
// both null kinds.
var fuzzAlphabet = []table.Value{
	table.StringValue("JnJ"), table.StringValue("J&J"), table.StringValue("USA"),
	table.StringValue("United States"), table.StringValue("U.S.A."),
	table.StringValue("Pfizer"), table.StringValue("pfizer biontech"),
	table.StringValue("Berlin"), table.StringValue("berlin!"), table.StringValue("Berlinn"),
	table.StringValue("5"), table.StringValue("-5"), table.StringValue("1000000000000000"),
	table.IntValue(5), table.IntValue(-5), table.FloatValue(5), table.FloatValue(8.2),
	table.IntValue(1e15), table.FloatValue(1e15),
	table.NullValue(), table.ProducedNull(),
}

// fuzzERTable turns bytes into a table: data[0] picks 1–4 columns, data[1]
// 2–40 rows, and the remaining bytes, cycled, pick the cells.
func fuzzERTable(data []byte) *table.Table {
	data = append(append([]byte(nil), data...), 0, 0, 0)
	cols, rows, cells := 1+int(data[0])%4, 2+int(data[1])%39, data[2:]
	headers := make([]string, cols)
	for c := range headers {
		headers[c] = fmt.Sprintf("c%d", c)
	}
	tb := table.New("fuzz", headers...)
	for r := 0; r < rows; r++ {
		row := make([]table.Value, cols)
		for c := range row {
			row[c] = fuzzAlphabet[int(cells[(r*cols+c)%len(cells)])%len(fuzzAlphabet)]
		}
		tb.Rows = append(tb.Rows, row)
	}
	return tb
}

// checkResolveMatchesReference asserts that Resolve and ResolveLearned
// return exactly what the string references return, score bits included,
// with and without a knowledge base. Resolve gets demo, which it freezes,
// and the references demoRef, its unfrozen twin (kb.FromDump of a Dump
// taken before freezing), so their string methods read the string form.
func checkResolveMatchesReference(t *testing.T, tb *table.Table, demo, demoRef *kb.KB) {
	t.Helper()
	model := &LogisticModel{Weights: []float64{3, 1, 0.5, -0.5, 2}, Bias: -2}
	for kname, kbs := range map[string][2]*kb.KB{"demo": {demo, demoRef}, "nil": {nil, nil}} {
		know, ref := kbs[0], kbs[1]
		got, err := Resolve(context.Background(), tb, Options{Knowledge: know})
		if err != nil {
			t.Fatal(err)
		}
		want, err := refResolve(tb, Options{Knowledge: ref})
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, "Resolve kb="+kname, tb, got, want)
		got, err = ResolveLearned(context.Background(), tb, model, know, 0)
		if err != nil {
			t.Fatal(err)
		}
		want, err = refResolveLearned(tb, model, ref, 0)
		if err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, "ResolveLearned kb="+kname, tb, got, want)
	}
}

func assertIdentical(t *testing.T, label string, tb *table.Table, got, want *Resolution) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: resolutions differ on\n%s\ngot:  %+v\nwant: %+v", label, tb, got, want)
	}
	for i := range got.Pairs {
		if math.Float64bits(got.Pairs[i].Score) != math.Float64bits(want.Pairs[i].Score) {
			t.Fatalf("%s: pair %d score bits differ: %v vs %v", label, i, got.Pairs[i].Score, want.Pairs[i].Score)
		}
	}
	// Both sides merge through mergeClusters, so check its choice against
	// the sort-based rule it replaced.
	for i, cluster := range got.Clusters {
		for c := range tb.Columns {
			if v, want := got.Resolved.Rows[i][c], refCanonicalValue(tb, cluster, c); !reflect.DeepEqual(v, want) {
				t.Fatalf("%s: cluster %v column %d merged to %v, want %v", label, cluster, c, v, want)
			}
		}
	}
}

// refCanonicalValue is the sort-based merge rule: distinct values (by Key)
// in first-occurrence order, stably sorted by count descending, rendering
// length descending, then rendering ascending; nulls only when nothing
// else is there.
func refCanonicalValue(t *table.Table, cluster []int, c int) table.Value {
	counts := make(map[string]int)
	var order []table.Value
	anyMissing := false
	for _, r := range cluster {
		v := t.Rows[r][c]
		if v.IsNull() {
			if v.Kind() == table.Null {
				anyMissing = true
			}
			continue
		}
		if counts[v.Key()] == 0 {
			order = append(order, v)
		}
		counts[v.Key()]++
	}
	if len(order) == 0 {
		if anyMissing {
			return table.NullValue()
		}
		return table.ProducedNull()
	}
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := counts[order[a].Key()], counts[order[b].Key()]
		if ca != cb {
			return ca > cb
		}
		sa, sb := order[a].String(), order[b].String()
		if len(sa) != len(sb) {
			return len(sa) > len(sb)
		}
		return sa < sb
	})
	return order[0]
}

func FuzzResolveMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 10, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{3, 38, 13, 14, 15, 10, 11, 12, 17, 18, 19, 20, 0, 1, 7, 8, 9})
	demo := kb.Demo()
	demoRef := kb.FromDump(demo.Dump())
	f.Fuzz(func(t *testing.T, data []byte) {
		checkResolveMatchesReference(t, fuzzERTable(data), demo, demoRef)
	})
}

// TestResolveHighRepeatMatchesReference resolves a 300-row table over
// near-miss spellings, where almost every candidate pair reaches the text
// fallback with a value pair scored before.
func TestResolveHighRepeatMatchesReference(t *testing.T) {
	names := []string{"Berlin", "Berlinn", "berlin!", "Bern", "Pfizer", "pfizer biontech", "Pfizzer"}
	tb := table.New("repeat", "name", "city", "n")
	for r := 0; r < 300; r++ {
		tb.MustAddRow(
			table.StringValue(names[r%len(names)]),
			table.StringValue(names[(r/3)%len(names)]),
			table.IntValue(int64(r%5)),
		)
	}
	checkResolveMatchesReference(t, tb, kb.Demo(), kb.Demo())
}
