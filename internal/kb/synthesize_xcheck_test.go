package kb_test

// synthesize_xcheck_test pins kb.Synthesize, which finds candidate column
// pairs through a posting list per shared value, to an all-pairs reference
// that compares every column pair: on the paper lakes, the synthetic lake,
// handcrafted threshold and degenerate cases, and fuzzed lakes, both must
// produce the same KB.Dump. The package is kb_test so the fixtures can come
// from synth and paperdata (both import kb).

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/kb"
	"repro/internal/paperdata"
	"repro/internal/synth"
	"repro/internal/table"
	"repro/internal/tokenize"
)

// allPairsSynthesize is the all-pairs Synthesize, kept verbatim as the
// reference (threshold 0.3, pair cap 2000, the defaults).
func allPairsSynthesize(tables []*table.Table) *kb.KB {
	const minJaccard, maxPairsPerTable = 0.3, 2000
	type colRef struct {
		tableIdx int
		col      int
		values   []string // normalized distinct values
	}
	var cols []colRef
	for ti, t := range tables {
		for c := 0; c < t.NumCols(); c++ {
			if !kb.MostlyTextual(t, c) {
				continue
			}
			vals := tokenize.ValueSet(t.DistinctStrings(c))
			if len(vals) == 0 {
				continue
			}
			cols = append(cols, colRef{tableIdx: ti, col: c, values: vals})
		}
	}
	parent := make([]int, len(cols))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	for i := 0; i < len(cols); i++ {
		for j := i + 1; j < len(cols); j++ {
			if tokenize.Jaccard(cols[i].values, cols[j].values) >= minJaccard {
				union(i, j)
			}
		}
	}
	clusterName := make(map[int]string)
	for i := range cols {
		r := find(i)
		key := fmt.Sprintf("%s.%d", tables[cols[i].tableIdx].Name, cols[i].col)
		if cur, ok := clusterName[r]; !ok || key < cur {
			clusterName[r] = key
		}
	}
	typeOf := func(i int) string { return "syn:" + clusterName[find(i)] }

	k := kb.New()
	colType := make(map[[2]int]string)
	for i, cr := range cols {
		tn := typeOf(i)
		k.AddType(tn, "")
		colType[[2]int{cr.tableIdx, cr.col}] = tn
		for _, v := range cr.values {
			k.AddEntity(v, tn)
		}
	}
	for ti, t := range tables {
		var clustered []int
		for c := 0; c < t.NumCols(); c++ {
			if _, ok := colType[[2]int{ti, c}]; ok {
				clustered = append(clustered, c)
			}
		}
		for ai := 0; ai < len(clustered); ai++ {
			for bi := ai + 1; bi < len(clustered); bi++ {
				a, b := clustered[ai], clustered[bi]
				label := "syn:" + colType[[2]int{ti, a}] + "->" + colType[[2]int{ti, b}]
				added := 0
				for _, row := range t.Rows {
					if added >= maxPairsPerTable {
						break
					}
					va, vb := row[a], row[b]
					if va.IsNull() || vb.IsNull() {
						continue
					}
					k.AddRelation(va.String(), label, vb.String())
					added++
				}
			}
		}
	}
	return k
}

// checkSynthesize fails unless Synthesize and the reference dump equal KBs,
// and returns the dump.
func checkSynthesize(t testing.TB, name string, tables []*table.Table) kb.Dump {
	t.Helper()
	got := kb.Synthesize(tables, kb.SynthesizeOptions{}).Dump()
	want := allPairsSynthesize(tables).Dump()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Synthesize differs from the all-pairs reference\ngot:  %d types, %d entities, %d relations\nwant: %d types, %d entities, %d relations\ngot types:  %v\nwant types: %v",
			name, len(got.Types), len(got.Entities), len(got.Relations),
			len(want.Types), len(want.Entities), len(want.Relations), got.Types, want.Types)
	}
	return got
}

// strs is a column of string cells.
func strs(vals ...string) []table.Value {
	out := make([]table.Value, len(vals))
	for i, v := range vals {
		out[i] = table.StringValue(v)
	}
	return out
}

// colTable builds a table from columns of possibly different heights; short
// columns are padded with nulls.
func colTable(name string, cols ...[]table.Value) *table.Table {
	names := make([]string, len(cols))
	rows := 0
	for c, col := range cols {
		names[c] = fmt.Sprintf("c%d", c)
		rows = max(rows, len(col))
	}
	t := table.New(name, names...)
	for r := 0; r < rows; r++ {
		row := make([]table.Value, len(cols))
		for c, col := range cols {
			row[c] = table.NullValue()
			if r < len(col) {
				row[c] = col[r]
			}
		}
		t.MustAddRow(row...)
	}
	return t
}

func TestSynthesizeMatchesAllPairs(t *testing.T) {
	paper := []*table.Table{paperdata.T1(), paperdata.T2(), paperdata.T3(),
		paperdata.T4(), paperdata.T5(), paperdata.T6()}
	checkSynthesize(t, "covid", paperdata.CovidLake())
	checkSynthesize(t, "vaccine", paperdata.VaccineSet())
	checkSynthesize(t, "paper", paper)

	for _, seed := range []int64{1, 2} {
		sl := synth.GenerateLake(synth.LakeOptions{Seed: seed, Families: 12, TablesPerFamily: 6,
			RowsPerTable: 120, JoinablePerFamily: 2, NoiseTables: 24})
		d := checkSynthesize(t, fmt.Sprintf("synth seed %d", seed), sl.Tables)
		if len(d.Types) < 2 || len(d.Types) >= len(sl.Tables) {
			t.Errorf("synth seed %d: %d clusters over %d tables — the lake should cluster", seed, len(d.Types), len(sl.Tables))
		}
	}

	// 3 shared values over a union of 10 is Jaccard exactly 0.3 and merges;
	// over a union of 11 it is just below and does not.
	tie := []*table.Table{
		colTable("x", strs("s1", "s2", "s3", "a1", "a2", "a3")),
		colTable("y", strs("s1", "s2", "s3", "b1", "b2", "b3", "b4")),
	}
	if d := checkSynthesize(t, "tie", tie); len(d.Types) != 1 {
		t.Errorf("Jaccard exactly 0.3 must merge: types %v", d.Types)
	}
	below := []*table.Table{
		colTable("x", strs("s1", "s2", "s3", "a1", "a2", "a3")),
		colTable("y", strs("s1", "s2", "s3", "b1", "b2", "b3", "b4", "b5")),
	}
	if d := checkSynthesize(t, "below", below); len(d.Types) != 2 {
		t.Errorf("Jaccard 3/11 must not merge: types %v", d.Types)
	}

	dup := strs("p", "q", "r", "s")
	checkSynthesize(t, "duplicate columns", []*table.Table{
		colTable("d1", dup, dup, strs("z")),
		colTable("d0", dup),
		colTable("d2", strs("z", "p", "q")),
	})

	// One value in every column; each pair is a candidate, few merge.
	var everywhere []*table.Table
	for i := 0; i < 8; i++ {
		col := strs("common", fmt.Sprintf("u%d", i), fmt.Sprintf("v%d", i), fmt.Sprintf("w%d", i%3))
		everywhere = append(everywhere, colTable(fmt.Sprintf("e%d", i), col, strs("common")))
	}
	checkSynthesize(t, "shared by every column", everywhere)

	nulls := []table.Value{table.NullValue(), table.ProducedNull()}
	nums := []table.Value{table.IntValue(1), table.FloatValue(2.5), table.StringValue("x")}
	checkSynthesize(t, "degenerate columns", []*table.Table{
		colTable("nulls", nulls, strs("a", "b")),
		colTable("nums", nums, strs("a", "c")),
		table.New("norows", "c0", "c1"),
		colTable("punct", strs("##", "--", "a")),
	})
	checkSynthesize(t, "one textual column", []*table.Table{colTable("only", strs("a", "b", "a"), nums)})
	checkSynthesize(t, "empty lake", nil)

	// Cells of different kinds whose renderings normalize alike.
	mixed := []*table.Table{
		colTable("m1", []table.Value{table.IntValue(5), table.StringValue("New York"), table.StringValue("x")},
			strs("a", "b", "c")),
		colTable("m2", []table.Value{table.StringValue("5"), table.StringValue("new-york"), table.FloatValue(5)},
			[]table.Value{table.StringValue("A"), table.IntValue(7), table.StringValue("c!")}),
	}
	if d := checkSynthesize(t, "mixed kinds", mixed); len(d.Types) != 2 {
		t.Errorf("mixed kinds: want two clusters (5/new york and a/c), got %v", d.Types)
	}
}

// fuzzCells is the tiny cell alphabet fuzzed lakes draw from: renderings
// that collide after normalization, nulls, numerics and an empty canonical.
// Its 11 distinct normalized values let two 0–7-row columns reach the
// 3-of-10 tie at the threshold.
var fuzzCells = []table.Value{
	table.NullValue(), table.StringValue("a"), table.StringValue("A!"), table.StringValue("b"),
	table.StringValue("c"), table.StringValue("d"), table.StringValue("e"), table.StringValue("f"),
	table.StringValue("g"), table.StringValue("h"), table.StringValue("i"),
	table.StringValue("New York"), table.StringValue("new-york"), table.StringValue("5"),
	table.IntValue(5), table.FloatValue(5), table.StringValue("##"),
}

// fuzzLake decodes bytes into 1–6 small tables (1–3 columns, 0–7 rows, names
// that may repeat); missing bytes read as zero.
func fuzzLake(data []byte) []*table.Table {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	tables := make([]*table.Table, 1+next()%6)
	for ti := range tables {
		names := make([]string, 1+next()%3)
		for c := range names {
			names[c] = fmt.Sprintf("c%d", c)
		}
		t := table.New(fmt.Sprintf("t%d", next()%4), names...)
		for r := next() % 8; r > 0; r-- {
			row := make([]table.Value, len(names))
			for c := range row {
				row[c] = fuzzCells[next()%len(fuzzCells)]
			}
			t.MustAddRow(row...)
		}
		tables[ti] = t
	}
	return tables
}

func FuzzSynthesize(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 0, 0, 3, 1, 3, 4, 0, 0, 3, 1, 2, 4})
	f.Add([]byte{5, 1, 0, 4, 1, 2, 6, 7, 8, 9, 10, 11, 1, 1, 5, 1, 7, 2, 8, 6, 9, 3, 2, 2, 2, 1, 3, 1, 2, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSynthesize(t, fmt.Sprintf("fuzz %v", data), fuzzLake(data))
	})
}
