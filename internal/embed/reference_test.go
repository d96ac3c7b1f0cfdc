package embed

import (
	"fmt"
	"math"
	"strconv"
	"testing"

	"repro/internal/kb"
	"repro/internal/paperdata"
	"repro/internal/synth"
	"repro/internal/table"
	"repro/internal/tokenize"
)

// Column is the per-column embedding Columns replaced, kept verbatim as the
// reference: it derives every string value's features again in every
// column that holds it. The property tests in embed_test.go pin its
// behaviour, and TestColumnsMatchReference pins Columns to it bit for bit.
func Column(values []table.Value, knowledge *kb.KB) []float64 {
	vec := make([]float64, Dim)
	for _, v := range values {
		if v.IsNull() {
			continue
		}
		switch v.Kind() {
		case table.String:
			addFeature(vec, "kind:text", wKind)
			s := v.Str()
			if knowledge != nil {
				for _, t := range knowledge.TypesOf(s) {
					addFeature(vec, "kbtype:"+t, wKBType)
					for _, anc := range knowledge.Ancestors(t) {
						addFeature(vec, "kbtype:"+anc, wKBType/2)
					}
				}
			}
			for _, tok := range tokenize.Words(s) {
				addFeature(vec, "tok:"+tok, wToken)
				if isNumericToken(tok) {
					addFeature(vec, "tokdigits:"+strconv.Itoa(len(tok)), wNumeric)
				}
			}
			for _, g := range tokenize.QGrams(s, 3) {
				addFeature(vec, "3g:"+g, wTrigram)
			}
		case table.Int, table.Float:
			addFeature(vec, "kind:num", wKind)
			f, _ := v.AsFloat()
			addFeature(vec, "mag:"+strconv.Itoa(magnitude(f)), wNumeric)
			if f < 0 {
				addFeature(vec, "neg", wNumeric)
			}
			if v.Kind() == table.Float && f != math.Trunc(f) {
				addFeature(vec, "frac", wNumeric)
			}
		case table.Bool:
			addFeature(vec, "kind:bool", wKind)
		}
	}
	normalize(vec)
	return vec
}

// unfrozenTwin returns a mutable copy of k for the reference Column to
// read, from a Dump taken before Columns freezes k: a frozen KB's string
// methods answer from the compiled form Columns reads. Nil stays nil.
func unfrozenTwin(k *kb.KB) *kb.KB {
	if k == nil {
		return nil
	}
	return kb.FromDump(k.Dump())
}

// checkColumnsMatchReference asserts that Columns over an integration set
// with knowledge equals Column over each of its columns with ref, the
// unfrozen twin of knowledge, coordinate by coordinate, in float64 bits.
func checkColumnsMatchReference(t *testing.T, label string, set []*table.Table, knowledge, ref *kb.KB) {
	t.Helper()
	got := Columns(set, knowledge)
	i := 0
	for _, tb := range set {
		for c := range tb.Columns {
			if i >= len(got) {
				t.Fatalf("%s: %d vectors, want more", label, len(got))
			}
			want := Column(tb.Column(c), ref)
			for d := range want {
				if math.Float64bits(got[i][d]) != math.Float64bits(want[d]) {
					t.Fatalf("%s: %s column %d coordinate %d: %v, want %v", label, tb.Name, c, d, got[i][d], want[d])
				}
			}
			i++
		}
	}
	if i != len(got) {
		t.Fatalf("%s: %d vectors, want %d", label, len(got), i)
	}
}

func TestColumnsMatchReference(t *testing.T) {
	demo := kb.Demo()
	demoRef := unfrozenTwin(demo)
	s := func(v string) table.Value { return table.StringValue(v) }
	mixed := table.New("mixed", "city", "num", "flag", "mixed")
	for _, row := range [][]table.Value{
		{s("Berlin"), table.IntValue(63), table.BoolValue(true), s("New York 2021")},
		{s("Boston"), table.FloatValue(-8.25), table.BoolValue(false), table.IntValue(1400000)},
		{table.NullValue(), table.FloatValue(1e15), table.ProducedNull(), s("Berlin")},
		{s("Berlin"), table.IntValue(-5), table.NullValue(), s("")},
		{s("USA"), table.FloatValue(0.5), table.BoolValue(true), s("J&J 42")},
	} {
		mixed.MustAddRow(row...)
	}
	lk := synth.GenerateLake(synth.LakeOptions{Families: 3, TablesPerFamily: 4, RowsPerTable: 40, JoinablePerFamily: 2, NoiseTables: 2, Seed: 1})
	synthKB := kb.Demo().Merge(kb.Synthesize(lk.Tables, kb.SynthesizeOptions{}))
	synthRef := unfrozenTwin(synthKB)
	sets := map[string][]*table.Table{
		"fig2":     {paperdata.T1(), paperdata.T2(), paperdata.T3()},
		"fig8":     {paperdata.T4(), paperdata.T5(), paperdata.T6(), paperdata.Fig8aExpected(), paperdata.Fig8bExpected()},
		"vaccines": paperdata.VaccineSet(),
		"covid":    paperdata.CovidLake(),
		"mixed":    {mixed, paperdata.T1(), mixed},
		"empty":    {table.New("none"), table.New("rows only", "a")},
	}
	for name, set := range sets {
		for kname, know := range map[string][2]*kb.KB{"demo": {demo, demoRef}, "nil": {nil, nil}} {
			checkColumnsMatchReference(t, fmt.Sprintf("%s kb=%s", name, kname), set, know[0], know[1])
		}
	}
	// A synth integration set: one family's partitions and joinable tables,
	// which repeat values across columns and tables.
	var family []*table.Table
	for _, tb := range lk.Tables {
		if lk.Truth.FamilyOf[tb.Name] == 0 {
			family = append(family, tb)
		}
	}
	if len(family) < 2 {
		t.Fatalf("synth family 0 has %d tables", len(family))
	}
	checkColumnsMatchReference(t, "synth family 0", family, synthKB, synthRef)
	checkColumnsMatchReference(t, "synth lake", lk.Tables, synthKB, synthRef)
}

// FuzzColumnsMatchReference pins Columns to Column in float64 bits on
// fuzzed integration sets: data[0] picks one to three tables, and the
// remaining bytes, cycled, pick each table's shape and cells. Cells mix
// words the demo KB types, raw slices of the fuzzed text (punctuation,
// multi-byte and invalid UTF-8 included), numbers of every magnitude with
// ±Inf, NaN and −0 among them, bools and both nulls.
func FuzzColumnsMatchReference(f *testing.F) {
	f.Add([]byte{}, "")
	f.Add([]byte{2, 3, 4, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, "Berlin, USA")
	f.Add([]byte{1, 1, 2, 12, 13, 14, 15, 16, 17}, "日本 Tokyo \xff 42")
	demo := kb.Demo()
	demoRef := unfrozenTwin(demo)
	f.Fuzz(func(t *testing.T, data []byte, text string) {
		data = append(append([]byte(nil), data...), 0, 0, 0)
		words := []string{"Berlin", "Boston", "USA", "United States", "J&J", "42", "", "new york 2021"}
		nums := []float64{0, -0.0, 0.5, 1, -147, 1.4e6, 1e15, math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN()}
		next := 1
		b := func() int {
			v := int(data[next%len(data)])
			next++
			return v
		}
		var set []*table.Table
		for ti := 0; ti < 1+int(data[0])%3; ti++ {
			cols, rows := 1+b()%3, b()%6
			headers := make([]string, cols)
			for c := range headers {
				headers[c] = fmt.Sprintf("c%d", c)
			}
			tb := table.New(fmt.Sprintf("t%d", ti), headers...)
			for r := 0; r < rows; r++ {
				row := make([]table.Value, cols)
				for c := range row {
					switch k := b(); k % 7 {
					case 0:
						row[c] = table.StringValue(words[k/7%len(words)])
					case 1:
						lo := k % (len(text) + 1)
						row[c] = table.StringValue(text[lo:])
					case 2:
						row[c] = table.FloatValue(nums[k/7%len(nums)])
					case 3:
						row[c] = table.IntValue(int64(k) - 100)
					case 4:
						row[c] = table.BoolValue(k%2 == 0)
					case 5:
						row[c] = table.NullValue()
					default:
						row[c] = table.ProducedNull()
					}
				}
				tb.Rows = append(tb.Rows, row)
			}
			set = append(set, tb)
		}
		checkColumnsMatchReference(t, "demo", set, demo, demoRef)
		checkColumnsMatchReference(t, "nil", set, nil, nil)
	})
}
