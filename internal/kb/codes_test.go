package kb

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/table"
)

// longEntity is longer than the 32 bytes a Go string conversion may keep
// on the stack, so a lookup of it exercises the allocation-free path.
const longEntity = "a rather long entity name well past thirty two bytes"

// codeCells are the raw strings codesTable draws string cells from:
// KB entities and aliases in several spellings, outsiders, renderings that
// collide with other kinds' ("82" and Int 82, "8.2" and Float 8.2),
// non-ASCII and invalid UTF-8, and empty canonicals.
var codeCells = []string{
	"ent00", "ENT02", "Ent03", "ent05", "al0", "AL1", "mystery0", "stranger",
	"Berlin", "  BERLIN. ", "Germany", "U S A", "J&J",
	"82", "8.2", "-5", "true",
	"Ünïcödé", "日本 Tokyo", "ẞharp", "\xff\xfe", "ent00\xc3\x28",
	"##", "", "  ", "A Rather Long Entity-Name, well past THIRTY two bytes!",
}

// codesTable draws a table whose columns each mix kinds in their own
// proportion, so some are mostly textual and some are not; nulls appear in
// every column, and one column may be all null.
func codesTable(rng *rand.Rand, name string) *table.Table {
	nc := 1 + rng.Intn(4)
	cols := make([]string, nc)
	textShare := make([]int, nc) // percent of cells that are strings
	for c := range cols {
		cols[c] = fmt.Sprintf("c%d", c)
		textShare[c] = []int{0, 30, 50, 70, 100}[rng.Intn(5)]
	}
	t := table.New(name, cols...)
	for r, nr := 0, rng.Intn(20); r < nr; r++ {
		row := make([]table.Value, nc)
		for c := range row {
			switch roll := rng.Intn(100); {
			case roll < 10:
				row[c] = table.NullValue()
			case roll-10 < textShare[c]*9/10:
				row[c] = table.StringValue(codeCells[rng.Intn(len(codeCells))])
			default:
				row[c] = []table.Value{table.IntValue(82), table.IntValue(-5), table.FloatValue(8.2), table.BoolValue(true)}[rng.Intn(4)]
			}
		}
		t.MustAddRow(row...)
	}
	return t
}

// TestColumnCodesMatchesCode pins Scratch.ColumnCodes to Compiled.Code, on
// the demo KB and on randomized KBs, with one scratch reused across every
// column: each row's code is Compiled.Code of its rendering (CodeEmpty for
// a null), the distinct codes are those of DistinctStrings in order, and a
// column that is not mostly textual gets a zero ColumnCodes.
func TestColumnCodesMatchesCode(t *testing.T) {
	kbs := []*KB{Demo()}
	for _, seed := range []int64{1, 2, 3, 4} {
		k := randomKB(rand.New(rand.NewSource(seed)))
		k.AddEntity(longEntity, "t0")
		kbs = append(kbs, k)
	}
	rng := rand.New(rand.NewSource(7))
	for ki, k := range kbs {
		ck := k.Compiled()
		s := ck.NewScratch()
		for round := 0; round < 60; round++ {
			tb := codesTable(rng, fmt.Sprintf("kb%d-t%d", ki, round))
			for c := 0; c < tb.NumCols(); c++ {
				got := s.ColumnCodes(tb, c)
				where := fmt.Sprintf("kb %d table %d column %d", ki, round, c)
				if !MostlyTextual(tb, c) {
					if got.Rows != nil || got.Distinct != nil {
						t.Fatalf("%s: not mostly textual, got %+v, want a zero ColumnCodes", where, got)
					}
					continue
				}
				if len(got.Rows) != len(tb.Rows) {
					t.Fatalf("%s: %d row codes for %d rows", where, len(got.Rows), len(tb.Rows))
				}
				for r, row := range tb.Rows {
					want := CodeEmpty
					if !row[c].IsNull() {
						want = ck.Code(row[c].String())
					}
					if got.Rows[r] != want {
						t.Fatalf("%s row %d (%q): code %d, want %d", where, r, row[c].String(), got.Rows[r], want)
					}
				}
				if want := codesOf(ck, tb.DistinctStrings(c)); !slices.Equal(got.Distinct, want) {
					t.Fatalf("%s: distinct codes %v, want %v", where, got.Distinct, want)
				}
			}
		}
	}
}
