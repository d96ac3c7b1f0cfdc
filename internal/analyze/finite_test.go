package analyze

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/table"
)

// pairs builds a two-column table of float cells.
func pairs(xys ...[2]float64) *table.Table {
	tb := table.New("t", "x", "y")
	for _, p := range xys {
		tb.MustAddRow(table.FloatValue(p[0]), table.FloatValue(p[1]))
	}
	return tb
}

// TestPearsonHugeMagnitudes: squares of 1e200 overflow float64, and
// squares of 1e-200 underflow to zero; neither may turn a well-defined
// correlation into NaN or a zero-variance error.
func TestPearsonHugeMagnitudes(t *testing.T) {
	for _, c := range []struct {
		name string
		tb   *table.Table
		want float64
	}{
		{"overflow", pairs([2]float64{1e200, 1e200}, [2]float64{-1e200, -1e200}, [2]float64{1, 2}), 1},
		{"underflow", pairs([2]float64{1e-200, 1}, [2]float64{2e-200, 2}, [2]float64{3e-200, 3}), 1},
		{"mixed", pairs([2]float64{1e300, -1e-300}, [2]float64{-1e300, 1e-300}, [2]float64{0, 0}), -1},
	} {
		r, n, err := Pearson(c.tb, 0, 1)
		if err != nil || n != 3 || !(math.Abs(r-c.want) <= 1e-12) {
			t.Errorf("%s: r, n, err = %v, %d, %v, want %v over 3 pairs", c.name, r, n, err, c.want)
		}
	}
}

// TestPearsonScaleInvariant: scaling a column by a power of two leaves r
// bit-identical, however far the scale pushes the squares past float64's
// range.
func TestPearsonScaleInvariant(t *testing.T) {
	xs := []float64{3, 1.5, 9.25, -4, 7}
	ys := []float64{2, 0.5, 8, -1, 3.75}
	build := func(ex, ey int) *table.Table {
		tb := table.New("t", "x", "y")
		for i := range xs {
			tb.MustAddRow(table.FloatValue(math.Ldexp(xs[i], ex)), table.FloatValue(math.Ldexp(ys[i], ey)))
		}
		return tb
	}
	want, _, err := Pearson(build(0, 0), 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range [][2]int{{600, 0}, {0, -600}, {900, 900}, {-900, 600}, {1000, -1000}} {
		got, _, err := Pearson(build(s[0], s[1]), 0, 1)
		if err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("scales 2^%d, 2^%d: r = %v (err %v), want %v", s[0], s[1], got, err, want)
		}
	}
}

// TestColumnStatsHugeMagnitudes: Mean and Std stay finite when the plain
// sum or the squared deviations would overflow; Sum stays the plain sum.
func TestColumnStatsHugeMagnitudes(t *testing.T) {
	tb := table.New("t", "a", "b")
	tb.MustAddRow(table.FloatValue(1e308), table.FloatValue(1e200))
	tb.MustAddRow(table.FloatValue(1e308), table.FloatValue(-1e200))
	a, err := ColumnStats(tb, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(a.Sum, 1) || a.Mean != 1e308 || a.Std != 0 {
		t.Errorf("two 1e308 cells: Sum, Mean, Std = %v, %v, %v, want +Inf, 1e308, 0", a.Sum, a.Mean, a.Std)
	}
	b, err := ColumnStats(tb, 1)
	if err != nil {
		t.Fatal(err)
	}
	if b.Sum != 0 || b.Mean != 0 || b.Std != 1e200 {
		t.Errorf("±1e200: Sum, Mean, Std = %v, %v, %v, want 0, 0, 1e200", b.Sum, b.Mean, b.Std)
	}
}

// FuzzPearsonFinite: over any finite float columns, Pearson either errors
// or returns a finite r with |r| <= 1 (up to rounding). The input is read
// as consecutive (x, y) float64 pairs; non-finite cells are skipped by
// Coerce, as every served path skips them.
func FuzzPearsonFinite(f *testing.F) {
	seed := func(vs ...float64) []byte {
		b := make([]byte, 0, 8*len(vs))
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	f.Add(seed(1e200, 1e200, -1e200, -1e200, 1, 2))
	f.Add(seed(1e-200, 1, 2e-200, 2, 3e-200, 3))
	f.Add(seed(1, 2, 2, 4, 3, 7))
	f.Add(seed(math.MaxFloat64, -math.MaxFloat64, -math.MaxFloat64, math.MaxFloat64, 5e-324, 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		tb := table.New("t", "x", "y")
		for ; len(data) >= 16; data = data[16:] {
			x := math.Float64frombits(binary.LittleEndian.Uint64(data))
			y := math.Float64frombits(binary.LittleEndian.Uint64(data[8:]))
			tb.MustAddRow(table.FloatValue(x), table.FloatValue(y))
		}
		r, _, err := Pearson(tb, 0, 1)
		if err != nil {
			return
		}
		if math.IsNaN(r) || math.Abs(r) > 1+1e-12 {
			t.Fatalf("r = %v with a nil error", r)
		}
	})
}
