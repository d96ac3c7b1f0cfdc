package analyze

import (
	"math"
	"testing"

	"repro/internal/paperdata"
	"repro/internal/table"
)

func TestCoerce(t *testing.T) {
	cases := []struct {
		in   table.Value
		want float64
		ok   bool
	}{
		{table.IntValue(42), 42, true},
		{table.FloatValue(2.5), 2.5, true},
		{table.StringValue("63%"), 63, true},
		{table.StringValue("1.4M"), 1.4e6, true},
		{table.StringValue("263k"), 263e3, true},
		{table.StringValue("2B"), 2e9, true},
		{table.StringValue("1,234"), 1234, true},
		{table.StringValue("$99"), 99, true},
		{table.StringValue("Berlin"), 0, false},
		{table.NullValue(), 0, false},
		{table.ProducedNull(), 0, false},
		{table.StringValue(""), 0, false},
		{table.StringValue("%"), 0, false},
		{table.BoolValue(true), 0, false},
		// Non-finite results are not numbers to an analysis: ParseFloat
		// accepts these spellings, a suffix can overflow, and a Float cell
		// can hold ±Inf or NaN itself.
		{table.StringValue("nan"), 0, false},
		{table.StringValue("NaN"), 0, false},
		{table.StringValue("inf"), 0, false},
		{table.StringValue("-Infinity"), 0, false},
		{table.StringValue("Infinity%"), 0, false},
		{table.StringValue("1e308k"), 0, false},
		{table.StringValue("-1e308B"), 0, false},
		{table.Parse("inf"), 0, false},
		{table.FloatValue(math.Inf(-1)), 0, false},
		{table.FloatValue(math.NaN()), 0, false},
		{table.FloatValue(math.MaxFloat64), math.MaxFloat64, true},
	}
	for _, c := range cases {
		got, ok := Coerce(c.in)
		if ok != c.ok || (ok && math.Abs(got-c.want) > 1e-9) {
			t.Errorf("Coerce(%v) = %v,%v want %v,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestExample3Correlations(t *testing.T) {
	// The paper's Example 3, computed over the Fig. 3 integrated table:
	// corr(vaccination rate, death rate) = 0.16 and
	// corr(total cases, vaccination rate) = 0.9.
	fig3 := paperdata.Fig3Expected()
	vacc, _ := fig3.ColumnIndex(paperdata.ColVaccRate)
	death, _ := fig3.ColumnIndex(paperdata.ColDeathRate)
	cases, _ := fig3.ColumnIndex(paperdata.ColCases)

	r1, n1, err := Pearson(fig3, vacc, death)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != 3 {
		t.Errorf("vacc/death pairs = %d, want 3", n1)
	}
	if math.Abs(math.Round(r1*100)/100-0.16) > 1e-9 {
		t.Errorf("corr(vacc,death) = %v, want 0.16 at 2dp", r1)
	}
	r2, n2, err := Pearson(fig3, cases, vacc)
	if err != nil {
		t.Fatal(err)
	}
	if n2 != 3 {
		t.Errorf("cases/vacc pairs = %d, want 3", n2)
	}
	if math.Abs(math.Round(r2*10)/10-0.9) > 1e-9 {
		t.Errorf("corr(cases,vacc) = %v, want 0.9 at 1dp", r2)
	}
}

func TestExample3Extremes(t *testing.T) {
	// "Boston is the city with the lowest vaccination rate and Toronto has
	// the highest."
	fig3 := paperdata.Fig3Expected()
	city, _ := fig3.ColumnIndex(paperdata.ColCity)
	vacc, _ := fig3.ColumnIndex(paperdata.ColVaccRate)
	min, max, err := ExtremesBy(fig3, city, vacc)
	if err != nil {
		t.Fatal(err)
	}
	if min.Label != "Boston" || min.Value != 62 {
		t.Errorf("min = %+v, want Boston/62", min)
	}
	if max.Label != "Toronto" || max.Value != 83 {
		t.Errorf("max = %+v, want Toronto/83", max)
	}
}

func TestPearsonErrors(t *testing.T) {
	tb := table.New("t", "a", "b")
	tb.MustAddRow(table.IntValue(1), table.IntValue(1))
	if _, _, err := Pearson(tb, 0, 1); err == nil {
		t.Error("one pair must error")
	}
	tb.MustAddRow(table.IntValue(1), table.IntValue(2))
	if _, _, err := Pearson(tb, 0, 1); err == nil {
		t.Error("zero variance must error")
	}
	if _, _, err := Pearson(tb, 0, 9); err == nil {
		t.Error("out of range must error")
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	tb := table.New("t", "x", "y", "z")
	for i := 1; i <= 5; i++ {
		tb.MustAddRow(table.IntValue(int64(i)), table.IntValue(int64(2*i)), table.IntValue(int64(-i)))
	}
	r, n, err := Pearson(tb, 0, 1)
	if err != nil || n != 5 || math.Abs(r-1) > 1e-12 {
		t.Errorf("perfect corr = %v (%d), err %v", r, n, err)
	}
	r, _, err = Pearson(tb, 0, 2)
	if err != nil || math.Abs(r+1) > 1e-12 {
		t.Errorf("perfect anticorr = %v", r)
	}
}

func TestColumnStats(t *testing.T) {
	tb := table.New("t", "v")
	tb.MustAddRow(table.StringValue("10"))
	tb.MustAddRow(table.StringValue("20%"))
	tb.MustAddRow(table.NullValue())
	tb.MustAddRow(table.StringValue("not-a-number"))
	s, err := ColumnStats(tb, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Rows != 4 || s.NonNull != 3 || s.Numeric != 2 {
		t.Errorf("counts = %+v", s)
	}
	if s.Sum != 30 || s.Mean != 15 || s.Min != 10 || s.Max != 20 || s.Std != 5 {
		t.Errorf("stats = %+v", s)
	}
	if _, err := ColumnStats(tb, 3); err == nil {
		t.Error("out of range must error")
	}
	empty, err := ColumnStats(table.New("e", "x"), 0)
	if err != nil || empty.Numeric != 0 || empty.Min != 0 || empty.Max != 0 {
		t.Errorf("empty stats = %+v, err %v", empty, err)
	}
}

func TestGroupBy(t *testing.T) {
	tb := table.New("t", "Country", "Rate")
	tb.MustAddRow(table.StringValue("Germany"), table.IntValue(63))
	tb.MustAddRow(table.StringValue("Germany"), table.IntValue(71))
	tb.MustAddRow(table.StringValue("Spain"), table.IntValue(82))
	tb.MustAddRow(table.StringValue("Spain"), table.NullValue())
	for _, c := range []struct {
		agg  Agg
		g    string
		want float64
	}{
		{Count, "Germany", 2}, {Count, "Spain", 1},
		{Sum, "Germany", 134}, {Avg, "Germany", 67},
		{Min, "Spain", 82}, {Max, "Germany", 71},
	} {
		out, err := GroupBy(tb, 0, 1, c.agg)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for r := 0; r < out.NumRows(); r++ {
			if out.Cell(r, 0).Str() == c.g {
				found = true
				got, _ := Coerce(out.Cell(r, 1))
				if got != c.want {
					t.Errorf("%v(%s) = %v, want %v", c.agg, c.g, got, c.want)
				}
			}
		}
		if !found {
			t.Errorf("group %s missing for %v", c.g, c.agg)
		}
	}
	if _, err := GroupBy(tb, 0, 9, Sum); err == nil {
		t.Error("out of range must error")
	}
}

func TestGroupByNullKeyAndAllNullGroup(t *testing.T) {
	tb := table.New("t", "k", "v")
	tb.MustAddRow(table.NullValue(), table.IntValue(1))
	tb.MustAddRow(table.StringValue("x"), table.StringValue("text"))
	out, err := GroupBy(tb, 0, 1, Avg)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 {
		t.Fatalf("groups = %d", out.NumRows())
	}
	// Group "x" has no coercible values -> null aggregate.
	for r := 0; r < out.NumRows(); r++ {
		if out.Cell(r, 0).Str() == "x" && !out.Cell(r, 1).IsNull() {
			t.Error("all-text group must aggregate to null")
		}
	}
}

func TestAggString(t *testing.T) {
	names := map[Agg]string{Count: "count", Sum: "sum", Avg: "avg", Min: "min", Max: "max", Agg(99): "agg?"}
	for a, want := range names {
		if a.String() != want {
			t.Errorf("Agg(%d).String() = %q", a, a.String())
		}
	}
}

func TestExtremesByErrors(t *testing.T) {
	tb := table.New("t", "l", "v")
	tb.MustAddRow(table.StringValue("a"), table.StringValue("text"))
	if _, _, err := ExtremesBy(tb, 0, 1); err == nil {
		t.Error("no numeric values must error")
	}
	if _, _, err := ExtremesBy(tb, 0, 9); err == nil {
		t.Error("out of range must error")
	}
}

func TestProfile(t *testing.T) {
	fig3 := paperdata.Fig3Expected()
	p := Profile(fig3)
	if p.NumRows() != fig3.NumCols() {
		t.Fatalf("profile rows = %d", p.NumRows())
	}
	// City column: 7 non-null, 0 numeric, 7 distinct, 0 null fraction.
	for r := 0; r < p.NumRows(); r++ {
		if p.Cell(r, 0).Str() == paperdata.ColCity {
			if p.Cell(r, 1).IntVal() != 7 || p.Cell(r, 3).IntVal() != 7 {
				t.Errorf("city profile row = %v", p.Rows[r])
			}
		}
		if p.Cell(r, 0).Str() == paperdata.ColCases {
			if p.Cell(r, 1).IntVal() != 4 || p.Cell(r, 2).IntVal() != 4 {
				t.Errorf("cases profile row = %v", p.Rows[r])
			}
		}
	}
}
