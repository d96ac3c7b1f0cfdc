// Package analyze implements DIALITE's downstream analytics stage (paper
// §2.3, Example 3): null-aware aggregation, group-by, extremes, Pearson
// correlation, and table profiling over integrated tables. Integrated
// open-data tables carry values like "63%", "1.4M" or "263k"; a numeric
// coercion layer interprets those the way the demo's analyst would, so the
// paper's correlations (0.16 between vaccination and death rates, 0.9
// between cases and vaccination) compute directly from the integrated
// table of Fig. 3.
package analyze

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/table"
)

// Coerce interprets a cell numerically. Ints and floats pass through;
// strings are parsed after stripping currency symbols, commas and spaces,
// honoring a trailing percent sign (stripped) or magnitude suffix
// (k=1e3, M=1e6, B/G=1e9). Nulls and non-numeric strings fail, and so does
// every non-finite result, whatever the cell's kind: ParseFloat accepts
// "nan" and "inf", a suffix can overflow to ±Inf, and a Float cell may hold
// either, but no analysis (nor its JSON answer) can use them.
func Coerce(v table.Value) (float64, bool) {
	f, ok := coerce(v)
	if !ok || math.IsInf(f, 0) || math.IsNaN(f) {
		return 0, false
	}
	return f, true
}

func coerce(v table.Value) (float64, bool) {
	if f, ok := v.AsFloat(); ok {
		return f, true
	}
	if v.Kind() != table.String {
		return 0, false
	}
	s := strings.TrimSpace(v.Str())
	s = strings.ReplaceAll(s, ",", "")
	s = strings.ReplaceAll(s, " ", "")
	s = strings.TrimPrefix(s, "$")
	s = strings.TrimPrefix(s, "€")
	if s == "" {
		return 0, false
	}
	mult := 1.0
	switch s[len(s)-1] {
	case '%':
		s = s[:len(s)-1]
	case 'k', 'K':
		mult = 1e3
		s = s[:len(s)-1]
	case 'm', 'M':
		mult = 1e6
		s = s[:len(s)-1]
	case 'b', 'B', 'g', 'G':
		mult = 1e9
		s = s[:len(s)-1]
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, false
	}
	return f * mult, true
}

// Stats summarizes one column numerically.
type Stats struct {
	Rows    int // total rows
	NonNull int // non-null cells
	Numeric int // cells that coerced to numbers
	Sum     float64
	Mean    float64
	Min     float64
	Max     float64
	Std     float64 // population standard deviation
}

// ColumnStats computes Stats for column col.
func ColumnStats(t *table.Table, col int) (Stats, error) {
	if col < 0 || col >= t.NumCols() {
		return Stats{}, fmt.Errorf("analyze: column %d out of range for table %q", col, t.Name)
	}
	s := Stats{Rows: t.NumRows(), Min: math.Inf(1), Max: math.Inf(-1)}
	var xs []float64
	for _, row := range t.Rows {
		v := row[col]
		if v.IsNull() {
			continue
		}
		s.NonNull++
		f, ok := Coerce(v)
		if !ok {
			continue
		}
		s.Numeric++
		s.Sum += f
		xs = append(xs, f)
		if f < s.Min {
			s.Min = f
		}
		if f > s.Max {
			s.Max = f
		}
	}
	if s.Numeric == 0 {
		s.Min, s.Max = 0, 0
		return s, nil
	}
	s.Mean = s.Sum / float64(s.Numeric)
	var ss float64
	for _, x := range xs {
		d := x - s.Mean
		ss += d * d
	}
	s.Std = math.Sqrt(ss / float64(s.Numeric))
	return s, nil
}

// Pearson computes the Pearson correlation coefficient between two columns
// over the rows where both coerce to numbers (pairwise-complete, exactly
// how the demo's analyst computes over an integrated table with nulls).
// It also reports how many rows contributed. Fewer than two complete pairs
// or a zero-variance side is an error.
func Pearson(t *table.Table, colA, colB int) (r float64, n int, err error) {
	if colA < 0 || colA >= t.NumCols() || colB < 0 || colB >= t.NumCols() {
		return 0, 0, fmt.Errorf("analyze: column out of range for table %q", t.Name)
	}
	var xs, ys []float64
	for _, row := range t.Rows {
		x, okx := Coerce(row[colA])
		y, oky := Coerce(row[colB])
		if okx && oky {
			xs = append(xs, x)
			ys = append(ys, y)
		}
	}
	n = len(xs)
	if n < 2 {
		return 0, n, fmt.Errorf("analyze: only %d complete pairs between columns %d and %d", n, colA, colB)
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= float64(n)
	my /= float64(n)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, n, fmt.Errorf("analyze: zero variance in correlation input")
	}
	return sxy / math.Sqrt(sxx*syy), n, nil
}

// Agg enumerates group-by aggregate functions.
type Agg int

// The supported aggregates.
const (
	Count Agg = iota
	Sum
	Avg
	Min
	Max
)

// String returns the aggregate's SQL-ish name.
func (a Agg) String() string {
	switch a {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Avg:
		return "avg"
	case Min:
		return "min"
	case Max:
		return "max"
	default:
		return "agg?"
	}
}

// GroupBy groups rows by the rendering of keyCol and aggregates the
// coerced values of valCol. Null keys group under "±". Count counts
// non-null values; the other aggregates skip cells that do not coerce.
// The result has columns (key, "<agg>(<valHeader>)") and is sorted by key.
func GroupBy(t *table.Table, keyCol, valCol int, agg Agg) (*table.Table, error) {
	if keyCol < 0 || keyCol >= t.NumCols() || valCol < 0 || valCol >= t.NumCols() {
		return nil, fmt.Errorf("analyze: column out of range for table %q", t.Name)
	}
	type acc struct {
		count    int
		sum      float64
		min, max float64
		any      bool
	}
	groups := make(map[string]*acc)
	for _, row := range t.Rows {
		key := row[keyCol].String()
		g := groups[key]
		if g == nil {
			g = &acc{min: math.Inf(1), max: math.Inf(-1)}
			groups[key] = g
		}
		v := row[valCol]
		if v.IsNull() {
			continue
		}
		if agg == Count {
			g.count++
			continue
		}
		f, ok := Coerce(v)
		if !ok {
			continue
		}
		g.any = true
		g.count++
		g.sum += f
		if f < g.min {
			g.min = f
		}
		if f > g.max {
			g.max = f
		}
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := table.New(
		fmt.Sprintf("%s by %s", agg, t.Columns[keyCol]),
		t.Columns[keyCol],
		fmt.Sprintf("%s(%s)", agg, t.Columns[valCol]),
	)
	for _, k := range keys {
		g := groups[k]
		var v table.Value
		switch agg {
		case Count:
			v = table.IntValue(int64(g.count))
		case Sum:
			v = table.FloatValue(g.sum)
		case Avg:
			if g.count == 0 {
				v = table.NullValue()
			} else {
				v = table.FloatValue(g.sum / float64(g.count))
			}
		case Min:
			if !g.any {
				v = table.NullValue()
			} else {
				v = table.FloatValue(g.min)
			}
		case Max:
			if !g.any {
				v = table.NullValue()
			} else {
				v = table.FloatValue(g.max)
			}
		default:
			return nil, fmt.Errorf("analyze: unknown aggregate %d", agg)
		}
		out.MustAddRow(table.StringValue(k), v)
	}
	return out, nil
}

// Extreme is one end of ExtremesBy.
type Extreme struct {
	Label string
	Value float64
}

// ExtremesBy finds the labels with the minimum and maximum coerced value —
// Example 3's "Boston is the city with the lowest vaccination rate and
// Toronto has the highest". Rows whose value does not coerce are skipped;
// ties keep the first in row order.
func ExtremesBy(t *table.Table, labelCol, valCol int) (min, max Extreme, err error) {
	if labelCol < 0 || labelCol >= t.NumCols() || valCol < 0 || valCol >= t.NumCols() {
		return Extreme{}, Extreme{}, fmt.Errorf("analyze: column out of range for table %q", t.Name)
	}
	found := false
	for _, row := range t.Rows {
		f, ok := Coerce(row[valCol])
		if !ok {
			continue
		}
		label := row[labelCol].String()
		if !found {
			min = Extreme{label, f}
			max = Extreme{label, f}
			found = true
			continue
		}
		if f < min.Value {
			min = Extreme{label, f}
		}
		if f > max.Value {
			max = Extreme{label, f}
		}
	}
	if !found {
		return Extreme{}, Extreme{}, fmt.Errorf("analyze: no numeric values in column %d of table %q", valCol, t.Name)
	}
	return min, max, nil
}

// Profile summarizes every column of a table: non-null count, numeric
// count, distinct count and null fraction. DIALITE shows this after each
// stage so users can validate intermediate results.
func Profile(t *table.Table) *table.Table {
	out := table.New(t.Name+" profile", "column", "non_null", "numeric", "distinct", "null_frac")
	for c := 0; c < t.NumCols(); c++ {
		nonNull, numeric := 0, 0
		distinct := make(map[string]bool)
		for _, row := range t.Rows {
			v := row[c]
			if v.IsNull() {
				continue
			}
			nonNull++
			distinct[v.Key()] = true
			if _, ok := Coerce(v); ok {
				numeric++
			}
		}
		frac := 0.0
		if t.NumRows() > 0 {
			frac = float64(t.NumRows()-nonNull) / float64(t.NumRows())
		}
		out.MustAddRow(
			table.StringValue(t.Columns[c]),
			table.IntValue(int64(nonNull)),
			table.IntValue(int64(numeric)),
			table.IntValue(int64(len(distinct))),
			table.FloatValue(math.Round(frac*1000)/1000),
		)
	}
	return out
}
