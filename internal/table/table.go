package table

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/tokenize"
)

// Table is an ordered collection of rows over named columns. Column names in
// data lakes are unreliable: they may be empty, duplicated, or meaningless,
// and no DIALITE component other than the header-baseline schema matcher
// trusts them. Rows are slices of Value with length equal to the number of
// columns.
type Table struct {
	// Name identifies the table within a lake (usually the file name).
	Name string
	// Columns holds the (possibly unreliable) column headers.
	Columns []string
	// Rows holds the data; each row has exactly len(Columns) cells.
	Rows [][]Value
}

// New returns an empty table with the given name and column headers.
func New(name string, columns ...string) *Table {
	return &Table{Name: name, Columns: append([]string(nil), columns...)}
}

// NumRows reports the number of rows.
func (t *Table) NumRows() int { return len(t.Rows) }

// NumCols reports the number of columns.
func (t *Table) NumCols() int { return len(t.Columns) }

// AddRow appends a row, which must have exactly NumCols cells.
func (t *Table) AddRow(cells ...Value) error {
	if len(cells) != t.NumCols() {
		return fmt.Errorf("table %q: row has %d cells, want %d", t.Name, len(cells), t.NumCols())
	}
	t.Rows = append(t.Rows, append([]Value(nil), cells...))
	return nil
}

// MustAddRow is AddRow that panics on arity mismatch. It is intended for
// fixtures and tests where the arity is statically known.
func (t *Table) MustAddRow(cells ...Value) {
	if err := t.AddRow(cells...); err != nil {
		panic(err)
	}
}

// ColumnIndex returns the index of the first column with the given header.
func (t *Table) ColumnIndex(name string) (int, bool) {
	for i, c := range t.Columns {
		if c == name {
			return i, true
		}
	}
	return 0, false
}

// Cell returns the value at row r, column c. It panics if out of range, as
// slice indexing would.
func (t *Table) Cell(r, c int) Value { return t.Rows[r][c] }

// Column returns a copy of column c's cells in row order.
func (t *Table) Column(c int) []Value {
	out := make([]Value, len(t.Rows))
	for i, row := range t.Rows {
		out[i] = row[c]
	}
	return out
}

// DistinctStrings returns the set of distinct non-null cell renderings of
// column c, in first-seen order: the value sequence a column annotation
// votes over (kb.KB.AnnotateColumn; kb.Scratch.ColumnCodes keeps the same
// order). Discovery domains are normalized on top of it: see ValueSet.
func (t *Table) DistinctStrings(c int) []string {
	seen := make(map[string]bool)
	var out []string
	for _, row := range t.Rows {
		v := row[c]
		if v.IsNull() {
			continue
		}
		s := v.String()
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// ValueSet returns the normalized value set of column c: the domain the
// joinable-search indexes (LSH Ensemble, JOSIE) and KB synthesis read, and
// the one extractor query columns are resolved with. It equals
// tokenize.ValueSet(t.DistinctStrings(c)) — same members, same order —
// computed in one pass: raw renderings dedupe first (so each distinct cell
// string normalizes once), then normalized forms, both in first-seen order.
func (t *Table) ValueSet(c int) []string {
	seenRaw := make(map[string]struct{})
	seenNorm := make(map[string]struct{})
	var out []string
	for _, row := range t.Rows {
		v := row[c]
		if v.IsNull() {
			continue
		}
		s := v.String()
		if _, dup := seenRaw[s]; dup {
			continue
		}
		seenRaw[s] = struct{}{}
		n := tokenize.Normalize(s)
		if n == "" {
			continue
		}
		if _, dup := seenNorm[n]; dup {
			continue
		}
		seenNorm[n] = struct{}{}
		out = append(out, n)
	}
	return out
}

// Project returns a new table with the given column indices, in order.
func (t *Table) Project(name string, cols ...int) (*Table, error) {
	for _, c := range cols {
		if c < 0 || c >= t.NumCols() {
			return nil, fmt.Errorf("table %q: project column %d out of range [0,%d)", t.Name, c, t.NumCols())
		}
	}
	headers := make([]string, len(cols))
	for i, c := range cols {
		headers[i] = t.Columns[c]
	}
	out := New(name, headers...)
	for _, row := range t.Rows {
		nr := make([]Value, len(cols))
		for i, c := range cols {
			nr[i] = row[c]
		}
		out.Rows = append(out.Rows, nr)
	}
	return out, nil
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	out := New(t.Name, t.Columns...)
	out.Rows = make([][]Value, len(t.Rows))
	for i, row := range t.Rows {
		out.Rows[i] = append([]Value(nil), row...)
	}
	return out
}

// RowKey returns a canonical key for a row of values.
func RowKey(row []Value) string {
	var b strings.Builder
	for _, v := range row {
		b.WriteString(v.Key())
		b.WriteByte('\x1f')
	}
	return b.String()
}

// CompareRows orders rows lexicographically by Value.Compare.
func CompareRows(a, b []Value) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := a[i].Compare(b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

// SortRows sorts rows into the canonical order. Ties are stable.
func (t *Table) SortRows() {
	sort.SliceStable(t.Rows, func(i, j int) bool {
		return CompareRows(t.Rows[i], t.Rows[j]) < 0
	})
}

// Equal reports whether two tables have identical headers and identical rows
// in identical order (names are ignored).
func (t *Table) Equal(o *Table) bool {
	if t.NumCols() != o.NumCols() || t.NumRows() != o.NumRows() {
		return false
	}
	for i := range t.Columns {
		if t.Columns[i] != o.Columns[i] {
			return false
		}
	}
	for i := range t.Rows {
		for j := range t.Rows[i] {
			if !t.Rows[i][j].Equal(o.Rows[i][j]) {
				return false
			}
		}
	}
	return true
}

// EqualUnordered reports whether two tables contain the same bag of rows
// under the same headers, ignoring row order.
func (t *Table) EqualUnordered(o *Table) bool {
	if t.NumCols() != o.NumCols() || t.NumRows() != o.NumRows() {
		return false
	}
	for i := range t.Columns {
		if t.Columns[i] != o.Columns[i] {
			return false
		}
	}
	a := t.Clone()
	b := o.Clone()
	a.SortRows()
	b.SortRows()
	return a.Equal(b)
}

// String renders the table as an aligned ASCII grid, matching how the
// paper's figures present tables.
func (t *Table) String() string {
	widths := make([]int, t.NumCols())
	for i, c := range t.Columns {
		widths[i] = len([]rune(c))
	}
	cells := make([][]string, len(t.Rows))
	for r, row := range t.Rows {
		cells[r] = make([]string, len(row))
		for c, v := range row {
			s := v.String()
			cells[r][c] = s
			if n := len([]rune(s)); n > widths[c] {
				widths[c] = n
			}
		}
	}
	var b strings.Builder
	if t.Name != "" {
		fmt.Fprintf(&b, "-- %s (%d rows) --\n", t.Name, t.NumRows())
	}
	writeRow := func(fields []string) {
		for c, f := range fields {
			if c > 0 {
				b.WriteString("  ")
			}
			b.WriteString(f)
			for i := len([]rune(f)); i < widths[c]; i++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range cells {
		writeRow(row)
	}
	return b.String()
}
