// Package serve is DIALITE's HTTP face: the paper presents the pipeline as
// a web-served demonstration system (Fig. 1 runs behind an interactive UI),
// and this package is the production shape of that idea — JSON endpoints
// for every pipeline stage (discover, integrate, end-to-end pipeline,
// correlation, entity resolution) and for lake mutation (add/remove),
// served concurrently against one mutable lake.
//
// Every request runs under a context with a per-request timeout; the
// context-first pipeline API propagates cancellation into the index scans,
// the FD closure and the ER pair loop, so an expired or client-cancelled
// query stops computing mid-stage instead of occupying a worker until it
// finishes. Lake mutations are the exception: they are transactional and
// run to completion once started (the deadline is checked before the
// mutation begins). Entity resolution runs request-scoped (er.Resolve
// builds its annotation cache per call), so serving unrelated user tables
// does not grow server memory. Errors are structured JSON; shutdown is
// graceful.
package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"

	"repro/internal/table"
)

// TableJSON is the wire form of a table: column headers plus row-major
// cells. Cells map JSON-natively — null, bool, number and string. A number
// written as an int64 literal decodes as Int; any other number (1e2,
// 100.0, an integer beyond int64) decodes as Float. Both null kinds render
// as JSON null; the missing/produced distinction (± vs ⊥) is presentational
// and does not survive the wire, which no integration or resolution
// *semantics* depend on (nulls of either kind never join, never conflict
// and block nothing).
//
// A TableJSON has two views of its cells. Rows is the client's: it is what
// encoding/json fills when a client decodes a response. t is the server's:
// EncodeTable and the server's request reader set it, DecodeTable returns
// it, and marshalling writes its cells directly, with no []any between.
type TableJSON struct {
	Name    string   `json:"name"`
	Columns []string `json:"columns"`
	Rows    [][]any  `json:"rows"`

	t *table.Table
}

// EncodeTable wraps a table in its wire form. It boxes nothing: Rows stays
// nil, and the cells are written straight from t when the value is
// marshalled or served. Name and Columns mirror t's, and what is written
// is t itself.
func EncodeTable(t *table.Table) TableJSON {
	return TableJSON{Name: t.Name, Columns: t.Columns, t: t}
}

// MarshalJSON writes the table's cells from the table EncodeTable wrapped
// or, for a TableJSON built from Rows, the Rows form exactly as
// encoding/json writes it.
func (tj TableJSON) MarshalJSON() ([]byte, error) { return tj.appendJSON(nil) }

func (tj TableJSON) appendJSON(b []byte) ([]byte, error) {
	if tj.t != nil {
		return appendTable(b, tj.t)
	}
	type rowsForm TableJSON // the same fields without the MarshalJSON method
	return appendMarshal(b, rowsForm(tj))
}

// DecodeTable converts a wire table into the engine's form, validating
// shape: every row must have exactly len(Columns) cells and every cell must
// be null, bool, number or string. A TableJSON that carries its table
// (from EncodeTable or the server's request reader) returns it as is.
func (tj TableJSON) DecodeTable() (*table.Table, error) {
	if tj.t != nil {
		return tj.t, nil
	}
	t := table.New(tj.Name, tj.Columns...)
	for ri, row := range tj.Rows {
		if len(row) != len(tj.Columns) {
			return nil, fmt.Errorf("table %q: row %d has %d cells, want %d", tj.Name, ri, len(row), len(tj.Columns))
		}
		vals := make([]table.Value, len(row))
		for ci, cell := range row {
			v, err := decodeValue(cell)
			if err != nil {
				return nil, fmt.Errorf("table %q: row %d, column %d: %w", tj.Name, ri, ci, err)
			}
			vals[ci] = v
		}
		t.Rows = append(t.Rows, vals)
	}
	return t, nil
}

// decodeValue maps a decoded JSON cell to a Value. Numbers arrive as
// json.Number from the request decoder, which enables UseNumber to keep
// int64 precision, and as float64 from a client that decoded Rows without
// it; a float64 is an Int exactly when table.Integral says it is whole.
func decodeValue(cell any) (table.Value, error) {
	switch c := cell.(type) {
	case nil:
		return table.NullValue(), nil
	case bool:
		return table.BoolValue(c), nil
	case string:
		return table.StringValue(c), nil
	case json.Number:
		if i, err := c.Int64(); err == nil {
			return table.IntValue(i), nil
		}
		f, err := c.Float64()
		if err != nil {
			return table.Value{}, fmt.Errorf("unrepresentable number %q", c.String())
		}
		return table.FloatValue(f), nil
	case float64:
		if table.Integral(c) {
			return table.IntValue(int64(c)), nil
		}
		return table.FloatValue(c), nil
	default:
		return table.Value{}, fmt.Errorf("unsupported cell type %T (want null, bool, number or string)", cell)
	}
}

// The writer. Every function here appends exactly the bytes encoding/json
// writes for the same value with HTML escaping off (encodeJSON's setting);
// a caller that marshals with HTML escaping on gets it from encoding/json's
// own pass over MarshalJSON's output. codec_test.go holds the boxed []any
// reference these are fuzzed against.

// jsonAppender is a response that writes its own JSON: encodeJSON uses it
// instead of reflection.
type jsonAppender interface {
	appendJSON(b []byte) ([]byte, error)
}

// appendTable appends t's wire form.
func appendTable(b []byte, t *table.Table) ([]byte, error) {
	b = append(b, `{"name":`...)
	b = appendString(b, t.Name)
	b = append(b, `,"columns":`...)
	b = appendStrings(b, t.Columns)
	b = append(b, `,"rows":[`...)
	for ri, row := range t.Rows {
		if ri > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		for ci, v := range row {
			if ci > 0 {
				b = append(b, ',')
			}
			switch v.Kind() {
			case table.String:
				b = appendString(b, v.Str())
			case table.Int:
				b = strconv.AppendInt(b, v.IntVal(), 10)
			case table.Float:
				var err error
				if b, err = appendFloat(b, v.FloatVal()); err != nil {
					return nil, err
				}
			case table.Bool:
				b = strconv.AppendBool(b, v.BoolVal())
			default: // both null kinds
				b = append(b, "null"...)
			}
		}
		b = append(b, ']')
	}
	return append(b, "]}"...), nil
}

// appendFloat writes f as encoding/json does: the shortest form that
// round-trips, 'f' for 1e-6 <= |f| < 1e21 and 'e' otherwise, with the
// exponent's leading zero dropped. NaN and ±Inf fail with encoding/json's
// own error.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

const hexDigits = "0123456789abcdef"

// appendString writes s as a JSON string: HTML characters as they are,
// U+2028 and U+2029 always escaped, each invalid UTF-8 byte as \ufffd, and
// the short escapes for \b \f \n \r \t.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && n == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += n
			continue
		}
		i += n
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendStrings writes a string list; nil is null, as encoding/json has it.
func appendStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, s)
	}
	return append(b, ']')
}

// appendMarshal appends encoding/json's form of v with HTML escaping off,
// for the small values beside a table (a discovery answer, ER clusters)
// that have no writer of their own.
func appendMarshal(b []byte, v any) ([]byte, error) {
	b, err := appendJSON(b, v)
	if err != nil {
		return nil, err
	}
	return b[:len(b)-1], nil // the encoder's trailing newline
}

func (r IntegrateResponse) appendJSON(b []byte) ([]byte, error) {
	b, err := r.Table.appendJSON(append(b, `{"table":`...))
	if err != nil {
		return nil, err
	}
	b = appendString(append(b, `,"operator":`...), r.Operator)
	return append(b, '}'), nil
}

func (r PipelineResponse) appendJSON(b []byte) ([]byte, error) {
	b, err := appendMarshal(append(b, `{"discovery":`...), r.Discovery)
	if err != nil {
		return nil, err
	}
	if b, err = r.Integration.appendJSON(append(b, `,"integration":`...)); err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

func (r ResolveResponse) appendJSON(b []byte) ([]byte, error) {
	b, err := appendMarshal(append(b, `{"clusters":`...), r.Clusters)
	if err != nil {
		return nil, err
	}
	if b, err = r.Resolved.appendJSON(append(b, `,"resolved":`...)); err != nil {
		return nil, err
	}
	b = strconv.AppendInt(append(b, `,"pairs":`...), int64(r.Pairs), 10)
	return append(b, '}'), nil
}

func (r LakeTableResponse) appendJSON(b []byte) ([]byte, error) {
	b, err := r.Table.appendJSON(append(b, `{"table":`...))
	if err != nil {
		return nil, err
	}
	return append(b, '}'), nil
}

func (r LakeTablesResponse) appendJSON(b []byte) ([]byte, error) {
	b = append(b, `{"tables":`...)
	if r.Tables == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, tj := range r.Tables {
			if i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = tj.appendJSON(b); err != nil {
				return nil, err
			}
		}
		b = append(b, ']')
	}
	if len(r.Missing) > 0 {
		b = appendStrings(append(b, `,"missing":`...), r.Missing)
	}
	return append(b, '}'), nil
}
