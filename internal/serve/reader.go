package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/table"
)

// The request reader. Table-bearing bodies are read byte by byte straight
// into table.Values, skipping encoding/json's reflection and the []any rows
// DecodeTable would walk again. The reader takes only the plain case and
// declines everything else: a key that does not spell a field name exactly
// (encoding/json also matches other letter cases), a duplicate key, a null
// field, an escape it does not decode itself, invalid UTF-8, a cell that
// is not null, a bool, a number or a string, a ragged row, a number
// strconv refuses, trailing data and any syntax error. On a decline the
// caller reruns the reference decoder over the same bytes and returns
// whatever it returns, so which bodies are accepted and every error text
// stay encoding/json's.

// fieldReader is a body type the reader can fill: field reads the value of
// key, or reports false (reading nothing) for a key that is not a field.
type fieldReader interface {
	field(r *reader, key string) bool
}

// read fills f from b, one JSON object, and reports whether the reader took
// all of b.
func read(b []byte, f fieldReader) bool {
	r := reader{b: b, ok: true}
	r.object(f.field)
	r.ws()
	return r.ok && r.i == len(r.b)
}

// readBody reads a body once, into a buffer sized from its declared length
// when that is known (size >= 0) and within limit; a body longer than limit
// fails its read anyway. On a read error it returns what arrived with the
// error.
func readBody(r io.Reader, size, limit int64) ([]byte, error) {
	if size < 0 || size > limit {
		size = 0
	}
	// MinRead of slack: the read that meets EOF does not grow the buffer.
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// decodeWith reads r once and decodes it into dst (a pointer to a zero
// value): through dst's field switch when it has one and the reader takes
// the bytes, and otherwise through ref, the encoding/json decode the caller
// has always used, over the same bytes followed by the same read error.
func decodeWith(r io.Reader, size, limit int64, dst any, ref func(io.Reader, any) error) error {
	if _, ok := dst.(fieldReader); !ok {
		return ref(r, dst)
	}
	b, err := readBody(r, size, limit)
	if err != nil {
		return ref(io.MultiReader(bytes.NewReader(b), errReader{err}), dst)
	}
	return decodeBytes(b, dst, ref)
}

// decodeBytes is decodeWith over a body already read. The reader fills dst
// as it goes, so a declined body first resets dst to its zero value.
func decodeBytes(b []byte, dst any, ref func(io.Reader, any) error) error {
	if f, ok := dst.(fieldReader); ok {
		if read(b, f) {
			return nil
		}
		reflect.ValueOf(dst).Elem().SetZero()
	}
	return ref(bytes.NewReader(b), dst)
}

type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// DecodeResponse decodes a 200 body another DIALITE server sent into out,
// a pointer to a zero value, as encoding/json does with UseNumber: unknown
// fields and data after the first value are ignored. A LakeTablesResponse
// is read straight into its tables when the reader takes the body.
func DecodeResponse(r io.Reader, out any) error {
	return decodeWith(r, -1, 0, out, func(r io.Reader, out any) error { // length unknown
		dec := json.NewDecoder(r)
		dec.UseNumber() // int64 cells survive the round trip bit-exactly
		return dec.Decode(out)
	})
}

// reader scans one JSON text. The first input it does not take clears ok
// and moves i to the end, so every later call is a no-op and the caller
// checks ok once.
type reader struct {
	b  []byte
	i  int
	ok bool
}

func (r *reader) fail() {
	r.ok = false
	r.i = len(r.b)
}

func (r *reader) ws() {
	for r.i < len(r.b) {
		switch r.b[r.i] {
		case ' ', '\t', '\n', '\r':
			r.i++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (r *reader) peek() byte {
	r.ws()
	if r.i < len(r.b) {
		return r.b[r.i]
	}
	return 0
}

func (r *reader) expect(c byte) bool {
	if r.peek() != c {
		r.fail()
		return false
	}
	r.i++
	return true
}

// more reads the separator after a list element: true after ',', false
// after close.
func (r *reader) more(close byte) bool {
	switch r.peek() {
	case ',':
		r.i++
		return true
	case close:
		r.i++
	default:
		r.fail()
	}
	return false
}

// object reads an object, handing each key to field; a key field does not
// know, or one seen twice, declines. A key may hold escapes, as with
// encoding/json, but must then spell a field name exactly.
func (r *reader) object(field func(r *reader, key string) bool) {
	if !r.expect('{') {
		return
	}
	if r.peek() == '}' {
		r.i++
		return
	}
	var seen [8]string // more than any body type's fields
	for n := 0; r.ok; n++ {
		key := r.str()
		if !r.expect(':') {
			return
		}
		if slices.Contains(seen[:n], key) || !field(r, key) {
			r.fail()
			return
		}
		seen[n] = key
		if !r.more('}') {
			return
		}
	}
}

// str reads a string. It decodes the escapes encoding/json writes and
// declines invalid UTF-8 and escaped surrogates, which encoding/json would
// replace with U+FFFD.
func (r *reader) str() string {
	if !r.expect('"') {
		return ""
	}
	start := r.i
	var buf []byte // the decoded string once an escape is seen
	for r.i < len(r.b) {
		c := r.b[r.i]
		switch {
		case c == '"':
			r.i++
			if buf == nil {
				return string(r.b[start : r.i-1])
			}
			return string(append(buf, r.b[start:r.i-1]...))
		case c == '\\':
			buf = append(buf, r.b[start:r.i]...)
			buf = r.escape(buf)
			start = r.i
		case c < 0x20:
			r.fail()
		case c < utf8.RuneSelf:
			r.i++
		default:
			ch, n := utf8.DecodeRune(r.b[r.i:])
			if ch == utf8.RuneError && n == 1 {
				r.fail()
			}
			r.i += n
		}
	}
	r.fail()
	return ""
}

// escape decodes the escape at r.i onto buf.
func (r *reader) escape(buf []byte) []byte {
	if r.i+1 >= len(r.b) {
		r.fail()
		return buf
	}
	c := r.b[r.i+1]
	r.i += 2
	switch c {
	case '"', '\\', '/':
		return append(buf, c)
	case 'b':
		return append(buf, '\b')
	case 'f':
		return append(buf, '\f')
	case 'n':
		return append(buf, '\n')
	case 'r':
		return append(buf, '\r')
	case 't':
		return append(buf, '\t')
	case 'u':
		if r.i+4 <= len(r.b) {
			if ch, err := strconv.ParseUint(string(r.b[r.i:r.i+4]), 16, 16); err == nil && !utf16Surrogate(rune(ch)) {
				r.i += 4
				return utf8.AppendRune(buf, rune(ch))
			}
		}
	}
	r.fail()
	return buf
}

func utf16Surrogate(c rune) bool { return 0xd800 <= c && c < 0xe000 }

// literal reads one of null, true, false.
func (r *reader) literal(lit string) {
	if len(r.b)-r.i < len(lit) || string(r.b[r.i:r.i+len(lit)]) != lit {
		r.fail()
		return
	}
	r.i += len(lit)
}

// number reads a number literal by JSON's grammar and reports whether it is
// an integer literal (no fraction, no exponent).
func (r *reader) number() (lit []byte, integer bool) {
	r.ws()
	start := r.i
	r.skip('-')
	if !r.skip('0') && r.digits() == 0 {
		r.fail()
		return nil, false
	}
	integer = true
	if r.skip('.') {
		integer = false
		if r.digits() == 0 {
			r.fail()
		}
	}
	if r.skip('e') || r.skip('E') {
		integer = false
		if !r.skip('+') {
			r.skip('-')
		}
		if r.digits() == 0 {
			r.fail()
		}
	}
	return r.b[start:r.i], integer
}

// skip reads c if it is next.
func (r *reader) skip(c byte) bool {
	if r.i < len(r.b) && r.b[r.i] == c {
		r.i++
		return true
	}
	return false
}

// digits reads a run of decimal digits and returns its length.
func (r *reader) digits() int {
	start := r.i
	for r.i < len(r.b) && '0' <= r.b[r.i] && r.b[r.i] <= '9' {
		r.i++
	}
	return r.i - start
}

// cell reads one table cell. A number follows decodeValue: an int64
// literal is an Int, anything else a Float; a number ParseFloat refuses
// declines.
func (r *reader) cell() table.Value {
	switch r.peek() {
	case '"':
		return table.StringValue(r.str())
	case 'n':
		r.literal("null")
		return table.NullValue()
	case 't', 'f':
		return table.BoolValue(r.bool())
	}
	lit, integer := r.number()
	if integer {
		if i, err := strconv.ParseInt(string(lit), 10, 64); err == nil {
			return table.IntValue(i)
		}
	}
	return table.FloatValue(r.parseFloat(lit))
}

// int reads a Go int field: an integer literal in range.
func (r *reader) int() int {
	lit, integer := r.number()
	n, err := strconv.ParseInt(string(lit), 10, 64)
	if !integer || err != nil {
		r.fail()
	}
	return int(n)
}

// float reads a float64 field.
func (r *reader) float() float64 {
	lit, _ := r.number()
	return r.parseFloat(lit)
}

func (r *reader) parseFloat(lit []byte) float64 {
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		r.fail()
	}
	return f
}

// bool reads a bool field.
func (r *reader) bool() bool {
	switch r.peek() {
	case 't':
		r.literal("true")
		return true
	case 'f':
		r.literal("false")
	default:
		r.fail()
	}
	return false
}

// list reads an array, calling elem once per element. An empty array is
// still read, so a []T field comes out non-nil as with encoding/json.
func (r *reader) list(elem func()) {
	if !r.expect('[') {
		return
	}
	if r.peek() == ']' {
		r.i++
		return
	}
	for r.ok {
		elem()
		if !r.more(']') {
			return
		}
	}
}

func (r *reader) strs() []string {
	out := []string{}
	r.list(func() { out = append(out, r.str()) })
	return out
}

func (r *reader) tables() []TableJSON {
	out := []TableJSON{}
	r.list(func() {
		var tj TableJSON
		r.table(&tj)
		out = append(out, tj)
	})
	return out
}

// cellScratch holds the cells of the table being read: rows collect there,
// and the table gets one exact-size copy, so no table keeps the slack of a
// grown slice.
var cellScratch = sync.Pool{New: func() any { return new([]table.Value) }}

// table reads a wire table into tj's Name, Columns and t. All rows share
// one flat cell slice, and each row is a three-index slice of it, so
// appending to a row never runs into the next.
func (r *reader) table(tj *TableJSON) {
	scratch := cellScratch.Get().(*[]table.Value)
	defer func() {
		clear(*scratch) // drop the strings
		*scratch = (*scratch)[:0]
		cellScratch.Put(scratch)
	}()
	var nrows, width int
	r.object(func(r *reader, key string) bool {
		switch key {
		case "name":
			tj.Name = r.str()
		case "columns":
			tj.Columns = r.strs()
		case "rows":
			*scratch, nrows, width = r.rows(*scratch)
		default:
			return false
		}
		return true
	})
	if !r.ok || nrows > 0 && width != len(tj.Columns) {
		r.fail()
		return
	}
	t := table.New(tj.Name, tj.Columns...)
	if nrows > 0 {
		flat := append([]table.Value(nil), *scratch...)
		t.Rows = make([][]table.Value, nrows)
		for k := range t.Rows {
			t.Rows[k] = flat[k*width : (k+1)*width : (k+1)*width]
		}
	}
	tj.t = t
}

// rows reads the rows array, appending its cells row-major to flat, and
// returns them with the row count and the common row width (a ragged row
// declines).
func (r *reader) rows(flat []table.Value) (_ []table.Value, nrows, width int) {
	r.list(func() {
		start := len(flat)
		r.list(func() { flat = append(flat, r.cell()) })
		if w := len(flat) - start; nrows == 0 {
			width = w
		} else if w != width {
			r.fail()
		}
		nrows++
	})
	return flat, nrows, width
}

// The field switches, one per table-bearing body.

func (q *DiscoverRequest) field(r *reader, key string) bool {
	switch key {
	case "query":
		r.table(&q.Query)
	case "queryColumn":
		q.QueryColumn = r.int()
	case "methods":
		q.Methods = r.strs()
	case "k":
		q.K = r.int()
	default:
		return false
	}
	return true
}

func (q *IntegrateRequest) field(r *reader, key string) bool {
	switch key {
	case "names":
		q.Names = r.strs()
	case "tables":
		q.Tables = r.tables()
	case "operator":
		q.Operator = r.str()
	case "withProvenance":
		q.WithProvenance = r.bool()
	default:
		return false
	}
	return true
}

func (q *PipelineRequest) field(r *reader, key string) bool {
	switch key {
	case "query":
		r.table(&q.Query)
	case "queryColumn":
		q.QueryColumn = r.int()
	case "methods":
		q.Methods = r.strs()
	case "k":
		q.K = r.int()
	case "operator":
		q.Operator = r.str()
	case "withProvenance":
		q.WithProvenance = r.bool()
	default:
		return false
	}
	return true
}

func (q *CorrelateRequest) field(r *reader, key string) bool {
	switch key {
	case "table":
		r.table(&q.Table)
	case "colA":
		q.ColA = r.str()
	case "colB":
		q.ColB = r.str()
	default:
		return false
	}
	return true
}

func (q *ResolveRequest) field(r *reader, key string) bool {
	switch key {
	case "table":
		r.table(&q.Table)
	case "threshold":
		q.Threshold = r.float()
	case "veto":
		q.Veto = r.float()
	default:
		return false
	}
	return true
}

func (q *LakeAddRequest) field(r *reader, key string) bool {
	if key != "tables" {
		return false
	}
	q.Tables = r.tables()
	return true
}

func (q *LakeTablesResponse) field(r *reader, key string) bool {
	switch key {
	case "tables":
		q.Tables = r.tables()
	case "missing":
		q.Missing = r.strs()
	default:
		return false
	}
	return true
}
