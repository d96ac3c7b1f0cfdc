package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/er"
	"repro/internal/kb"
	"repro/internal/paperdata"
	"repro/internal/table"
)

// The reference codec: every cell boxed into []any and written by
// encoding/json, as the wire form was produced before the direct writer.
// refTable has TableJSON's JSON fields and none of its methods.
type refTable struct {
	Name    string   `json:"name"`
	Columns []string `json:"columns"`
	Rows    [][]any  `json:"rows"`
}

func refRows(t *table.Table) [][]any {
	rows := make([][]any, 0, t.NumRows())
	for _, row := range t.Rows {
		r := make([]any, len(row))
		for i, v := range row {
			r[i] = refValue(v)
		}
		rows = append(rows, r)
	}
	return rows
}

func refValue(v table.Value) any {
	switch v.Kind() {
	case table.String:
		return v.Str()
	case table.Int:
		return v.IntVal()
	case table.Float:
		return v.FloatVal()
	case table.Bool:
		return v.BoolVal()
	default: // both null kinds
		return nil
	}
}

// refTableJSON is t in the client's Rows view, with no table attached.
func refTableJSON(t *table.Table) TableJSON {
	return TableJSON{Name: t.Name, Columns: t.Columns, Rows: refRows(t)}
}

// refJSON encodes v as encodeJSON always has, through encoding/json alone:
// HTML escaping as asked, trailing newline.
func refJSON(v any, escapeHTML bool) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(escapeHTML)
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// fuzzTable builds a table from fuzz input. Each cell takes a kind byte
// and, for numbers and strings, the bytes after it; nilColumns leaves the
// header nil (and the table without cells).
func fuzzTable(name, header string, nilColumns bool, data []byte) *table.Table {
	var cols []string
	if !nilColumns {
		cols = strings.Split(header, ",")
	}
	t := &table.Table{Name: name, Columns: cols}
	if len(cols) == 0 {
		return t
	}
	take := func(n int) []byte {
		if len(data) < n {
			data = append(data, make([]byte, n-len(data))...)
		}
		b := data[:n]
		data = data[n:]
		return b
	}
	var row []table.Value
	for len(data) > 0 {
		var v table.Value
		switch k := take(1)[0]; k % 6 {
		case 0:
			v = table.NullValue()
		case 1:
			v = table.ProducedNull()
		case 2:
			v = table.BoolValue(k&0x80 != 0)
		case 3:
			v = table.IntValue(int64(binary.LittleEndian.Uint64(take(8))))
		case 4:
			v = table.FloatValue(math.Float64frombits(binary.LittleEndian.Uint64(take(8))))
		case 5:
			v = table.StringValue(string(take(int(take(1)[0] % 16))))
		}
		if row = append(row, v); len(row) == len(cols) {
			t.Rows = append(t.Rows, row)
			row = nil
		}
	}
	return t
}

// floatCells encodes cells for fuzzTable: each float as a kind-4 cell.
func floatCells(fs ...float64) []byte {
	var b []byte
	for _, f := range fs {
		b = binary.LittleEndian.AppendUint64(append(b, 4), math.Float64bits(f))
	}
	return b
}

func intCells(is ...int64) []byte {
	var b []byte
	for _, i := range is {
		b = binary.LittleEndian.AppendUint64(append(b, 3), uint64(i))
	}
	return b
}

func strCells(ss ...string) []byte {
	var b []byte
	for _, s := range ss {
		b = append(append(b, 5, byte(len(s))), s...)
	}
	return b
}

// FuzzTableCodec pins the writer to encoding/json over the boxed reference
// form: appendTable byte for byte with HTML escaping off (encodeJSON's
// setting), and json.Marshal of EncodeTable and of a Rows-form TableJSON
// with it on. An unrepresentable cell fails all three on the same value,
// appendTable with encoding/json's exact error.
func FuzzTableCodec(f *testing.F) {
	f.Add("t", "a,b", false, floatCells(math.Copysign(0, -1), 1e21, 1e-7, 5e-324, 1e20, 1e-6, 123.456, -2.5e-8))
	f.Add("t", "a", false, intCells(math.MaxInt64, math.MinInt64, 0, -1))
	f.Add("t", "a,b,c", false, strCells("\u2028\u2029", "\xff\xfe ok \xc3", "\x00\x01\b\f\n\r\t\x1f\x7f", "<a href=\"x\">&amp;</a>", `back\slash "quoted"`, "±⊥"))
	f.Add("<name>&", "<c>,&d", false, []byte{0, 1, 2, 0x82})
	f.Add("empty", "a,b", false, []byte{})
	f.Add("nil columns", "", true, []byte{})
	f.Add("inf", "a", false, floatCells(1, math.Inf(1)))
	f.Add("nan", "a,b", false, floatCells(math.NaN(), math.Inf(-1)))
	f.Fuzz(func(t *testing.T, name, header string, nilColumns bool, data []byte) {
		tbl := fuzzTable(name, header, nilColumns, data)
		ref := refTable{Name: tbl.Name, Columns: tbl.Columns, Rows: refRows(tbl)}
		want, wantErr := refJSON(ref, false)
		got, err := appendTable(nil, tbl)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("appendTable error %v, encoding/json error %v", err, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() {
				t.Fatalf("appendTable error %q, encoding/json error %q", err, wantErr)
			}
		} else if !bytes.Equal(append(got, '\n'), want) {
			t.Fatalf("appendTable wrote\n%q\nencoding/json wrote\n%q", got, want)
		}
		wantHTML, wantErr := json.Marshal(ref)
		for _, tj := range []TableJSON{EncodeTable(tbl), refTableJSON(tbl)} {
			got, err := json.Marshal(tj)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("json.Marshal(TableJSON) error %v, reference error %v", err, wantErr)
			}
			if err != nil {
				var g, w *json.UnsupportedValueError
				if !errors.As(err, &g) || !errors.As(wantErr, &w) || g.Str != w.Str {
					t.Fatalf("json.Marshal(TableJSON) error %v, reference error %v", err, wantErr)
				}
				continue
			}
			if !bytes.Equal(got, wantHTML) {
				t.Fatalf("json.Marshal(TableJSON) wrote\n%q\nthe reference wrote\n%q", got, wantHTML)
			}
		}
	})
}

// decodeKind is one body type the request reader fills, with the table
// fields the handlers decode.
type decodeKind struct {
	name   string
	fresh  func() any
	tables func(v any) []*TableJSON
	// decode is the served path; ref is the path before the reader.
	decode, ref func(body []byte, dst any) error
}

func refStrict(body []byte, dst any) error { return decodeStrict(bytes.NewReader(body), dst) }

func refResponse(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	return dec.Decode(dst)
}

func tablePtrs(tjs []TableJSON) []*TableJSON {
	out := make([]*TableJSON, len(tjs))
	for i := range tjs {
		out[i] = &tjs[i]
	}
	return out
}

var decodeKinds = []decodeKind{
	{"discover", func() any { return new(DiscoverRequest) }, func(v any) []*TableJSON { return []*TableJSON{&v.(*DiscoverRequest).Query} }, decodeJSON, refStrict},
	{"integrate", func() any { return new(IntegrateRequest) }, func(v any) []*TableJSON { return tablePtrs(v.(*IntegrateRequest).Tables) }, decodeJSON, refStrict},
	{"pipeline", func() any { return new(PipelineRequest) }, func(v any) []*TableJSON { return []*TableJSON{&v.(*PipelineRequest).Query} }, decodeJSON, refStrict},
	{"correlate", func() any { return new(CorrelateRequest) }, func(v any) []*TableJSON { return []*TableJSON{&v.(*CorrelateRequest).Table} }, decodeJSON, refStrict},
	{"resolve", func() any { return new(ResolveRequest) }, func(v any) []*TableJSON { return []*TableJSON{&v.(*ResolveRequest).Table} }, decodeJSON, refStrict},
	{"lake add", func() any { return new(LakeAddRequest) }, func(v any) []*TableJSON { return tablePtrs(v.(*LakeAddRequest).Tables) }, decodeJSON, refStrict},
	{"lake tables response", func() any { return new(LakeTablesResponse) }, func(v any) []*TableJSON { return tablePtrs(v.(*LakeTablesResponse).Tables) },
		func(body []byte, dst any) error { return DecodeResponse(bytes.NewReader(body), dst) }, refResponse},
}

// decoded is what a handler makes of a body: the first error (decoding,
// then DecodeTable over the tables in order), or the tables and every other
// field rendered.
func (k decodeKind) decoded(body []byte, decode func([]byte, any) error) (fields string, tables []*table.Table, err error) {
	v := k.fresh()
	if err := decode(body, v); err != nil {
		return "", nil, err
	}
	for _, tj := range k.tables(v) {
		tbl, err := tj.DecodeTable()
		if err != nil {
			return "", nil, err
		}
		tables = append(tables, tbl)
		*tj = TableJSON{}
	}
	return fmt.Sprintf("%#v", v), tables, nil
}

// sameTable compares name, header and every cell's kind and payload, float
// bits included.
func sameTable(a, b *table.Table) error {
	if a.Name != b.Name || !reflect.DeepEqual(a.Columns, b.Columns) || len(a.Rows) != len(b.Rows) {
		return fmt.Errorf("table %q %q %d rows vs %q %q %d rows", a.Name, a.Columns, len(a.Rows), b.Name, b.Columns, len(b.Rows))
	}
	for ri := range a.Rows {
		if len(a.Rows[ri]) != len(b.Rows[ri]) {
			return fmt.Errorf("row %d: %d vs %d cells", ri, len(a.Rows[ri]), len(b.Rows[ri]))
		}
		for ci, x := range a.Rows[ri] {
			y := b.Rows[ri][ci]
			same := x.Kind() == y.Kind()
			switch x.Kind() {
			case table.String:
				same = same && x.Str() == y.Str()
			case table.Int:
				same = same && x.IntVal() == y.IntVal()
			case table.Float:
				same = same && math.Float64bits(x.FloatVal()) == math.Float64bits(y.FloatVal())
			case table.Bool:
				same = same && x.BoolVal() == y.BoolVal()
			}
			if !same {
				return fmt.Errorf("cell (%d,%d): %v (%v) vs %v (%v)", ri, ci, x, x.Kind(), y, y.Kind())
			}
		}
	}
	return nil
}

// decodeSeeds are bodies for FuzzRequestDecode, each tried as every kind.
var decodeSeeds = []string{
	`{"query":{"name":"q","columns":["a","b"],"rows":[["x",1],[null,2.5],[true,false]]},"queryColumn":1,"methods":["lsh-join"],"k":5}`,
	`{"names":["T2"],"tables":[{"name":"t","columns":["a"],"rows":[[1]]}],"operator":"alite-fd","withProvenance":true}`,
	`{"query":{"name":"q","columns":["a"],"rows":[]},"operator":"outer-join","withProvenance":false,"k":0}`,
	`{"table":{"name":"t","columns":["x","y"],"rows":[[1,2],[3,4.5]]},"colA":"x","colB":"y"}`,
	`{"table":{"name":"t","columns":["a"],"rows":[["b"]]},"threshold":0.7,"veto":0.25}`,
	`{"tables":[{"name":"a","columns":["c"],"rows":[[1]]},{"name":"b","columns":[],"rows":[[]]}],"missing":["gone"]}`,
	// numbers: beyond int64, exponent and fraction forms, negative zero
	`{"table":{"name":"n","columns":["a"],"rows":[[9223372036854775808],[-9223372036854775809],[1e2],[100.0],[-0],[-0.0],[1E400],[1e-400],[0.1]]}}`,
	`{"query":{"name":"n","columns":["a"],"rows":[[01]]}}`,
	`{"query":{"name":"n","columns":["a"],"rows":[[1.]]},"k":1e2}`,
	`{"query":{"name":"n","columns":["a"],"rows":[]},"queryColumn":9223372036854775808}`,
	`{"table":{"name":"n","columns":["a"],"rows":[]},"threshold":1e400}`,
	// keys: another letter case, duplicates, escapes
	`{"Table":{"name":"t","columns":["a"],"rows":[[1]]}}`,
	`{"table":{"name":"t","columns":["a"],"rows":[[1]]},"table":{"name":"u","columns":["a"],"rows":[[2]]}}`,
	`{"tables":[{"name":"t","name":"u","columns":["a"],"rows":[[1]]}]}`,
	`{"t\u0061ble":{"n\u0061me":"t","columns":["a"],"rows":[[1]]}}`,
	`{"tables":[],"unknown":1}`,
	// cells: escapes, invalid UTF-8, nesting, raggedness, nulls
	`{"table":{"name":"t\n\"\\\/\b\f\r\té\u2028😀\ud800","columns":["a"],"rows":[["\u0000"],["\ufffd"],["\u00E9"]]}}`,
	"{\"table\":{\"name\":\"\xff\",\"columns\":[\"a\"],\"rows\":[[\"\xc3\"]]}}",
	`{"table":{"name":"t","columns":["a"],"rows":[[[1]]]}}`,
	`{"table":{"name":"t","columns":["a"],"rows":[[{"x":1}]]}}`,
	`{"table":{"name":"t","columns":["a","b"],"rows":[[1,2],[3]]}}`,
	`{"table":{"name":"t","columns":["a"],"rows":[[1,2]]}}`,
	`{"table":{"rows":[[1]],"columns":["a"],"name":"late header"}}`,
	`{"table":{"name":"t","columns":null,"rows":null}}`,
	`{"table":null,"colA":null}`,
	`{"tables":null,"missing":null}`,
	`{"table":{"name":"t","columns":["a"],"rows":[[nul]]}}`,
	// framing: trailing data, whitespace, empty, not an object
	`{"tables":[]} {"tables":[]}`,
	`{"tables":[]}x`,
	" \t\n{ \"tables\" : [ { \"name\" : \"t\" , \"columns\" : [ \"a\" ] , \"rows\" : [ [ 1 ] , [ \"x\" ] ] } ] } \r\n",
	``,
	`null`,
	`[]`,
	`{"tables":[{"name":"t","columns":["a"],"rows":[[1],]}]}`,
}

// FuzzRequestDecode pins the request reader to the reference decode
// (encoding/json with UseNumber and, for requests, DisallowUnknownFields
// and the trailing-data check; then DecodeTable over Rows): the same error
// text for a refused body, and otherwise the same fields and the same
// tables, every cell's kind and bits included. Bodies go to every kind.
func FuzzRequestDecode(f *testing.F) {
	for _, s := range decodeSeeds {
		for k := range decodeKinds {
			f.Add(uint8(k), []byte(s))
		}
	}
	f.Fuzz(func(t *testing.T, kind uint8, body []byte) {
		k := decodeKinds[int(kind)%len(decodeKinds)]
		gotFields, gotTables, gotErr := k.decoded(body, k.decode)
		wantFields, wantTables, wantErr := k.decoded(body, k.ref)
		if (gotErr != nil) != (wantErr != nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error %v, reference error %v", k.name, gotErr, wantErr)
		}
		if gotFields != wantFields {
			t.Fatalf("%s: fields\n%s\nreference\n%s", k.name, gotFields, wantFields)
		}
		for i := range wantTables {
			if err := sameTable(gotTables[i], wantTables[i]); err != nil {
				t.Fatalf("%s: table %d: %v", k.name, i, err)
			}
		}
	})
}

// TestReaderTakesServedBodies checks that the fuzz parity is not vacuous:
// the request reader itself, not its fallback, takes every body the
// server's own clients send.
func TestReaderTakesServedBodies(t *testing.T) {
	mix := table.New("mix <&>", "s", "i", "f", "b", "n")
	mix.MustAddRow(table.StringValue("a \"\\\n<>&é"), table.IntValue(math.MinInt64), table.FloatValue(1e-7), table.BoolValue(true), table.ProducedNull())
	mix.MustAddRow(table.StringValue(""), table.IntValue(math.MaxInt64), table.FloatValue(-1e21), table.BoolValue(false), table.NullValue())
	tables := []TableJSON{EncodeTable(paperdata.T1()), EncodeTable(paperdata.Fig8bExpected()), EncodeTable(mix)}
	bodies := []fieldReader{
		&DiscoverRequest{Query: tables[0], QueryColumn: 1, Methods: []string{"santos"}, K: 3},
		&IntegrateRequest{Names: []string{"T2"}, Tables: tables, Operator: "alite-fd", WithProvenance: true},
		&PipelineRequest{Query: tables[2], QueryColumn: 0, K: 10},
		&CorrelateRequest{Table: tables[2], ColA: "i", ColB: "f"},
		&ResolveRequest{Table: tables[1], Threshold: 0.8, Veto: 0.1},
		&LakeAddRequest{Tables: tables},
		&LakeTablesResponse{Tables: tables, Missing: []string{"gone"}},
	}
	for _, v := range bodies {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		fresh := reflect.New(reflect.TypeOf(v).Elem()).Interface().(fieldReader)
		if !read(body, fresh) {
			t.Errorf("%T: the reader declined %s", v, body)
		}
	}
}

// TestTableJSONNumberRule pins the number rule TableJSON documents, on the
// reader and on the reference decode: only an int64 literal is an Int;
// 1e2, 100.0 and an integer beyond int64 are Floats.
func TestTableJSONNumberRule(t *testing.T) {
	body := []byte(`{"table":{"name":"n","columns":["a"],"rows":[[100],[1e2],[100.0],[-0],[9223372036854775808]]},"colA":"a","colB":"a"}`)
	want := []table.Value{table.IntValue(100), table.FloatValue(100), table.FloatValue(100), table.IntValue(0), table.FloatValue(1 << 63)}
	var fast CorrelateRequest
	if !read(body, &fast) {
		t.Fatal("the reader declined the body")
	}
	var ref CorrelateRequest
	if err := refStrict(body, &ref); err != nil {
		t.Fatal(err)
	}
	for _, req := range []CorrelateRequest{fast, ref} {
		tbl, err := req.Table.DecodeTable()
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range want {
			if got := tbl.Cell(i, 0); got.Kind() != w.Kind() || got.Compare(w) != 0 {
				t.Errorf("row %d: %v (%v), want %v (%v)", i, got, got.Kind(), w, w.Kind())
			}
		}
	}
}

// TestRowsFloatNumberRule pins DecodeTable over Rows a client filled
// without UseNumber, where every number is a float64: a whole number inside
// the int64 range is an Int, anything else a Float, by table.Integral on
// every platform (2^63 is outside the range; −0 is whole).
func TestRowsFloatNumberRule(t *testing.T) {
	tj := TableJSON{Name: "f", Columns: []string{"a"}, Rows: [][]any{{float64(1 << 63)}, {float64(-(1 << 63))}, {float64(1 << 53)}, {math.Copysign(0, -1)}, {0.5}}}
	want := []table.Value{table.FloatValue(1 << 63), table.IntValue(math.MinInt64), table.IntValue(1 << 53), table.IntValue(0), table.FloatValue(0.5)}
	tbl, err := tj.DecodeTable()
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range want {
		if got := tbl.Cell(i, 0); got.Exact() != w.Exact() {
			t.Errorf("row %d: %v (%v), want %v (%v)", i, got, got.Kind(), w, w.Kind())
		}
	}
}

// TestServedBytesMatchReference checks each table-bearing response byte
// for byte against encoding/json over the same answer in the boxed Rows
// form, on the paper's tables.
func TestServedBytesMatchReference(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	p := s.p()
	ctx := context.Background()
	ref := func(v any) []byte {
		t.Helper()
		b, err := refJSON(v, false)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	check := func(what string, status int, got, want []byte) {
		t.Helper()
		if status != http.StatusOK || !bytes.Equal(got, want) {
			t.Errorf("%s: status %d, served\n%s\nreference\n%s", what, status, got, want)
		}
	}
	body := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	lake, err := p.Lake().FetchTables(ctx, []string{"T2", "T3"})
	if err != nil {
		t.Fatal(err)
	}
	integ, err := p.Integrate(ctx, core.IntegrateRequest{Tables: []*table.Table{lake["T2"], lake["T3"], paperdata.T1()}, WithProvenance: true})
	if err != nil {
		t.Fatal(err)
	}
	status, got := postBody(t, ts.URL+"/v1/integrate", body(IntegrateRequest{Names: []string{"T2", "T3"}, Tables: []TableJSON{EncodeTable(paperdata.T1())}, WithProvenance: true}))
	check("integrate", status, got, ref(IntegrateResponse{Table: refTableJSON(integ.Table), Operator: integ.Operator}))

	run, err := p.Run(ctx, core.RunRequest{Query: paperdata.T1(), QueryColumn: 1})
	if err != nil {
		t.Fatal(err)
	}
	status, got = postBody(t, ts.URL+"/v1/pipeline", body(PipelineRequest{Query: EncodeTable(paperdata.T1()), QueryColumn: 1}))
	check("pipeline", status, got, ref(PipelineResponse{
		Discovery:   encodeDiscoverResponse(run.Discovery),
		Integration: IntegrateResponse{Table: refTableJSON(run.Integration.Table), Operator: run.Integration.Operator},
	}))

	res, err := p.ResolveEntities(ctx, paperdata.Fig8bExpected(), er.Options{})
	if err != nil {
		t.Fatal(err)
	}
	status, got = postBody(t, ts.URL+"/v1/resolve", body(ResolveRequest{Table: EncodeTable(paperdata.Fig8bExpected())}))
	check("resolve", status, got, ref(ResolveResponse{Clusters: res.Clusters, Resolved: refTableJSON(res.Resolved), Pairs: len(res.Pairs)}))

	status, got = getBody(t, ts.URL+"/v1/lake/table?name=T2")
	check("lake table", status, got, ref(LakeTableResponse{Table: refTableJSON(lake["T2"])}))

	status, got = postBody(t, ts.URL+"/v1/lake/tables", body(LakeTablesRequest{Names: []string{"T3", "gone", "T2"}}))
	check("lake tables", status, got, ref(LakeTablesResponse{Tables: []TableJSON{refTableJSON(lake["T3"]), refTableJSON(lake["T2"])}, Missing: []string{"gone"}}))
	status, got = postBody(t, ts.URL+"/v1/lake/tables", body(LakeTablesRequest{Names: []string{"gone"}}))
	check("lake tables, none found", status, got, ref(LakeTablesResponse{Tables: []TableJSON{}, Missing: []string{"gone"}}))
}

// TestUnrepresentableCellIs500 pins writeJSON's promise: a lake cell JSON
// cannot represent (a CSV "Inf" parses to +Inf) turns the response into an
// honest 500 naming the value, never a 200 with a truncated body. Each
// table's first cell in row-major order is the one the error names.
func TestUnrepresentableCellIs500(t *testing.T) {
	city := table.StringValue("Boston")
	cases := []struct {
		name string
		cell table.Value
		want string
	}{
		{"posinf", table.Parse("Inf"), "+Inf"},
		{"neginf", table.Parse("-Inf"), "-Inf"},
		{"nan", table.FloatValue(math.NaN()), "NaN"},
	}
	var tables []*table.Table
	for _, c := range cases {
		tbl := table.New(c.name, "City", "Value")
		tbl.MustAddRow(city, table.IntValue(1))
		tbl.MustAddRow(city, c.cell)
		tbl.MustAddRow(city, table.FloatValue(math.Inf(1)))
		tables = append(tables, tbl)
	}
	p, err := core.New(tables, core.Config{Knowledge: kb.Demo()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(p, Config{}).Handler())
	defer ts.Close()
	for _, c := range cases {
		want := "response not representable as JSON: json: unsupported value: " + c.want
		check := func(endpoint string, resp *http.Response) {
			t.Helper()
			if resp.StatusCode != http.StatusInternalServerError {
				t.Errorf("%s %s: status %d, want 500", endpoint, c.name, resp.StatusCode)
			}
			body := decodeResp[ErrorBody](t, resp)
			if body.Error != want || body.Status != http.StatusInternalServerError {
				t.Errorf("%s %s: error %+v, want %q", endpoint, c.name, body, want)
			}
		}
		resp, err := http.Get(ts.URL + "/v1/lake/table?name=" + c.name)
		if err != nil {
			t.Fatal(err)
		}
		check("GET /v1/lake/table", resp)
		check("POST /v1/integrate", postJSON(t, ts.URL+"/v1/integrate", IntegrateRequest{Names: []string{c.name}}))
	}
}

// endpointSnapshot returns one endpoint's metrics snapshot.
func endpointSnapshot(t *testing.T, s *Server, path string) EndpointMetrics {
	t.Helper()
	for _, m := range s.MetricsSnapshot() {
		if m.Endpoint == path {
			return m
		}
	}
	t.Fatalf("no metrics for %s", path)
	return EndpointMetrics{}
}

// TestUnencodableResponseCountsAsError pins Server.handle's accounting: a
// response that fails to encode is answered 500 and counted as an error,
// never as completed, so admitted = completed + errors + in-flight holds
// for what the client actually got.
func TestUnencodableResponseCountsAsError(t *testing.T) {
	tbl := table.New("posinf", "City", "Value")
	tbl.MustAddRow(table.StringValue("Boston"), table.IntValue(1))
	tbl.MustAddRow(table.StringValue("Boston"), table.Parse("Inf"))
	p, err := core.New([]*table.Table{tbl}, core.Config{Knowledge: kb.Demo()})
	if err != nil {
		t.Fatal(err)
	}
	s := New(p, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp := postJSON(t, ts.URL+"/v1/integrate", IntegrateRequest{Names: []string{"posinf"}})
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	m := endpointSnapshot(t, s, "/v1/integrate")
	if m.Admitted != 1 || m.Completed != 0 || m.Errors != 1 {
		t.Fatalf("admitted/completed/errors = %d/%d/%d, want 1/0/1", m.Admitted, m.Completed, m.Errors)
	}
}

// TestCorrelateSkipsNonFiniteCells posts /v1/correlate over columns
// holding "nan", "inf" and an overflowing suffixed number: those cells are
// not numbers to Pearson, so the answer is a 200 with a finite r over the
// three finite pairs, counted as completed.
func TestCorrelateSkipsNonFiniteCells(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := CorrelateRequest{
		Table: TableJSON{Name: "t", Columns: []string{"a", "b"}, Rows: [][]any{
			{1, 2}, {2, 4}, {3, 7}, {"nan", 5}, {4, "inf"}, {"1e308k", 9},
		}},
		ColA: "a", ColB: "b",
	}
	resp := postJSON(t, ts.URL+"/v1/correlate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200: %+v", resp.StatusCode, decodeResp[ErrorBody](t, resp))
	}
	var got struct {
		R float64 `json:"r"`
		N int     `json:"n"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.N != 3 || math.IsNaN(got.R) || math.IsInf(got.R, 0) {
		t.Fatalf("r, n = %v, %d, want a finite r over 3 pairs", got.R, got.N)
	}
	m := endpointSnapshot(t, s, "/v1/correlate")
	if m.Admitted != 1 || m.Completed != 1 || m.Errors != 0 {
		t.Fatalf("admitted/completed/errors = %d/%d/%d, want 1/1/0", m.Admitted, m.Completed, m.Errors)
	}
}

// TestCorrelateHugeMagnitudes posts /v1/correlate over finite cells whose
// squares overflow float64: the answer is a 200 with a finite r, not a 500
// for an unrepresentable NaN.
func TestCorrelateHugeMagnitudes(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	req := CorrelateRequest{
		Table: TableJSON{Name: "t", Columns: []string{"a", "b"}, Rows: [][]any{
			{1e200, 1e200}, {-1e200, -1e200}, {1, 2},
		}},
		ColA: "a", ColB: "b",
	}
	resp := postJSON(t, ts.URL+"/v1/correlate", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200: %+v", resp.StatusCode, decodeResp[ErrorBody](t, resp))
	}
	var got CorrelateResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got.N != 3 || !(math.Abs(got.R-1) <= 1e-12) {
		t.Fatalf("r, n = %v, %d, want r = 1 over 3 pairs", got.R, got.N)
	}
	if m := endpointSnapshot(t, s, "/v1/correlate"); m.Completed != 1 || m.Errors != 0 {
		t.Fatalf("completed/errors = %d/%d, want 1/0", m.Completed, m.Errors)
	}
}

// TestDecodeBodyReadError checks that a body the server cannot read whole
// fails exactly as it did when encoding/json read the stream itself: the
// reference decoder sees the bytes that arrived, then the read error.
func TestDecodeBodyReadError(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 64})
	small := `{"table":{"name":"t","columns":["a"],"rows":[[1]]},"colA":"a","colB":"a"}`
	big := `{"table":{"name":"t","columns":["a"],"rows":[` + strings.Repeat(`[1],`, 40) + `[1]]},"colA":"a","colB":"a"}`
	for _, c := range []struct {
		body   string
		status int
	}{
		{small[:60], http.StatusBadRequest},
		{big, http.StatusRequestEntityTooLarge},
	} {
		status, got := postBody(t, ts.URL+"/v1/correlate", []byte(c.body))
		req := httptest.NewRequest(http.MethodPost, "/", strings.NewReader(c.body))
		req.Body = http.MaxBytesReader(httptest.NewRecorder(), req.Body, 64)
		var dst CorrelateRequest
		wantErr := decodeStrict(req.Body, &dst)
		var eb ErrorBody
		if err := json.Unmarshal(got, &eb); err != nil {
			t.Fatal(err)
		}
		if status != c.status || wantErr == nil || eb.Error != wantErr.Error() {
			t.Errorf("body %.20q…: status %d error %q, want %d %v", c.body, status, eb.Error, c.status, wantErr)
		}
	}
}
