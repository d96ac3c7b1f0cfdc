package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"context"

	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/integrate"
	"repro/internal/kb"
	"repro/internal/lake"
	"repro/internal/paperdata"
	"repro/internal/table"
	"repro/internal/testutil"
)

// newTestServer builds a server over the demo lake {T2, T3}.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	p, err := core.New(paperdata.CovidLake(), core.Config{Knowledge: kb.Demo()})
	if err != nil {
		t.Fatal(err)
	}
	s := New(p, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeResp[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var out T
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	if err := dec.Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDiscoverHappyPath(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Query: EncodeTable(paperdata.T1()), QueryColumn: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	out := decodeResp[DiscoverResponse](t, resp)
	if len(out.PerMethod["santos-union"]) == 0 || out.PerMethod["santos-union"][0].Table != "T2" {
		t.Errorf("santos results = %+v", out.PerMethod["santos-union"])
	}
	if len(out.PerMethod["lsh-join"]) == 0 || out.PerMethod["lsh-join"][0].Table != "T3" {
		t.Errorf("lsh results = %+v", out.PerMethod["lsh-join"])
	}
	if strings.Join(out.IntegrationSet, ",") != "T1,T2,T3" {
		t.Errorf("integration set = %v", out.IntegrationSet)
	}
}

func TestPipelineRoundTrip(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/pipeline", PipelineRequest{Query: EncodeTable(paperdata.T1()), QueryColumn: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	out := decodeResp[PipelineResponse](t, resp)
	if got := len(out.Integration.Table.Rows); got != 7 {
		t.Errorf("integrated rows = %d, want 7 (Fig. 3)", got)
	}
	if out.Integration.Operator != "alite-fd" {
		t.Errorf("operator = %q", out.Integration.Operator)
	}
}

func TestIntegrateByNameAndCorrelate(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/integrate", IntegrateRequest{
		Names:  []string{"T2", "T3"},
		Tables: []TableJSON{EncodeTable(paperdata.T1())},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("integrate status = %d", resp.StatusCode)
	}
	integ := decodeResp[IntegrateResponse](t, resp)
	resp = postJSON(t, ts.URL+"/v1/correlate", CorrelateRequest{
		Table: integ.Table,
		ColA:  paperdata.ColVaccRate,
		ColB:  paperdata.ColDeathRate,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("correlate status = %d", resp.StatusCode)
	}
	out := decodeResp[CorrelateResponse](t, resp)
	if out.N != 3 {
		t.Errorf("correlate n = %d, want 3", out.N)
	}
}

func TestResolveEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := postJSON(t, ts.URL+"/v1/resolve", ResolveRequest{Table: EncodeTable(paperdata.Fig8bExpected())})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	out := decodeResp[ResolveResponse](t, resp)
	if len(out.Resolved.Rows) != 2 {
		t.Errorf("resolved entities = %d, want 2 (Fig. 8(d))", len(out.Resolved.Rows))
	}
}

func TestLakeAddRemove(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	extra := table.New("T9", "City", "Cases")
	extra.MustAddRow(table.StringValue("Berlin"), table.IntValue(10))
	resp := postJSON(t, ts.URL+"/v1/lake/add", LakeAddRequest{Tables: []TableJSON{EncodeTable(extra)}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add status = %d", resp.StatusCode)
	}
	if out := decodeResp[LakeResponse](t, resp); out.Size != 3 {
		t.Errorf("size after add = %d", out.Size)
	}
	// Duplicate add is a client error with a structured body.
	resp = postJSON(t, ts.URL+"/v1/lake/add", LakeAddRequest{Tables: []TableJSON{EncodeTable(extra)}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate add status = %d", resp.StatusCode)
	}
	if e := decodeResp[ErrorBody](t, resp); !strings.Contains(e.Error, "duplicate") {
		t.Errorf("duplicate add error = %q", e.Error)
	}
	resp = postJSON(t, ts.URL+"/v1/lake/remove", LakeRemoveRequest{Names: []string{"T9"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remove status = %d", resp.StatusCode)
	}
	getResp, err := http.Get(ts.URL + "/v1/lake")
	if err != nil {
		t.Fatal(err)
	}
	if out := decodeResp[LakeResponse](t, getResp); out.Size != 2 || strings.Join(out.Tables, ",") != "T2,T3" {
		t.Errorf("lake info = %+v", out)
	}
}

func TestMalformedJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/discover", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	out := decodeResp[ErrorBody](t, resp)
	if !strings.Contains(out.Error, "malformed") || out.Status != http.StatusBadRequest {
		t.Errorf("error body = %+v", out)
	}
	// Unknown fields are rejected too (typo protection).
	resp, err = http.Post(ts.URL+"/v1/discover", "application/json", strings.NewReader(`{"quarry": {}}`))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestMethodAndPathErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Wrong method on a known endpoint.
	resp, err := http.Get(ts.URL + "/v1/discover")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/discover status = %d, want 405", resp.StatusCode)
	}
	resp.Body.Close()
	// A trailing-slash variant is an unknown path, not a method error —
	// even when the method would have matched the slash-less endpoint.
	resp, err = http.Get(ts.URL + "/healthz/")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /healthz/ status = %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
	// Unknown endpoint gets the structured 404.
	resp, err = http.Get(ts.URL + "/v1/nope")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
	if out := decodeResp[ErrorBody](t, resp); !strings.Contains(out.Error, "/v1/nope") {
		t.Errorf("404 body = %+v", out)
	}
	// The retired compaction route is an unknown path too.
	resp = postJSON(t, ts.URL+"/v1/lake/compact", struct{}{})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /v1/lake/compact status = %d, want 404", resp.StatusCode)
	}
	if out := decodeResp[ErrorBody](t, resp); !strings.Contains(out.Error, "/v1/lake/compact") {
		t.Errorf("404 body = %+v", out)
	}
}

func TestRequestTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{Timeout: time.Nanosecond})
	resp := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Query: EncodeTable(paperdata.T1()), QueryColumn: 1})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	if out := decodeResp[ErrorBody](t, resp); out.Status != http.StatusGatewayTimeout {
		t.Errorf("error body = %+v", out)
	}
}

// TestDiscovererPanicIs500 pins the typed-error contract between the
// fan-out and the serving layer: a registered discoverer that panics is a
// server-side fault, answered 500 (matched as *discovery.PanicError, however
// the pipeline wraps it), and the server keeps serving afterwards.
func TestDiscovererPanicIs500(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if err := s.p().Discoverers().Register(discovery.SimilarityFunc{
		FuncName: "bad-hook",
		Sim:      func(query, candidate *table.Table) float64 { panic("user hook exploded") },
	}); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Query: EncodeTable(paperdata.T1()), QueryColumn: 1, Methods: []string{"lsh-join", "bad-hook"}})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if out := decodeResp[ErrorBody](t, resp); !strings.Contains(out.Error, `"bad-hook" panicked: user hook exploded`) || out.Status != http.StatusInternalServerError {
		t.Errorf("error body = %+v", out)
	}
	// A caller error that merely mentions the word stays the caller's.
	resp = postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Query: EncodeTable(paperdata.T1()), QueryColumn: 1, Methods: []string{"panicked:"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown method named %q: status = %d, want 400", "panicked:", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Query: EncodeTable(paperdata.T1()), QueryColumn: 1})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("discover after a contained panic: status = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestOperatorFaultIs500 pins the operator half of the typed-error
// contract: a registered operator that panics, or that returns a tuple
// whose width is not the schema's, is a server-side fault. /v1/integrate
// and /v1/pipeline answer it with a structured 500 (matched as
// *integrate.OperatorError), count it as an error so that admitted =
// completed + errors + in_flight, and keep serving afterwards.
func TestOperatorFaultIs500(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	faults := []integrate.Func{
		{OpName: "explodes", F: func(context.Context, []string, []integrate.AlignedSet) ([]integrate.Tuple, error) {
			panic("user operator exploded")
		}},
		{OpName: "narrow", F: func(context.Context, []string, []integrate.AlignedSet) ([]integrate.Tuple, error) {
			return []integrate.Tuple{{Values: []table.Value{table.StringValue("x")}}}, nil
		}},
	}
	for _, op := range faults {
		if err := s.p().Operators().Register(op); err != nil {
			t.Fatal(err)
		}
	}
	requests := map[string]func(op string) any{
		"/v1/integrate": func(op string) any {
			return IntegrateRequest{Names: []string{"T2", "T3"}, Tables: []TableJSON{EncodeTable(paperdata.T1())}, Operator: op}
		},
		"/v1/pipeline": func(op string) any {
			return PipelineRequest{Query: EncodeTable(paperdata.T1()), QueryColumn: 1, Operator: op}
		},
	}
	for path, request := range requests {
		for _, op := range faults {
			resp := postJSON(t, ts.URL+path, request(op.OpName))
			if resp.StatusCode != http.StatusInternalServerError {
				t.Fatalf("%s with %q: status = %d, want 500", path, op.OpName, resp.StatusCode)
			}
			if out := decodeResp[ErrorBody](t, resp); !strings.Contains(out.Error, fmt.Sprintf("operator %q", op.OpName)) || out.Status != http.StatusInternalServerError {
				t.Errorf("%s with %q: error body = %+v", path, op.OpName, out)
			}
		}
		resp := postJSON(t, ts.URL+path, request(""))
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s after contained faults: status = %d, want 200", path, resp.StatusCode)
		}
		m := endpointSnapshot(t, s, path)
		if m.Admitted != 3 || m.Completed != 1 || m.Errors != 2 || m.InFlight != 0 {
			t.Errorf("%s admitted/completed/errors/in_flight = %d/%d/%d/%d, want 3/1/2/0", path, m.Admitted, m.Completed, m.Errors, m.InFlight)
		}
	}
}

// TestConcurrentQueriesDuringMutation drives discover and resolve requests
// concurrently with lake add/remove churn — the serving contract over the
// mutable lake. CI runs this package under -race.
func TestConcurrentQueriesDuringMutation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan string, rounds*3)
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				switch g {
				case 0: // discovery traffic
					resp := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Query: EncodeTable(paperdata.T1()), QueryColumn: 1, Methods: []string{"lsh-join"}})
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Sprintf("discover status %d", resp.StatusCode)
					}
					resp.Body.Close()
				case 1: // ER traffic (request-scoped annotator)
					resp := postJSON(t, ts.URL+"/v1/resolve", ResolveRequest{Table: EncodeTable(paperdata.Fig8bExpected())})
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Sprintf("resolve status %d", resp.StatusCode)
					}
					resp.Body.Close()
				case 2: // mutation churn
					extra := table.New(fmt.Sprintf("churn-%d", i), "City", "Cases")
					extra.MustAddRow(table.StringValue("Berlin"), table.IntValue(int64(i)))
					resp := postJSON(t, ts.URL+"/v1/lake/add", LakeAddRequest{Tables: []TableJSON{EncodeTable(extra)}})
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Sprintf("add status %d", resp.StatusCode)
					}
					resp.Body.Close()
					resp = postJSON(t, ts.URL+"/v1/lake/remove", LakeRemoveRequest{Names: []string{extra.Name}})
					if resp.StatusCode != http.StatusOK {
						errs <- fmt.Sprintf("remove status %d", resp.StatusCode)
					}
					resp.Body.Close()
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

func TestTableCodecRoundTrip(t *testing.T) {
	in := table.New("mix", "a", "b", "c", "d")
	in.MustAddRow(table.StringValue("x"), table.IntValue(1<<60), table.FloatValue(2.5), table.BoolValue(true))
	in.MustAddRow(table.NullValue(), table.ProducedNull(), table.IntValue(-7), table.StringValue("±"))
	raw, err := json.Marshal(EncodeTable(in))
	if err != nil {
		t.Fatal(err)
	}
	var tj TableJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	if err := dec.Decode(&tj); err != nil {
		t.Fatal(err)
	}
	out, err := tj.DecodeTable()
	if err != nil {
		t.Fatal(err)
	}
	if out.NumRows() != 2 || out.NumCols() != 4 {
		t.Fatalf("shape = %dx%d", out.NumRows(), out.NumCols())
	}
	// Values survive (both null kinds land as missing nulls; int64 precision
	// is preserved through json.Number).
	if got := out.Cell(0, 1); got.Kind() != table.Int || got.IntVal() != 1<<60 {
		t.Errorf("big int cell = %v (%v)", got, got.Kind())
	}
	if got := out.Cell(1, 0); got.Kind() != table.Null {
		t.Errorf("null cell kind = %v", got.Kind())
	}
	if got := out.Cell(1, 1); got.Kind() != table.Null {
		t.Errorf("produced null arrives as missing null, got %v", got.Kind())
	}
	if got := out.Cell(1, 3); got.Kind() != table.String || got.Str() != "±" {
		t.Errorf("literal ± string must stay a string, got %v (%v)", got, got.Kind())
	}
	// Shape violations are rejected.
	bad := TableJSON{Name: "bad", Columns: []string{"a"}, Rows: [][]any{{"x", "y"}}}
	if _, err := bad.DecodeTable(); err == nil {
		t.Error("ragged row must error")
	}
	bad = TableJSON{Name: "bad", Columns: []string{"a"}, Rows: [][]any{{[]any{"nested"}}}}
	if _, err := bad.DecodeTable(); err == nil {
		t.Error("nested cell must error")
	}
}

// parkedDiscoverer blocks inside the discovery stage until its context is
// cancelled — a deterministic in-flight request for the shutdown test.
type parkedDiscoverer struct{ started chan struct{} }

func (d parkedDiscoverer) Name() string { return "parked" }

func (d parkedDiscoverer) Discover(ctx context.Context, l *lake.Lake, q *table.Table, queryCol, k int) ([]discovery.Result, error) {
	close(d.started)
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestShutdownCancelsInFlightRequests pins the graceful-shutdown contract:
// cancelling the serve context aborts in-flight request contexts (the
// handler returns a structured 503 at its next checkpoint) and
// ListenAndServe returns nil promptly, instead of waiting out the
// requests' own deadlines.
func TestShutdownCancelsInFlightRequests(t *testing.T) {
	p, err := core.New(paperdata.CovidLake(), core.Config{Knowledge: kb.Demo()})
	if err != nil {
		t.Fatal(err)
	}
	parked := parkedDiscoverer{started: make(chan struct{})}
	if err := p.Discoverers().Register(parked); err != nil {
		t.Fatal(err)
	}
	s := New(p, Config{Timeout: time.Minute}) // far longer than the test
	addr := testutil.FreeLocalAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- s.ListenAndServe(ctx, addr) }()
	for i := 0; i < 100; i++ {
		if resp, err := http.Get("http://" + addr + "/healthz"); err == nil {
			resp.Body.Close()
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	respc := make(chan *http.Response, 1)
	go func() {
		raw, _ := json.Marshal(DiscoverRequest{Query: EncodeTable(paperdata.T1()), QueryColumn: 1, Methods: []string{"parked"}})
		resp, err := http.Post("http://"+addr+"/v1/discover", "application/json", bytes.NewReader(raw))
		if err != nil {
			respc <- nil
			return
		}
		respc <- resp
	}()
	<-parked.started // the request is provably mid-discovery
	cancel()
	select {
	case resp := <-respc:
		if resp == nil {
			t.Fatal("in-flight request failed at the transport level")
		}
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("in-flight request status = %d, want 503", resp.StatusCode)
		}
		resp.Body.Close()
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight request never returned after shutdown")
	}
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("ListenAndServe returned %v, want nil on clean shutdown", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ListenAndServe did not return after shutdown")
	}
}
