package serve

// Sharded serving integration: `dialite serve -shards N` hands the server
// a core pipeline over a lake.Sharded, and every endpoint must behave
// exactly as it does over a single lake — same discovery answers, same
// catalog views, same mutation semantics. The serving layer never
// branches on the catalog's concrete type; this test pins that.

import (
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/lake"
	"repro/internal/paperdata"
	"repro/internal/table"
)

func newShardedTestServer(t *testing.T, shards int) (*Server, *httptest.Server) {
	t.Helper()
	p, err := core.New(paperdata.CovidLake(), core.Config{Knowledge: kb.Demo(), Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	s := New(p, Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestShardedServing(t *testing.T) {
	sharded, shardedTS := newShardedTestServer(t, 3)
	_, plainTS := newTestServer(t, Config{})
	if _, ok := sharded.p().Lake().(*lake.Sharded); !ok {
		t.Fatalf("sharded pipeline holds %T, want *lake.Sharded", sharded.p().Lake())
	}

	// Discovery answers byte-identically to the unsharded server.
	discover := func(url string) DiscoverResponse {
		t.Helper()
		resp := postJSON(t, url+"/v1/discover", DiscoverRequest{Query: EncodeTable(paperdata.T1()), QueryColumn: 1})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("discover status = %d", resp.StatusCode)
		}
		return decodeResp[DiscoverResponse](t, resp)
	}
	got, want := discover(shardedTS.URL), discover(plainTS.URL)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded discover diverged from unsharded\n got: %+v\nwant: %+v", got, want)
	}

	// Mutations route through the composite: add, duplicate-reject, list,
	// remove — same wire behavior as the single lake.
	extra := table.New("T9", "City", "Cases")
	extra.MustAddRow(table.StringValue("Berlin"), table.IntValue(10))
	resp := postJSON(t, shardedTS.URL+"/v1/lake/add", LakeAddRequest{Tables: []TableJSON{EncodeTable(extra)}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add status = %d", resp.StatusCode)
	}
	if out := decodeResp[LakeResponse](t, resp); out.Size != 3 {
		t.Errorf("size after add = %d, want 3", out.Size)
	}
	resp = postJSON(t, shardedTS.URL+"/v1/lake/add", LakeAddRequest{Tables: []TableJSON{EncodeTable(extra)}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("duplicate add status = %d, want 400", resp.StatusCode)
	}
	if e := decodeResp[ErrorBody](t, resp); !strings.Contains(e.Error, "duplicate") {
		t.Errorf("duplicate add error = %q", e.Error)
	}
	resp = postJSON(t, shardedTS.URL+"/v1/lake/remove", LakeRemoveRequest{Names: []string{"T9"}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("remove status = %d", resp.StatusCode)
	}
	getResp, err := http.Get(shardedTS.URL + "/v1/lake")
	if err != nil {
		t.Fatal(err)
	}
	if out := decodeResp[LakeResponse](t, getResp); out.Size != 2 || strings.Join(out.Tables, ",") != "T2,T3" {
		t.Errorf("lake info after churn = %+v", out)
	}

	// /healthz answers for the composite like for any lake.
	hResp, err := http.Get(shardedTS.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h := decodeResp[HealthResponse](t, hResp)
	if h.Status != "ok" {
		t.Errorf("healthz = %+v", h)
	}

	// Full pipeline run (discover → integrate → analyze) over the sharded
	// catalog reproduces the paper flow.
	resp = postJSON(t, shardedTS.URL+"/v1/pipeline", PipelineRequest{Query: EncodeTable(paperdata.T1()), QueryColumn: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pipeline status = %d", resp.StatusCode)
	}
	if out := decodeResp[PipelineResponse](t, resp); len(out.Integration.Table.Rows) != 7 {
		t.Errorf("sharded pipeline integrated rows = %d, want 7 (Fig. 3)", len(out.Integration.Table.Rows))
	}
}
