package serve

// Observability regression pin: the /metrics empty-histogram quantile
// rendering. It exists because an operator reading the endpoint acts on what
// it says — a phantom latency on an idle endpoint sends that action in the
// wrong direction.

import (
	"bytes"
	"net/http"
	"strings"
	"testing"
)

// TestMetricsZeroCompletionQuantiles pins the empty-histogram rendering:
// an endpoint with zero completed requests reports p50 = p99 = 0 — not
// the first bucket's upper bound (1µs), which would read as a phantom
// latency on endpoints that have never served. After one completion the
// quantiles turn nonzero for that endpoint only.
func TestMetricsZeroCompletionQuantiles(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	fetch := func() map[string]EndpointMetrics {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics?format=json")
		if err != nil {
			t.Fatal(err)
		}
		byPath := map[string]EndpointMetrics{}
		for _, m := range decodeResp[[]EndpointMetrics](t, resp) {
			byPath[m.Endpoint] = m
		}
		return byPath
	}

	// The snapshot request itself is not metered past its own endpoint, so
	// at this point no metered endpoint has completed anything... except
	// /metrics is unmetered entirely (it bypasses admission). Every
	// endpoint must read zero across the histogram fields.
	for path, m := range fetch() {
		if m.Count != 0 || m.P50NS != 0 || m.P99NS != 0 || m.MaxNS != 0 || m.SumNS != 0 {
			t.Errorf("%s: zero-completion metrics = %+v, want all-zero histogram", path, m)
		}
	}

	// The Prometheus text must render literal zeros too.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	buf := new(bytes.Buffer)
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`dialite_request_seconds{endpoint="/v1/lake",quantile="0.5"} 0`,
		`dialite_request_seconds{endpoint="/v1/lake",quantile="0.99"} 0`,
		`dialite_request_seconds_count{endpoint="/v1/lake"} 0`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("prometheus text missing %q\n%s", want, buf.String())
		}
	}

	// One completion on /v1/lake: its quantiles turn positive; everything
	// else stays zero.
	lr, err := http.Get(ts.URL + "/v1/lake")
	if err != nil {
		t.Fatal(err)
	}
	lr.Body.Close()
	for path, m := range fetch() {
		if path == "/v1/lake" {
			if m.Count != 1 || m.P50NS <= 0 || m.P99NS <= 0 {
				t.Errorf("/v1/lake after one request = %+v, want count 1 and positive quantiles", m)
			}
			continue
		}
		if m.P50NS != 0 || m.P99NS != 0 {
			t.Errorf("%s: idle endpoint got quantiles %d/%d after traffic elsewhere", path, m.P50NS, m.P99NS)
		}
	}
}
