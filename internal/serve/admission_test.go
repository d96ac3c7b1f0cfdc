package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/kb"
	"repro/internal/lake"
	"repro/internal/paperdata"
	"repro/internal/persist"
	"repro/internal/table"
	"repro/internal/testutil"
)

// --- admitter unit tests: every shed branch, without HTTP in the way ---

func TestAdmitFastPathAndRelease(t *testing.T) {
	a := newAdmitter(2, time.Second)
	var gauge atomic.Int64
	if err := a.admit(context.Background(), &gauge); err != nil {
		t.Fatal(err)
	}
	if err := a.admit(context.Background(), &gauge); err != nil {
		t.Fatal(err)
	}
	a.release(time.Now().Add(-10 * time.Millisecond))
	if got := a.ewmaNS.Load(); got < int64(5*time.Millisecond) {
		t.Fatalf("ewma after first release = %v, want ~10ms", time.Duration(got))
	}
	a.release(time.Now())
	if gauge.Load() != 0 {
		t.Fatalf("queued gauge = %d after fast-path admits", gauge.Load())
	}
}

func TestAdmitShedsWhenQueueingDisabled(t *testing.T) {
	a := newAdmitter(1, -1)
	var gauge atomic.Int64
	if err := a.admit(context.Background(), &gauge); err != nil {
		t.Fatal(err)
	}
	err := a.admit(context.Background(), &gauge)
	var sh *shedError
	if !errors.As(err, &sh) || !strings.Contains(sh.reason, "queueing is disabled") {
		t.Fatalf("admit at capacity = %v, want queueing-disabled shed", err)
	}
	if sh.retryAfter < time.Second {
		t.Fatalf("retryAfter = %v, want >= 1s", sh.retryAfter)
	}
}

func TestAdmitShedsOnProjectedWaitBudget(t *testing.T) {
	a := newAdmitter(1, 100*time.Millisecond)
	a.ewmaNS.Store(int64(time.Hour)) // service times say: the queue is hopeless
	var gauge atomic.Int64
	if err := a.admit(context.Background(), &gauge); err != nil {
		t.Fatal(err)
	}
	err := a.admit(context.Background(), &gauge)
	var sh *shedError
	if !errors.As(err, &sh) || !strings.Contains(sh.reason, "wait budget") {
		t.Fatalf("admit = %v, want projected-wait shed", err)
	}
	if sh.retryAfter < time.Hour {
		t.Fatalf("retryAfter = %v, want the projected wait (~1h)", sh.retryAfter)
	}
}

// TestAdmitShedsOnDeadline pins deadline-aware shedding: a request whose
// projected queue wait exhausts its own deadline is rejected on arrival,
// even when the queue-wait budget alone would have let it wait.
func TestAdmitShedsOnDeadline(t *testing.T) {
	a := newAdmitter(1, 2*time.Hour) // budget far beyond the deadline
	a.ewmaNS.Store(int64(time.Minute))
	var gauge atomic.Int64
	if err := a.admit(context.Background(), &gauge); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := a.admit(ctx, &gauge)
	var sh *shedError
	if !errors.As(err, &sh) || !strings.Contains(sh.reason, "deadline") {
		t.Fatalf("admit = %v, want deadline shed", err)
	}
	if gauge.Load() != 0 {
		t.Fatalf("queued gauge = %d after on-arrival shed", gauge.Load())
	}
}

func TestAdmitShedsAfterWaitBudgetExpires(t *testing.T) {
	a := newAdmitter(1, 30*time.Millisecond) // ewma 0: optimistically queues
	var gauge atomic.Int64
	if err := a.admit(context.Background(), &gauge); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	err := a.admit(context.Background(), &gauge)
	var sh *shedError
	if !errors.As(err, &sh) || !strings.Contains(sh.reason, "no slot freed") {
		t.Fatalf("admit = %v, want wait-budget-expired shed", err)
	}
	if waited := time.Since(start); waited < 30*time.Millisecond {
		t.Fatalf("shed after %v, before the wait budget expired", waited)
	}
	if gauge.Load() != 0 {
		t.Fatalf("queued gauge = %d after timed shed", gauge.Load())
	}
}

func TestAdmitSurfacesContextDeathInQueue(t *testing.T) {
	a := newAdmitter(1, time.Hour)
	var gauge atomic.Int64
	if err := a.admit(context.Background(), &gauge); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(20 * time.Millisecond); cancel() }()
	if err := a.admit(ctx, &gauge); !errors.Is(err, context.Canceled) {
		t.Fatalf("admit with dying ctx = %v, want context.Canceled", err)
	}
}

// --- HTTP-level hardening tests ---

// releasableDiscoverer parks inside the discovery stage until released — a
// deterministic slot-holder for saturation tests.
type releasableDiscoverer struct {
	started chan struct{}
	release chan struct{}
}

func (d releasableDiscoverer) Name() string { return "parkeduntil" }

func (d releasableDiscoverer) Discover(ctx context.Context, l *lake.Lake, q *table.Table, queryCol, k int) ([]discovery.Result, error) {
	d.started <- struct{}{}
	select {
	case <-d.release:
		return nil, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func newSaturationServer(t *testing.T, cfg Config) (releasableDiscoverer, *Server, *httptest.Server) {
	t.Helper()
	p, err := core.New(paperdata.CovidLake(), core.Config{Knowledge: kb.Demo()})
	if err != nil {
		t.Fatal(err)
	}
	d := releasableDiscoverer{started: make(chan struct{}, 64), release: make(chan struct{})}
	if err := p.Discoverers().Register(d); err != nil {
		t.Fatal(err)
	}
	s := New(p, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return d, s, ts
}

func discoverBody(t *testing.T, methods ...string) []byte {
	t.Helper()
	raw, err := json.Marshal(DiscoverRequest{Query: EncodeTable(paperdata.T1()), QueryColumn: 1, Methods: methods})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestSaturationShedding is the acceptance saturation test: with compute
// capacity K and a burst of N >> K, exactly the K admitted requests
// succeed, every other request gets a structured 429 with Retry-After,
// the per-endpoint counters reconcile (admitted + shed = N), and the
// goroutine count settles back to baseline after the burst drains.
func TestSaturationShedding(t *testing.T) {
	const K, N = 2, 32
	d, s, ts := newSaturationServer(t, Config{Timeout: time.Minute, MaxInflight: K, MaxQueueWait: -1})
	client := ts.Client()
	body := discoverBody(t, "parkeduntil")
	before := runtime.NumGoroutine()

	// Occupy every compute slot with parked requests.
	type outcome struct {
		status     int
		retryAfter string
		body       ErrorBody
	}
	results := make(chan outcome, N)
	var wg sync.WaitGroup
	post := func() {
		defer wg.Done()
		resp, err := client.Post(ts.URL+"/v1/discover", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			results <- outcome{}
			return
		}
		var out outcome
		out.status = resp.StatusCode
		out.retryAfter = resp.Header.Get("Retry-After")
		if resp.StatusCode != http.StatusOK {
			_ = json.NewDecoder(resp.Body).Decode(&out.body)
		}
		resp.Body.Close()
		results <- out
	}
	for range K {
		wg.Add(1)
		go post()
	}
	for range K {
		<-d.started // both slot-holders are inside the discovery stage
	}
	// The burst: everything past capacity must shed immediately.
	for range N - K {
		wg.Add(1)
		go post()
	}
	shed := 0
	for range N - K {
		out := <-results
		if out.status != http.StatusTooManyRequests {
			t.Fatalf("burst request status = %d, want 429 (%+v)", out.status, out)
		}
		if out.retryAfter == "" {
			t.Fatal("shed response missing Retry-After")
		}
		if out.body.Status != http.StatusTooManyRequests || !strings.Contains(out.body.Error, "overloaded") {
			t.Fatalf("shed envelope = %+v", out.body)
		}
		shed++
	}
	close(d.release) // drain the admitted pair
	for range K {
		if out := <-results; out.status != http.StatusOK {
			t.Fatalf("admitted request status = %d, want 200", out.status)
		}
	}
	wg.Wait()

	// Counters reconcile: every arrival is exactly one of admitted/shed,
	// and everything admitted completed.
	var disc EndpointMetrics
	for _, m := range s.MetricsSnapshot() {
		if m.Endpoint == "/v1/discover" {
			disc = m
		}
	}
	if disc.Admitted+disc.Shed != N {
		t.Fatalf("admitted %d + shed %d != %d arrivals", disc.Admitted, disc.Shed, N)
	}
	if disc.Admitted != K || disc.Completed != K || disc.Errors != 0 {
		t.Fatalf("admitted/completed/errors = %d/%d/%d, want %d/%d/0", disc.Admitted, disc.Completed, disc.Errors, K, K)
	}
	if disc.InFlight != 0 || disc.Queued != 0 {
		t.Fatalf("in-flight %d / queued %d after drain, want 0/0", disc.InFlight, disc.Queued)
	}
	if disc.Count != disc.Completed+disc.Errors {
		t.Fatalf("histogram count %d != completed %d + errors %d", disc.Count, disc.Completed, disc.Errors)
	}
	client.Transport.(*http.Transport).CloseIdleConnections()
	testutil.WaitGoroutinesSettle(t, before)
}

// TestLoadSmoke is the light-load counterpart of TestSaturationShedding:
// fixed-rate traffic (50 req/s for 600ms, seven catalog reads per discover,
// so both the read and compute classes see load) against a live server on
// default admission settings must come back all 200 — zero errors, zero
// 429s — with p99 under a second. If light traffic trips admission control,
// serving is broken in a way the saturation tests cannot show.
func TestLoadSmoke(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	client := ts.Client()
	disc := discoverBody(t)
	const n, interval = 30, 20 * time.Millisecond
	statuses := make([]int, n)
	latencies := make([]time.Duration, n)
	var wg sync.WaitGroup
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for i := range n {
		<-tick.C
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			var resp *http.Response
			var err error
			if i%8 == 7 {
				resp, err = client.Post(ts.URL+"/v1/discover", "application/json", bytes.NewReader(disc))
			} else {
				resp, err = client.Get(ts.URL + "/v1/lake")
			}
			latencies[i] = time.Since(start)
			if err != nil {
				t.Error(err)
				return
			}
			statuses[i] = resp.StatusCode
			resp.Body.Close()
		}()
	}
	wg.Wait()
	for i, status := range statuses {
		if status != http.StatusOK {
			t.Fatalf("request %d under light load: status %d", i, status)
		}
	}
	slices.Sort(latencies)
	if p99 := latencies[(len(latencies)*99-1)/100]; p99 > time.Second {
		t.Fatalf("p99 %v under light load, want < 1s", p99)
	}
	for _, m := range s.MetricsSnapshot() {
		if m.Shed != 0 || m.Errors != 0 {
			t.Fatalf("%s: shed %d / errors %d under light load", m.Endpoint, m.Shed, m.Errors)
		}
	}
	client.Transport.(*http.Transport).CloseIdleConnections()
}

// TestQueueWaitShed pins the timed-queue path over HTTP: with one slot
// held and a short queue-wait budget, the second request queues, times
// out, and sheds with 429 + Retry-After.
func TestQueueWaitShed(t *testing.T) {
	d, _, ts := newSaturationServer(t, Config{Timeout: time.Minute, MaxInflight: 1, MaxQueueWait: 40 * time.Millisecond})
	body := discoverBody(t, "parkeduntil")
	first := make(chan int, 1)
	go func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/discover", "application/json", bytes.NewReader(body))
		if err != nil {
			first <- 0
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	<-d.started
	resp, err := ts.Client().Post(ts.URL+"/v1/discover", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("queued request status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("timed shed missing Retry-After")
	}
	close(d.release)
	if got := <-first; got != http.StatusOK {
		t.Fatalf("slot-holder status = %d, want 200", got)
	}
}

// TestBodyCapStructured413 pins the request-body cap: an oversized POST
// body is refused with a structured 413 envelope, not a connection reset
// or an unbounded decode.
func TestBodyCapStructured413(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 256})
	huge := fmt.Sprintf(`{"names": [%q]}`, strings.Repeat("x", 4096))
	resp, err := http.Post(ts.URL+"/v1/integrate", "application/json", strings.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status = %d, want 413", resp.StatusCode)
	}
	out := decodeResp[ErrorBody](t, resp)
	if out.Status != http.StatusRequestEntityTooLarge || out.Error == "" {
		t.Fatalf("413 envelope = %+v", out)
	}
}

// TestMetricsEndpoint pins /metrics: Prometheus text by default, the JSON
// snapshot with ?format=json, counters moving with traffic, and the
// endpoint answering without admission in the way.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for range 3 {
		resp, err := http.Get(ts.URL + "/v1/lake")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	buf := new(bytes.Buffer)
	_, _ = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		"# TYPE dialite_admitted_total counter",
		`dialite_admitted_total{endpoint="/v1/lake"} 3`,
		`dialite_shed_total{endpoint="/v1/lake"} 0`,
		"# TYPE dialite_in_flight gauge",
		`dialite_request_seconds{endpoint="/v1/lake",quantile="0.99"}`,
		`dialite_request_seconds_count{endpoint="/v1/lake"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics text missing %q\n%s", want, text)
		}
	}
	resp, err = http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	snaps := decodeResp[[]EndpointMetrics](t, resp)
	if len(snaps) != 10 {
		t.Fatalf("metrics snapshot covers %d endpoints, want 10", len(snaps))
	}
	byPath := map[string]EndpointMetrics{}
	for _, m := range snaps {
		byPath[m.Endpoint] = m
	}
	lk := byPath["/v1/lake"]
	if lk.Admitted != 3 || lk.Completed != 3 || lk.Count != 3 || lk.P50NS <= 0 {
		t.Fatalf("/v1/lake metrics = %+v", lk)
	}
}

// failingFS wraps a persist.FS and fails every file write/sync while
// armed — the disk-full injection for the degraded-serving test.
type failingFS struct {
	persist.FS
	full atomic.Bool
}

var errNoSpace = errors.New("injected: no space left on device")

func (f *failingFS) Create(name string) (persist.File, error) { return f.wrap(f.FS.Create(name)) }
func (f *failingFS) Append(name string) (persist.File, error) { return f.wrap(f.FS.Append(name)) }

func (f *failingFS) wrap(fl persist.File, err error) (persist.File, error) {
	if err != nil {
		return nil, err
	}
	return &failingFile{File: fl, fs: f}, nil
}

type failingFile struct {
	persist.File
	fs *failingFS
}

func (f *failingFile) Write(p []byte) (int, error) {
	if f.fs.full.Load() {
		return 0, errNoSpace
	}
	return f.File.Write(p)
}

func (f *failingFile) Sync() error {
	if f.fs.full.Load() {
		return errNoSpace
	}
	return f.File.Sync()
}

// TestDegradedStoreServing pins graceful degradation under persist write
// failure: once the store degrades to read-only, mutations get 503 +
// Retry-After instead of cascading errors, reads keep answering, and
// /healthz flips to "degraded" with the reason surfaced.
func TestDegradedStoreServing(t *testing.T) {
	fsys := &failingFS{FS: persist.NewMemFS()}
	l, err := lake.New(paperdata.CovidLake(), lake.Options{Knowledge: kb.Demo()})
	if err != nil {
		t.Fatal(err)
	}
	st, err := persist.Create("lake", l, persist.Options{FS: fsys, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	s := NewWarming(Config{})
	s.Attach(core.FromLake(l), st)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	fsys.full.Store(true)
	extra := table.New("T9", "City", "Cases")
	extra.MustAddRow(table.StringValue("Berlin"), table.IntValue(10))
	resp := postJSON(t, ts.URL+"/v1/lake/add", LakeAddRequest{Tables: []TableJSON{EncodeTable(extra)}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("add on full disk status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != readOnlyRetryAfter {
		t.Fatalf("Retry-After = %q, want %q", got, readOnlyRetryAfter)
	}
	out := decodeResp[ErrorBody](t, resp)
	if !strings.Contains(out.Error, "read-only") {
		t.Fatalf("degraded envelope = %+v", out)
	}

	// Reads keep answering from the pre-failure state.
	getResp, err := http.Get(ts.URL + "/v1/lake")
	if err != nil {
		t.Fatal(err)
	}
	if info := decodeResp[LakeResponse](t, getResp); getResp.StatusCode != http.StatusOK || info.Size != 2 {
		t.Fatalf("lake read while degraded: status %d, %+v", getResp.StatusCode, info)
	}

	hResp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health := decodeResp[HealthResponse](t, hResp)
	if health.Status != "degraded" {
		t.Fatalf("health status = %q, want degraded", health.Status)
	}
	if health.Persistence == nil || !health.Persistence.ReadOnly || health.Persistence.ReadOnlyReason == "" {
		t.Fatalf("health persistence = %+v", health.Persistence)
	}
	if health.Load.Errors == 0 {
		t.Fatalf("load summary missed the failed mutation: %+v", health.Load)
	}
}

// TestWarmingShedding pins warm-restart readiness end to end: while the
// lake replays, every pipeline endpoint sheds with 503 + Retry-After
// exactly "1", /healthz reports "warming", queued-then-shed requests leak
// no goroutines, and Attach flips /healthz to "ok" and traffic live.
func TestWarmingShedding(t *testing.T) {
	s := NewWarming(Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	client := ts.Client()
	before := runtime.NumGoroutine()

	hResp, err := client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if health := decodeResp[HealthResponse](t, hResp); health.Status != "warming" || !health.ReplayInProgress {
		t.Fatalf("warming health = %+v", health)
	}

	const burst = 16
	var wg sync.WaitGroup
	statuses := make(chan *http.Response, burst)
	for range burst {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Post(ts.URL+"/v1/discover", "application/json", strings.NewReader("{}"))
			if err != nil {
				t.Error(err)
				return
			}
			statuses <- resp
		}()
	}
	wg.Wait()
	close(statuses)
	for resp := range statuses {
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("warming request status = %d, want 503", resp.StatusCode)
		}
		if got := resp.Header.Get("Retry-After"); got != warmingRetryAfter {
			t.Fatalf("warming Retry-After = %q, want %q", got, warmingRetryAfter)
		}
		resp.Body.Close()
	}
	var disc EndpointMetrics
	for _, m := range s.MetricsSnapshot() {
		if m.Endpoint == "/v1/discover" {
			disc = m
		}
	}
	if disc.Shed != burst || disc.Admitted != 0 {
		t.Fatalf("warming sheds = %d / admitted = %d, want %d / 0", disc.Shed, disc.Admitted, burst)
	}
	client.Transport.(*http.Transport).CloseIdleConnections()
	testutil.WaitGoroutinesSettle(t, before)

	// Attach flips it live.
	p, err := core.New(paperdata.CovidLake(), core.Config{Knowledge: kb.Demo()})
	if err != nil {
		t.Fatal(err)
	}
	s.Attach(p, nil)
	hResp, err = client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if health := decodeResp[HealthResponse](t, hResp); health.Status != "ok" || health.ReplayInProgress {
		t.Fatalf("attached health = %+v", health)
	}
	resp := postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Query: EncodeTable(paperdata.T1()), QueryColumn: 1})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("discover after attach = %d, want 200", resp.StatusCode)
	}
}

// TestRetryAfterSecondsFloor pins the Retry-After rendering floor: the
// header is whole seconds rounded up and never "0" — RFC 9110 allows a
// zero delay, but well-behaved clients treat it as "retry immediately",
// which under shedding is exactly the retry storm the hint exists to
// prevent. Sub-second projections (including a zero or negative EWMA
// projection on a cold admitter) must render as "1".
func TestRetryAfterSecondsFloor(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{-time.Second, "1"},
		{0, "1"},
		{time.Nanosecond, "1"},
		{999 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1500 * time.Millisecond, "2"},
		{10 * time.Second, "10"},
	}
	for _, c := range cases {
		if got := retryAfterSeconds(c.d); got != c.want {
			t.Errorf("retryAfterSeconds(%v) = %q, want %q", c.d, got, c.want)
		}
	}
	// And through the shed path itself: a cold admitter (no completions
	// yet, so the EWMA projection is zero) must produce a hint that
	// renders as "1", never "0".
	a := newAdmitter(1, -1)
	var gauge atomic.Int64
	if err := a.admit(context.Background(), &gauge); err != nil {
		t.Fatal(err)
	}
	err := a.admit(context.Background(), &gauge)
	var sh *shedError
	if !errors.As(err, &sh) {
		t.Fatalf("admit at capacity = %v, want shed", err)
	}
	if got := retryAfterSeconds(sh.retryAfter); got == "0" || got == "" {
		t.Fatalf("cold-admitter shed rendered Retry-After %q", got)
	}
}
