package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/er"
	"repro/internal/integrate"
	"repro/internal/lake"
	"repro/internal/persist"
	"repro/internal/table"
)

// Config tunes the server.
type Config struct {
	// Timeout bounds each request's wall time; the request context expires
	// at the deadline and every pipeline stage aborts at its next
	// cancellation checkpoint. 0 means DefaultTimeout; negative disables.
	Timeout time.Duration
	// MaxBodyBytes bounds request bodies. 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// MaxInflight caps concurrently executing compute requests
	// (discover/integrate/pipeline/correlate/resolve). Lake mutations get
	// an independent pool of the same size and cheap lake reads get 8x, so
	// neither is starved behind expensive pipeline work. 0 means
	// defaultMaxInflight (4x GOMAXPROCS, at least 4); negative disables the
	// cap.
	MaxInflight int
	// MaxQueueWait bounds how long an at-capacity request may queue for an
	// admission slot before it is shed with 429 + Retry-After; requests
	// whose projected wait already exceeds this (or their own deadline) are
	// shed on arrival. 0 means DefaultMaxQueueWait; negative disables
	// queueing entirely — at-capacity requests shed immediately.
	MaxQueueWait time.Duration
}

// Defaults for Config zero values.
const (
	DefaultTimeout      = 30 * time.Second
	DefaultMaxBodyBytes = 32 << 20
)

// Server serves one DIALITE pipeline over HTTP. Handlers are safe for
// concurrent use: discovery and analysis run concurrently with each other
// and with lake mutations (the lake's concurrency contract), and every
// request is independently scoped — context, timeout, and ER annotation
// cache.
//
// A server may start before its pipeline exists (NewWarming): while a
// persisted lake replays its write-ahead log, the listener is already up
// and answers every pipeline endpoint with 503 + Retry-After, and /healthz
// reports the replay. Attach flips it live once recovery finishes.
type Server struct {
	live  atomic.Pointer[attachment]
	store atomic.Pointer[persist.Store]
	cfg   Config
	mux   *http.ServeMux

	// Admission pools by endpoint class, and the per-endpoint metrics
	// behind /metrics. Both are fully built in NewWarming and read-only
	// afterwards, so the request path touches them without locks.
	admit         [numClasses]*admitter
	metricsByPath map[string]*endpointMetrics
	metricsOrder  []*endpointMetrics

	// Shutdown ordering: closing refuses new mutations, mutGate drains the
	// in-flight ones (mutations hold it shared; shutdown takes it exclusive),
	// and only then is the WAL synced and closed — so ListenAndServe never
	// returns with an acknowledged mutation still volatile.
	closing atomic.Bool
	mutGate sync.RWMutex
}

// attachment is what Attach installs: the pipeline and the /v1/discover
// answer cache that belongs to it (answers.go).
type attachment struct {
	pipe    *core.Pipeline
	answers *answerCache
}

// New builds a server over a constructed pipeline.
func New(p *core.Pipeline, cfg Config) *Server {
	s := NewWarming(cfg)
	s.Attach(p, nil)
	return s
}

// NewWarming builds a server with no pipeline yet: every pipeline endpoint
// answers 503 with a Retry-After hint until Attach is called. It exists so
// a warm restart can bind its port (and expose /healthz) immediately,
// while snapshot load + WAL replay proceed behind it.
func NewWarming(cfg Config) *Server {
	if cfg.Timeout == 0 {
		cfg.Timeout = DefaultTimeout
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = defaultMaxInflight()
	}
	if cfg.MaxQueueWait == 0 {
		cfg.MaxQueueWait = DefaultMaxQueueWait
	}
	s := &Server{cfg: cfg, mux: http.NewServeMux(), metricsByPath: map[string]*endpointMetrics{}}
	k := cfg.MaxInflight
	if k < 0 {
		k = 1 << 20 // "unbounded": far past any plausible connection count
	}
	// Mutations serialize in the lake anyway, so their pool exists to keep
	// them from occupying compute slots, not to parallelize them. Reads are
	// an order of magnitude cheaper than pipeline work; 8x keeps catalog
	// queries answering while the compute class saturates.
	s.admit[classCompute] = newAdmitter(k, cfg.MaxQueueWait)
	s.admit[classMutate] = newAdmitter(k, cfg.MaxQueueWait)
	s.admit[classRead] = newAdmitter(8*k, cfg.MaxQueueWait)
	endpoints := map[string]struct {
		method string
		class  endpointClass
		fn     func(context.Context, *http.Request) (any, error)
	}{
		"/v1/discover":    {http.MethodPost, classCompute, s.discover},
		"/v1/integrate":   {http.MethodPost, classCompute, s.integrate},
		"/v1/pipeline":    {http.MethodPost, classCompute, s.pipeline},
		"/v1/correlate":   {http.MethodPost, classCompute, s.correlate},
		"/v1/resolve":     {http.MethodPost, classCompute, s.resolve},
		"/v1/lake/add":    {http.MethodPost, classMutate, s.lakeAdd},
		"/v1/lake/remove": {http.MethodPost, classMutate, s.lakeRemove},
		"/v1/lake":        {http.MethodGet, classRead, s.lakeInfo},
		"/v1/lake/table":  {http.MethodGet, classRead, s.lakeTable},
		"/v1/lake/tables": {http.MethodPost, classRead, s.lakeTables},
	}
	for path, ep := range endpoints {
		s.mux.HandleFunc(ep.method+" "+path, s.handle(s.newEndpointMetrics(path), ep.class, ep.fn))
	}
	// /healthz, /metrics and /v1/lake/epoch bypass admission and metering:
	// the first two must answer exactly when the serving path is saturated
	// or refusing, and the epoch endpoint is the coordinator's before- and
	// after-sample and its answer-cache probe — queueing it behind
	// saturated compute traffic would shed every cluster read.
	s.mux.HandleFunc("GET /healthz", s.healthz)
	s.mux.HandleFunc("GET /metrics", s.metricsHandler)
	s.mux.HandleFunc("GET /v1/lake/epoch", s.lakeEpoch)
	methods := map[string]string{"/healthz": http.MethodGet, "/metrics": http.MethodGet, "/v1/lake/epoch": http.MethodGet}
	for path, ep := range endpoints {
		methods[path] = ep.method
	}
	// The fallback keeps every error structured: a known path reached with
	// the wrong method is 405 (a catch-all "/" pattern preempts the mux's
	// built-in method check, so it is reproduced here), everything else —
	// including trailing-slash variants, which are not registered paths —
	// is 404.
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if method, known := methods[r.URL.Path]; known && r.Method != method {
			w.Header().Set("Allow", method)
			writeError(w, http.StatusMethodNotAllowed, fmt.Sprintf("%s requires %s", r.URL.Path, method))
			return
		}
		writeError(w, http.StatusNotFound, fmt.Sprintf("no endpoint %s (see /v1/{discover,integrate,pipeline,correlate,resolve,lake})", r.URL.Path))
	})
	return s
}

// Attach binds the pipeline (and, for a persisted lake, its store) and
// flips the server live. store may be nil for an in-memory lake; p must
// not be nil. When a store is attached, lake mutations route through it —
// logged and fsynced before they are acknowledged — and shutdown syncs
// and closes its WAL after draining in-flight mutations. Each Attach starts
// a fresh /v1/discover answer cache, whatever the catalog; over a cluster
// coordinator a hit costs one epoch probe per shard.
func (s *Server) Attach(p *core.Pipeline, store *persist.Store) {
	if store != nil {
		s.store.Store(store)
	}
	s.live.Store(&attachment{pipe: p, answers: newAnswerCache()}) // last: readiness is observed through this pointer
}

// p returns the attached pipeline, or nil while warming.
func (s *Server) p() *core.Pipeline {
	if a := s.live.Load(); a != nil {
		return a.pipe
	}
	return nil
}

// HealthResponse is the /healthz body. Persistence is present only when
// the lake is persisted; ReplayInProgress is true while the server is up
// but the pipeline is still recovering (warming restarts).
type HealthResponse struct {
	Status           string          `json:"status"` // "ok", "warming", "degraded" or "stopping"
	ReplayInProgress bool            `json:"replay_in_progress"`
	Persistence      *persist.Status `json:"persistence,omitempty"`
	// Shards is present in cluster mode: one entry per remote shard process
	// with its own health status ("down" when unreachable). Any shard not
	// "ok" degrades the coordinator's overall Status — the coordinator
	// process is healthy, the catalog behind it is not whole.
	Shards []ShardHealth `json:"shards,omitempty"`
	// Load aggregates the per-endpoint serving counters (see /metrics): one
	// glance says whether the server is saturated or shedding.
	Load LoadSummary `json:"load"`
}

// healthz reports liveness plus the durability state: during a warm
// restart it answers 200 with status "warming" (the process is healthy,
// the lake is not ready), and once attached to a persisted lake it carries
// the store's snapshot/WAL counters and last-fsync time.
func (s *Server) healthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthResponse{Status: "ok"}
	switch {
	case s.p() == nil:
		resp.Status = "warming"
		resp.ReplayInProgress = true
	case s.closing.Load():
		resp.Status = "stopping"
	}
	if p := s.p(); p != nil {
		if rep, ok := p.Lake().(ShardHealthReporter); ok {
			resp.Shards = rep.ShardHealth(r.Context())
			if resp.Status == "ok" {
				for _, sh := range resp.Shards {
					if sh.Status != "ok" {
						resp.Status = "degraded"
						break
					}
				}
			}
		}
	}
	if st := s.store.Load(); st != nil {
		status := st.Status()
		resp.Persistence = &status
		if status.ReadOnly && resp.Status == "ok" {
			// Still live for reads, but mutations are being refused with
			// 503: the store hit a write failure and degraded to read-only.
			resp.Status = "degraded"
		}
	}
	resp.Load = s.loadSummary()
	writeJSON(w, http.StatusOK, resp)
}

// Handler returns the server's routes; mount it on any http.Server (tests
// use httptest).
func (s *Server) Handler() http.Handler { return s.mux }

// ListenAndServe serves until ctx is cancelled, then shuts down: the
// listener closes, every in-flight request's context is cancelled — the
// pipeline stages abort at their next checkpoint and those clients receive
// a structured 503 — and the handlers get shutdownGrace to unwind. Because
// requests are cancellable mid-stage, shutdown is prompt even when requests
// with long deadlines are in flight; nil is returned on a clean stop.
func (s *Server) ListenAndServe(ctx context.Context, addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ctx, ln)
}

// Serve is ListenAndServe over a caller-provided listener — the shape the
// cluster harness and shard helper processes need to bind :0 and report
// the actual port before traffic arrives. It owns ln and closes it on
// return; the shutdown ordering is documented on ListenAndServe.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	// Request contexts descend from baseCtx, not context.Background():
	// http.Server.Shutdown alone never cancels in-flight requests, which
	// would leave shutdown waiting on whatever per-request deadlines remain.
	baseCtx, cancelBase := context.WithCancel(context.Background())
	defer cancelBase()
	srv := &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return baseCtx },
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		// Shutdown ordering matters for durability: first refuse new
		// mutations (503), then drain the in-flight ones and sync + close
		// the WAL — all while the listener still answers queries — and only
		// then close the listener and unwind the remaining handlers. A
		// SIGTERM therefore never races an acknowledged mutation out of the
		// log, and a mutation that got its 200 is on disk before the
		// process exits.
		s.closing.Store(true)
		s.mutGate.Lock() // drains: mutations hold this shared while applying
		var flushErr error
		if st := s.store.Load(); st != nil {
			flushErr = st.Close()
		}
		s.mutGate.Unlock()
		shutCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		cancelBase()
		return errors.Join(flushErr, srv.Shutdown(shutCtx))
	}
}

const shutdownGrace = 15 * time.Second

// ErrorBody is the structured error envelope every non-2xx response
// carries (exported so the cluster shard client decodes the same shape).
type ErrorBody struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

// rawJSON is a response body already encoded by encodeJSON; writeJSON
// sends it as is. The answer cache stores and serves these bytes.
type rawJSON []byte

func writeJSON(w http.ResponseWriter, status int, body any) {
	// Marshal before touching the response: encoding can fail after the
	// fact (a lake cell parsed as ±Inf has no JSON representation), and a
	// failure discovered after WriteHeader would turn into a silent 200
	// with a truncated body. This way it becomes an honest 500.
	raw, ok := body.(rawJSON)
	if !ok {
		var err error
		if raw, err = encodeJSON(body); err != nil {
			if status == http.StatusInternalServerError {
				// The error envelope itself failed to encode; nothing left to say.
				w.WriteHeader(http.StatusInternalServerError)
				return
			}
			writeUnrepresentable(w, err)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(raw)
}

// writeUnrepresentable answers the 500 for a response encodeJSON refused.
func writeUnrepresentable(w http.ResponseWriter, err error) {
	writeError(w, http.StatusInternalServerError, fmt.Sprintf("response not representable as JSON: %v", err))
}

// encodeJSON is the one response encoding: HTML characters unescaped,
// trailing newline.
func encodeJSON(body any) (rawJSON, error) { return appendJSON(nil, body) }

// appendJSON appends encodeJSON's bytes for body to b. A table-bearing
// response writes itself (codec.go), byte for byte what encoding/json
// would write.
func appendJSON(b []byte, body any) ([]byte, error) {
	if a, ok := body.(jsonAppender); ok {
		b, err := a.appendJSON(b)
		if err != nil {
			return nil, err
		}
		return append(b, '\n'), nil
	}
	buf := bytes.NewBuffer(b)
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(body); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorBody{Error: msg, Status: status})
}

// statusFor maps handler errors to HTTP statuses: an expired per-request
// deadline is a gateway timeout, a client cancellation is reported (even if
// rarely read) as service unavailable, an oversized body is 413, a
// contained discoverer panic or operator fault (a server-side fault, not
// the caller's) is 500, and everything else — validation, unknown names,
// malformed tables — is the caller's error.
func statusFor(err error) int {
	var tooBig *http.MaxBytesError
	var sh *shedError
	var coded interface{ HTTPStatus() int }
	var panicked *discovery.PanicError
	var faulted *integrate.OperatorError
	switch {
	case errors.As(err, &coded):
		// Typed errors carry their own status: serve's statusError (e.g.
		// 404 for a missing table) and the cluster package's shard errors,
		// which map a shard's 429/503/504 onto the coordinator response.
		// Checked first: a shard-side timeout surfaces as the shard error's
		// status even when it wraps a context deadline.
		return coded.HTTPStatus()
	case errors.As(err, &sh):
		return http.StatusTooManyRequests
	case errors.Is(err, persist.ErrReadOnly):
		// The store degraded to read-only (disk full / write failure):
		// writes are refused until an operator intervenes, but this is a
		// server-side condition, not the caller's error.
		return http.StatusServiceUnavailable
	case errors.Is(err, lake.ErrPinned):
		// A registered discoverer mutated the pinned handle of its run: a
		// fault of the server's own code, not of the request.
		return http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled), errors.Is(err, errShuttingDown):
		return http.StatusServiceUnavailable
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge
	case errors.As(err, &panicked), errors.As(err, &faulted):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// Retry-After values for the two non-overload refusals. Warming is short:
// replay finishes on its own schedule and clients should re-probe quickly.
// Read-only degradation is sticky until an operator restarts the process,
// so hammering sooner buys nothing.
const (
	warmingRetryAfter  = "1"
	readOnlyRetryAfter = "30"
)

// handle wraps an endpoint with the per-request scope: readiness gate,
// admission control, metering, body limit, timeout context, JSON rendering
// and structured errors. Counter discipline: every arrival is exactly one
// of admitted or shed; every admitted request lands exactly once in the
// latency histogram and exactly one of completed or errors.
func (s *Server) handle(m *endpointMetrics, class endpointClass, fn func(ctx context.Context, r *http.Request) (any, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.p() == nil {
			m.shed.Add(1)
			w.Header().Set("Retry-After", warmingRetryAfter)
			writeError(w, http.StatusServiceUnavailable, "lake recovery in progress; retry shortly")
			return
		}
		arrival := time.Now()
		ctx := r.Context()
		if s.cfg.Timeout > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
			defer cancel()
		}
		if err := s.admit[class].admit(ctx, &m.queued); err != nil {
			// Not served at all — a shed, whatever the error's shape (a
			// context that died in the queue sheds too, it just reports the
			// honest 504/503 instead of 429).
			m.shed.Add(1)
			var sh *shedError
			if errors.As(err, &sh) {
				w.Header().Set("Retry-After", retryAfterSeconds(sh.retryAfter))
			}
			writeError(w, statusFor(err), err.Error())
			return
		}
		m.admitted.Add(1)
		m.inflight.Add(1)
		start := time.Now()
		defer func() {
			s.admit[class].release(start)
			m.inflight.Add(-1)
			m.lat.observe(time.Since(arrival)) // queue wait included: it is what the client felt
		}()
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		out, err := fn(ctx, r)
		if err != nil {
			m.errored.Add(1)
			var hinted interface{ RetryAfterHint() string }
			switch {
			case errors.Is(err, persist.ErrReadOnly):
				w.Header().Set("Retry-After", readOnlyRetryAfter)
			case errors.As(err, &hinted):
				// Typed errors (cluster shard refusals) carry their own
				// retry hint — a dead shard's 503 passes the hint through
				// so clients back off like they would against the shard.
				if h := hinted.RetryAfterHint(); h != "" {
					w.Header().Set("Retry-After", h)
				}
			}
			writeError(w, statusFor(err), err.Error())
			return
		}
		// Encode before counting, and count before writing: a response
		// that cannot be encoded is answered 500 and is an error, not a
		// completion.
		raw, ok := out.(rawJSON)
		if !ok {
			if raw, err = encodeJSON(out); err != nil {
				m.errored.Add(1)
				writeUnrepresentable(w, err)
				return
			}
		}
		m.completed.Add(1)
		writeJSON(w, http.StatusOK, raw)
	}
}

// decodeBody strictly decodes the request body: unknown fields and trailing
// garbage are rejected, and numbers keep full precision (json.Number). A
// table-bearing body goes through the request reader (reader.go) first.
func (s *Server) decodeBody(r *http.Request, dst any) error {
	return decodeWith(r.Body, r.ContentLength, s.cfg.MaxBodyBytes, dst, decodeStrict)
}

// decodeJSON is decodeBody over a body already read.
func decodeJSON(body []byte, dst any) error { return decodeBytes(body, dst, decodeStrict) }

// decodeStrict is the reference decode every request body has always had;
// the request reader falls back to it for every body it declines.
func decodeStrict(r io.Reader, dst any) error {
	dec := json.NewDecoder(r)
	dec.UseNumber()
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return fmt.Errorf("malformed request body: %w", err)
	}
	if dec.More() {
		return fmt.Errorf("malformed request body: trailing data after JSON object")
	}
	return nil
}

// DiscoverRequest is the wire form of the discovery stage input.
type DiscoverRequest struct {
	Query       TableJSON `json:"query"`
	QueryColumn int       `json:"queryColumn"`
	Methods     []string  `json:"methods,omitempty"`
	K           int       `json:"k,omitempty"`
}

// DiscoverResult is one ranked discovery answer.
type DiscoverResult struct {
	Table  string  `json:"table"`
	Score  float64 `json:"score"`
	Method string  `json:"method"`
	Column int     `json:"column"`
}

// ShardErrorJSON is the wire form of one unreachable shard in a partial
// discovery response.
type ShardErrorJSON struct {
	Shard int    `json:"shard"`
	Error string `json:"error"`
}

// DiscoverResponse is the wire form of the discovery stage output. The
// integration set is reported by name (the query first); full tables are
// available through /v1/integrate. Partial is the cluster-mode degradation
// marker: when set, some shards were unreachable during the fan-out and
// the rankings cover the reachable shards only, with per-shard detail in
// ShardErrors. A non-partial response always covers the whole catalog.
type DiscoverResponse struct {
	PerMethod      map[string][]DiscoverResult `json:"perMethod"`
	IntegrationSet []string                    `json:"integrationSet"`
	Partial        bool                        `json:"partial,omitempty"`
	ShardErrors    []ShardErrorJSON            `json:"shardErrors,omitempty"`
}

// discover answers from the attached answer cache when the same body was
// answered under the catalog's current epoch vector, and otherwise runs the
// discovery stage and caches the answer when it is whole (not partial) and
// carries the vector it holds under: always in process, where a run reads
// one pinned state, and for a coordinator when its run was untorn (see
// answers.go).
func (s *Server) discover(ctx context.Context, r *http.Request) (any, error) {
	body, err := readBody(r.Body, r.ContentLength, s.cfg.MaxBodyBytes)
	if err != nil {
		return nil, fmt.Errorf("malformed request body: %w", err)
	}
	live := s.live.Load()
	if hit := live.answers.lookup(body, live.pipe.Lake().Epochs); hit != nil {
		return rawJSON(hit), nil
	}
	var req DiscoverRequest
	if err := decodeJSON(body, &req); err != nil {
		return nil, err
	}
	q, err := req.Query.DecodeTable()
	if err != nil {
		return nil, err
	}
	resp, err := live.pipe.Discover(ctx, core.DiscoverRequest{Query: q, QueryColumn: req.QueryColumn, Methods: req.Methods, K: req.K})
	if err != nil {
		return nil, err
	}
	out := encodeDiscoverResponse(resp)
	if resp.Partial() || resp.Epochs == nil {
		return out, nil
	}
	raw, err := encodeJSON(out)
	if err != nil {
		return out, nil // writeJSON turns the same failure into its 500
	}
	live.answers.store(body, resp.Epochs, raw)
	return raw, nil
}

func encodeDiscoverResponse(resp *core.DiscoverResponse) DiscoverResponse {
	out := DiscoverResponse{PerMethod: make(map[string][]DiscoverResult, len(resp.PerMethod))}
	for m, rs := range resp.PerMethod {
		list := make([]DiscoverResult, 0, len(rs))
		for _, res := range rs {
			list = append(list, DiscoverResult{Table: res.Table.Name, Score: res.Score, Method: res.Method, Column: res.Column})
		}
		out.PerMethod[m] = list
	}
	for _, t := range resp.IntegrationSet {
		out.IntegrationSet = append(out.IntegrationSet, t.Name)
	}
	if resp.Partial() {
		out.Partial = true
		out.ShardErrors = make([]ShardErrorJSON, 0, len(resp.ShardErrors))
		for _, se := range resp.ShardErrors {
			out.ShardErrors = append(out.ShardErrors, ShardErrorJSON{Shard: se.Shard, Error: se.Err.Error()})
		}
	}
	return out
}

// IntegrateRequest names lake tables and/or carries inline tables to
// integrate, in order: named lake tables first, then inline ones.
type IntegrateRequest struct {
	Names          []string    `json:"names,omitempty"`
	Tables         []TableJSON `json:"tables,omitempty"`
	Operator       string      `json:"operator,omitempty"`
	WithProvenance bool        `json:"withProvenance,omitempty"`
}

// IntegrateResponse carries the integrated table.
type IntegrateResponse struct {
	Table    TableJSON `json:"table"`
	Operator string    `json:"operator"`
}

// integrationSet resolves an IntegrateRequest's table list.
func (s *Server) integrationSet(ctx context.Context, req IntegrateRequest) ([]*table.Table, error) {
	set := make([]*table.Table, 0, len(req.Names)+len(req.Tables))
	named, err := s.p().Lake().FetchTables(ctx, req.Names)
	if err != nil {
		return nil, err
	}
	for _, name := range req.Names {
		t, ok := named[name]
		if !ok {
			return nil, fmt.Errorf("no table %q in lake", name)
		}
		set = append(set, t)
	}
	for _, tj := range req.Tables {
		t, err := tj.DecodeTable()
		if err != nil {
			return nil, err
		}
		set = append(set, t)
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("empty integration set: provide names and/or tables")
	}
	return set, nil
}

func (s *Server) integrate(ctx context.Context, r *http.Request) (any, error) {
	var req IntegrateRequest
	if err := s.decodeBody(r, &req); err != nil {
		return nil, err
	}
	set, err := s.integrationSet(ctx, req)
	if err != nil {
		return nil, err
	}
	resp, err := s.p().Integrate(ctx, core.IntegrateRequest{Tables: set, Operator: req.Operator, WithProvenance: req.WithProvenance})
	if err != nil {
		return nil, err
	}
	return IntegrateResponse{Table: EncodeTable(resp.Table), Operator: resp.Operator}, nil
}

// PipelineRequest runs discover-then-integrate end to end.
type PipelineRequest struct {
	Query          TableJSON `json:"query"`
	QueryColumn    int       `json:"queryColumn"`
	Methods        []string  `json:"methods,omitempty"`
	K              int       `json:"k,omitempty"`
	Operator       string    `json:"operator,omitempty"`
	WithProvenance bool      `json:"withProvenance,omitempty"`
}

// PipelineResponse bundles both stage outputs.
type PipelineResponse struct {
	Discovery   DiscoverResponse  `json:"discovery"`
	Integration IntegrateResponse `json:"integration"`
}

func (s *Server) pipeline(ctx context.Context, r *http.Request) (any, error) {
	var req PipelineRequest
	if err := s.decodeBody(r, &req); err != nil {
		return nil, err
	}
	q, err := req.Query.DecodeTable()
	if err != nil {
		return nil, err
	}
	res, err := s.p().Run(ctx, core.RunRequest{
		Query:          q,
		QueryColumn:    req.QueryColumn,
		Methods:        req.Methods,
		K:              req.K,
		Operator:       req.Operator,
		WithProvenance: req.WithProvenance,
	})
	if err != nil {
		return nil, err
	}
	return PipelineResponse{
		Discovery:   encodeDiscoverResponse(res.Discovery),
		Integration: IntegrateResponse{Table: EncodeTable(res.Integration.Table), Operator: res.Integration.Operator},
	}, nil
}

// CorrelateRequest asks for a Pearson correlation between two columns (by
// header name) of an inline table — typically an integration result.
type CorrelateRequest struct {
	Table TableJSON `json:"table"`
	ColA  string    `json:"colA"`
	ColB  string    `json:"colB"`
}

// CorrelateResponse carries the coefficient and the pair count it was
// computed over.
type CorrelateResponse struct {
	R float64 `json:"r"`
	N int     `json:"n"`
}

func (s *Server) correlate(ctx context.Context, r *http.Request) (any, error) {
	var req CorrelateRequest
	if err := s.decodeBody(r, &req); err != nil {
		return nil, err
	}
	t, err := req.Table.DecodeTable()
	if err != nil {
		return nil, err
	}
	rho, n, err := s.p().Correlate(ctx, t, req.ColA, req.ColB)
	if err != nil {
		return nil, err
	}
	return CorrelateResponse{R: rho, N: n}, nil
}

// ResolveRequest asks for entity resolution over an inline table with the
// pipeline's knowledge base (request-scoped annotation cache).
type ResolveRequest struct {
	Table     TableJSON `json:"table"`
	Threshold float64   `json:"threshold,omitempty"`
	Veto      float64   `json:"veto,omitempty"`
}

// ResolveResponse reports the clusters (row indices of the input), the
// merged canonical table, and how many candidate pairs were compared.
type ResolveResponse struct {
	Clusters [][]int   `json:"clusters"`
	Resolved TableJSON `json:"resolved"`
	Pairs    int       `json:"pairs"`
}

func (s *Server) resolve(ctx context.Context, r *http.Request) (any, error) {
	var req ResolveRequest
	if err := s.decodeBody(r, &req); err != nil {
		return nil, err
	}
	t, err := req.Table.DecodeTable()
	if err != nil {
		return nil, err
	}
	res, err := s.p().ResolveEntities(ctx, t, er.Options{Threshold: req.Threshold, Veto: req.Veto})
	if err != nil {
		return nil, err
	}
	return ResolveResponse{Clusters: res.Clusters, Resolved: EncodeTable(res.Resolved), Pairs: len(res.Pairs)}, nil
}

// LakeAddRequest carries tables to index incrementally.
type LakeAddRequest struct {
	Tables []TableJSON `json:"tables"`
}

// LakeRemoveRequest names tables to drop.
type LakeRemoveRequest struct {
	Names []string `json:"names"`
}

// LakeResponse reports the lake's shape after a query or mutation.
type LakeResponse struct {
	Size   int      `json:"size"`
	Tables []string `json:"tables,omitempty"`
}

// errShuttingDown refuses mutations that arrive after shutdown began: the
// WAL is being (or has been) flushed and closed, so acknowledging more
// writes would break the durability contract.
var errShuttingDown = errors.New("server shutting down; lake mutations refused")

// mutate runs one lake mutation under the shutdown drain gate, routing it
// through the durable store when one is attached (logged + fsynced before
// acknowledgement) and straight to the pipeline otherwise.
func (s *Server) mutate(direct func() error, durable func(*persist.Store) error) error {
	if s.closing.Load() {
		return errShuttingDown
	}
	s.mutGate.RLock()
	defer s.mutGate.RUnlock()
	if s.closing.Load() {
		// Shutdown began while this request waited for the gate; the WAL
		// flush may already be underway, so refuse rather than append.
		return errShuttingDown
	}
	if st := s.store.Load(); st != nil {
		return durable(st)
	}
	return direct()
}

// Lake mutations are transactional, not cancellable: once Lake.Add/Remove
// starts, it runs to completion (aborting a half-applied index delta would
// be worse than finishing it), so the per-request timeout bounds only the
// wait to start — the deadline is checked after decoding, and an already-
// expired request mutates nothing. An Add annotates only its own tables:
// the catalog's KB is fixed at build, so nothing is ever re-annotated.
func (s *Server) lakeAdd(ctx context.Context, r *http.Request) (any, error) {
	var req LakeAddRequest
	if err := s.decodeBody(r, &req); err != nil {
		return nil, err
	}
	if len(req.Tables) == 0 {
		return nil, fmt.Errorf("no tables to add")
	}
	tables := make([]*table.Table, 0, len(req.Tables))
	for _, tj := range req.Tables {
		t, err := tj.DecodeTable()
		if err != nil {
			return nil, err
		}
		tables = append(tables, t)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	err := s.mutate(
		func() error { return s.p().AddTables(tables...) },
		func(st *persist.Store) error { return st.Add(tables...) },
	)
	if err != nil {
		return nil, err
	}
	return LakeResponse{Size: s.p().Lake().Size()}, nil
}

// lakeRemove follows lakeAdd's transactional (run-to-completion) contract.
func (s *Server) lakeRemove(ctx context.Context, r *http.Request) (any, error) {
	var req LakeRemoveRequest
	if err := s.decodeBody(r, &req); err != nil {
		return nil, err
	}
	if len(req.Names) == 0 {
		return nil, fmt.Errorf("no tables to remove")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	err := s.mutate(
		func() error { return s.p().RemoveTables(req.Names...) },
		func(st *persist.Store) error { return st.Remove(req.Names...) },
	)
	if err != nil {
		return nil, err
	}
	return LakeResponse{Size: s.p().Lake().Size()}, nil
}

func (s *Server) lakeInfo(ctx context.Context, r *http.Request) (any, error) {
	names, err := s.p().Lake().TableNames(ctx)
	if err != nil {
		return nil, err
	}
	return LakeResponse{Size: len(names), Tables: names}, nil
}
