package serve

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"repro/internal/persist"
)

// This file is the serving layer's cluster surface: the shard-side
// endpoints a coordinator scatters over (epoch sampling, table fetch,
// compaction) and the coordinator-side aggregation interfaces (/healthz
// and /metrics reporting per-shard state). The cluster package implements
// the interfaces; serve only type-asserts them on the attached catalog, so
// serve never imports cluster (cluster imports serve for the wire types).

// EpochResponse is the GET /v1/lake/epoch body: the catalog's mutation-
// epoch vector (lake.Catalog.Epochs) plus its current size. The endpoint
// bypasses admission control like /healthz — a coordinator samples it
// before and after every discovery fan-out, and queueing the sample behind
// saturated compute traffic would turn every cluster read into a shed.
type EpochResponse struct {
	Epochs []uint64 `json:"epochs"`
	Size   int      `json:"size"`
}

// lakeEpoch serves the epoch vector. While warming there is no catalog to
// sample, so it answers 503 + Retry-After exactly like a metered endpoint
// would — a coordinator treats that as "shard not ready", not as an error.
func (s *Server) lakeEpoch(w http.ResponseWriter, r *http.Request) {
	p := s.p()
	if p == nil {
		w.Header().Set("Retry-After", warmingRetryAfter)
		writeError(w, http.StatusServiceUnavailable, "lake recovery in progress; retry shortly")
		return
	}
	l := p.Lake()
	writeJSON(w, http.StatusOK, EpochResponse{Epochs: l.Epochs(), Size: l.Size()})
}

// LakeTableResponse is the GET /v1/lake/table?name=X body.
type LakeTableResponse struct {
	Table TableJSON `json:"table"`
}

func (s *Server) lakeTable(ctx context.Context, r *http.Request) (any, error) {
	name := r.URL.Query().Get("name")
	if name == "" {
		return nil, fmt.Errorf("missing ?name= query parameter")
	}
	got, err := s.p().Lake().FetchTables(ctx, []string{name})
	if err != nil {
		return nil, err
	}
	t, ok := got[name]
	if !ok {
		return nil, &statusError{code: http.StatusNotFound, msg: fmt.Sprintf("no table %q in lake", name)}
	}
	return LakeTableResponse{Table: EncodeTable(t)}, nil
}

// LakeTablesRequest is the POST /v1/lake/tables body: a batch table fetch.
// The coordinator uses it to materialize a merged discovery top-k in one
// round trip per shard instead of k.
type LakeTablesRequest struct {
	Names []string `json:"names"`
}

// LakeTablesResponse carries the tables that exist; names that do not
// (removed between the caller's ranking and this fetch) land in Missing
// rather than failing the batch — the caller decides what a gap means. A
// lookup the catalog could not answer (a coordinator's shard is down) fails
// the request with that shard's status instead; Missing only ever means
// absent.
type LakeTablesResponse struct {
	Tables  []TableJSON `json:"tables"`
	Missing []string    `json:"missing,omitempty"`
}

func (s *Server) lakeTables(ctx context.Context, r *http.Request) (any, error) {
	var req LakeTablesRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	if len(req.Names) == 0 {
		return nil, fmt.Errorf("no table names to fetch")
	}
	got, err := s.p().Lake().FetchTables(ctx, req.Names)
	if err != nil {
		return nil, err
	}
	resp := LakeTablesResponse{Tables: make([]TableJSON, 0, len(req.Names))}
	for _, n := range req.Names {
		if t, ok := got[n]; ok {
			resp.Tables = append(resp.Tables, EncodeTable(t))
		} else {
			resp.Missing = append(resp.Missing, n)
		}
	}
	return resp, nil
}

// lakeCompact forces the catalog's index compaction (POST /v1/lake/compact).
// Compaction never changes query answers and appends nothing to the WAL, so
// both the in-memory and the durable path run it directly; it still goes
// through the mutation gate so shutdown's drain ordering holds.
func (s *Server) lakeCompact(ctx context.Context, r *http.Request) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	compact := func() error { s.p().Lake().Compact(); return nil }
	if err := s.mutate(compact, func(*persist.Store) error { return compact() }); err != nil {
		return nil, err
	}
	return LakeResponse{Size: s.p().Lake().Size()}, nil
}

// statusError carries an explicit HTTP status through the generic handler
// path; statusFor honors any error exposing HTTPStatus, including the
// cluster package's typed shard errors.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string   { return e.msg }
func (e *statusError) HTTPStatus() int { return e.code }

// ShardHealth is one remote shard's state as the coordinator's /healthz
// reports it: "ok", "warming", "degraded", "stopping" (the shard's own
// /healthz status) or "down" when the shard is unreachable.
type ShardHealth struct {
	Shard  int    `json:"shard"`
	Addr   string `json:"addr"`
	Status string `json:"status"`
	Size   int    `json:"size,omitempty"`
	Error  string `json:"error,omitempty"`
}

// ShardHealthReporter is implemented by cluster-mode catalogs: /healthz
// type-asserts it on the attached catalog and, when present, aggregates the
// per-shard states into the response (any shard not "ok" degrades the
// coordinator's overall status).
type ShardHealthReporter interface {
	ShardHealth(ctx context.Context) []ShardHealth
}

// ShardMetrics is one shard's fan-out transport counters as the
// coordinator's /metrics reports them. Latency fields are the round-trip
// time of shard calls, from the same log2-bucketed histogram the endpoint
// metrics use. The TableCache fields are the shard's share of the
// coordinator's decoded-table cache: lookups of its table names that hit,
// missed (no entry) or found an entry under another epoch (stale), its
// entries evicted to stay within the cache's bound, and the bytes its
// entries hold now. A fetch the cache avoided is not a call.
type ShardMetrics struct {
	Shard   int    `json:"shard"`
	Addr    string `json:"addr"`
	Calls   uint64 `json:"calls"`
	Errors  uint64 `json:"errors"`
	Retries uint64 `json:"retries"`
	Count   uint64 `json:"count"`
	P50NS   int64  `json:"p50_ns"`
	P99NS   int64  `json:"p99_ns"`
	MaxNS   int64  `json:"max_ns"`
	SumNS   int64  `json:"sum_ns"`

	TableCacheHits      uint64 `json:"table_cache_hits"`
	TableCacheMisses    uint64 `json:"table_cache_misses"`
	TableCacheStale     uint64 `json:"table_cache_stale"`
	TableCacheEvictions uint64 `json:"table_cache_evictions"`
	TableCacheBytes     int64  `json:"table_cache_bytes"`
}

// ShardMetricsReporter is implemented by cluster-mode catalogs; /metrics
// type-asserts it and renders per-shard series when present.
type ShardMetricsReporter interface {
	ShardMetrics() []ShardMetrics
}

// Latency is an exported handle on the serving layer's log2-bucketed
// latency histogram, for packages that feed ShardMetrics (the cluster
// shard client records round-trip times in one). Concurrent Observe calls
// are lock-free.
type Latency struct {
	h latHist
}

// Observe records one latency sample.
func (l *Latency) Observe(d time.Duration) { l.h.observe(d) }

// Quantiles reports the histogram's p50/p99 upper bounds, observed max,
// sum, and sample count.
func (l *Latency) Quantiles() (p50, p99, max, sum time.Duration, count uint64) {
	counts, total := l.h.snapshot()
	return l.h.quantile(counts, total, 0.50),
		l.h.quantile(counts, total, 0.99),
		time.Duration(l.h.maxNS.Load()),
		time.Duration(l.h.sumNS.Load()),
		total
}
