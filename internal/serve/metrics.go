package serve

import (
	"fmt"
	"math/bits"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/lru"
)

// Per-endpoint serving metrics. Everything is lock-free atomics: the
// request path adds a handful of uncontended atomic ops, and /metrics
// scrapes read without stalling traffic. The invariants tests and
// dashboards rely on:
//
//	arrivals  = admitted + shed          (every request is exactly one)
//	admitted  = completed + errors + in-flight
//	histogram count = completed + errors (latency observed once per admit)

// latHist is a log2-bucketed latency histogram: bucket i counts requests
// with latency <= 1µs<<i (the last bucket is unbounded). 36 buckets cover
// 1µs..~34s — far past any sane request deadline — in 288 bytes, and p50/
// p99 are read from the bucket upper bounds, so a reported quantile is an
// upper bound within 2x of the true value.
const histBuckets = 36

type latHist struct {
	counts [histBuckets]atomic.Uint64
	sumNS  atomic.Int64
	maxNS  atomic.Int64
}

func histBucket(d time.Duration) int {
	us := uint64(d) / uint64(time.Microsecond)
	b := bits.Len64(us) // 0 for <1µs, k for [2^(k-1), 2^k)µs
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// histBound is bucket i's upper latency bound.
func histBound(i int) time.Duration { return time.Microsecond << i }

func (h *latHist) observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histBucket(d)].Add(1)
	h.sumNS.Add(int64(d))
	for {
		old := h.maxNS.Load()
		if int64(d) <= old || h.maxNS.CompareAndSwap(old, int64(d)) {
			return
		}
	}
}

// snapshot reads the bucket counts once; quantiles over the copy are
// mutually consistent even while requests keep landing.
func (h *latHist) snapshot() (counts [histBuckets]uint64, total uint64) {
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	return counts, total
}

// quantile reports the q-quantile (0 < q <= 1) as the upper bound of the
// bucket the q*total-th observation landed in; the top bucket reports the
// observed max instead of +Inf.
func (h *latHist) quantile(counts [histBuckets]uint64, total uint64, q float64) time.Duration {
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target < 1 {
		target = 1
	}
	cum := uint64(0)
	for i, c := range counts {
		cum += c
		if cum >= target {
			if i == histBuckets-1 {
				return time.Duration(h.maxNS.Load())
			}
			return histBound(i)
		}
	}
	return time.Duration(h.maxNS.Load())
}

// endpointMetrics is one endpoint's live counters.
type endpointMetrics struct {
	path      string
	inflight  atomic.Int64
	queued    atomic.Int64
	admitted  atomic.Uint64
	shed      atomic.Uint64
	completed atomic.Uint64
	errored   atomic.Uint64
	lat       latHist
}

// EndpointMetrics is one endpoint's point-in-time serving metrics — the
// element type of GET /metrics?format=json and Server.MetricsSnapshot.
// Latency fields are nanoseconds from the bucketed histogram (upper
// bounds, see latHist); Count is the number of observations behind them.
type EndpointMetrics struct {
	Endpoint  string `json:"endpoint"`
	InFlight  int64  `json:"in_flight"`
	Queued    int64  `json:"queued"`
	Admitted  uint64 `json:"admitted"`
	Shed      uint64 `json:"shed"`
	Completed uint64 `json:"completed"`
	Errors    uint64 `json:"errors"`
	Count     uint64 `json:"count"`
	P50NS     int64  `json:"p50_ns"`
	P99NS     int64  `json:"p99_ns"`
	MaxNS     int64  `json:"max_ns"`
	SumNS     int64  `json:"sum_ns"`
}

func (m *endpointMetrics) snapshot() EndpointMetrics {
	counts, total := m.lat.snapshot()
	return EndpointMetrics{
		Endpoint:  m.path,
		InFlight:  m.inflight.Load(),
		Queued:    m.queued.Load(),
		Admitted:  m.admitted.Load(),
		Shed:      m.shed.Load(),
		Completed: m.completed.Load(),
		Errors:    m.errored.Load(),
		Count:     total,
		P50NS:     int64(m.lat.quantile(counts, total, 0.50)),
		P99NS:     int64(m.lat.quantile(counts, total, 0.99)),
		MaxNS:     m.lat.maxNS.Load(),
		SumNS:     m.lat.sumNS.Load(),
	}
}

// MetricsSnapshot reports every metered endpoint's counters, sorted by
// endpoint path. It is what /metrics renders and what tests reconcile
// against.
func (s *Server) MetricsSnapshot() []EndpointMetrics {
	out := make([]EndpointMetrics, 0, len(s.metricsByPath))
	for _, m := range s.metricsOrder {
		out = append(out, m.snapshot())
	}
	return out
}

// LoadSummary aggregates the per-endpoint counters for /healthz: one
// glance says whether the server is currently saturated (in-flight at
// capacity, queue building) or shedding.
type LoadSummary struct {
	InFlight int64  `json:"in_flight"`
	Queued   int64  `json:"queued"`
	Admitted uint64 `json:"admitted"`
	Shed     uint64 `json:"shed"`
	Errors   uint64 `json:"errors"`
}

func (s *Server) loadSummary() LoadSummary {
	var sum LoadSummary
	for _, m := range s.metricsOrder {
		sum.InFlight += m.inflight.Load()
		sum.Queued += m.queued.Load()
		sum.Admitted += m.admitted.Load()
		sum.Shed += m.shed.Load()
		sum.Errors += m.errored.Load()
	}
	return sum
}

// newEndpointMetrics registers a metered endpoint at construction time;
// the map is read-only once the server is built, so lookups are lock-free.
func (s *Server) newEndpointMetrics(path string) *endpointMetrics {
	m := &endpointMetrics{path: path}
	s.metricsByPath[path] = m
	s.metricsOrder = append(s.metricsOrder, m)
	sort.Slice(s.metricsOrder, func(i, j int) bool { return s.metricsOrder[i].path < s.metricsOrder[j].path })
	return m
}

// shardMetrics reports the attached catalog's per-shard transport counters,
// or nil outside cluster mode (no catalog attached, or a local one).
func (s *Server) shardMetrics() []ShardMetrics {
	p := s.p()
	if p == nil {
		return nil
	}
	rep, ok := p.Lake().(ShardMetricsReporter)
	if !ok {
		return nil
	}
	return rep.ShardMetrics()
}

// answerCacheMetrics reports the attached pipeline's answer cache counters
// (all zero while warming).
func (s *Server) answerCacheMetrics() lru.Stats {
	if a := s.live.Load(); a != nil {
		return a.answers.Stats(0)
	}
	return lru.Stats{}
}

// writeCacheFamily renders one bounded cache's counters as a metric family:
// name_{hits,misses,stale,stores,evictions}_total and name_bytes, one sample
// per stats element under labels[i] ("" for an unlabelled family). what
// names the items the cache holds.
func writeCacheFamily(b *strings.Builder, name, what string, labels []string, stats []lru.Stats) {
	for _, f := range []struct {
		suffix, kind, help string
		value              func(lru.Stats) int64
	}{
		{"hits_total", "counter", "Lookups of %s served from the cache.", func(s lru.Stats) int64 { return int64(s.Hits) }},
		{"misses_total", "counter", "Lookups of %s the cache did not hold.", func(s lru.Stats) int64 { return int64(s.Misses) }},
		{"stale_total", "counter", "Lookups of %s cached under an epoch the catalog has moved past (the entry is dropped).", func(s lru.Stats) int64 { return int64(s.Stale) }},
		{"stores_total", "counter", "Stores of %s into the cache.", func(s lru.Stats) int64 { return int64(s.Stores) }},
		{"evictions_total", "counter", "Cached %s evicted least recently used first to stay within the cache's byte bound.", func(s lru.Stats) int64 { return int64(s.Evictions) }},
		{"bytes", "gauge", "Bytes the cache holds for %s.", func(s lru.Stats) int64 { return s.Bytes }},
	} {
		series := name + "_" + f.suffix
		fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", series, fmt.Sprintf(f.help, what), series, f.kind)
		for i, st := range stats {
			fmt.Fprintf(b, "%s%s %d\n", series, labels[i], f.value(st))
		}
	}
}

// metricsHandler serves GET /metrics: Prometheus text exposition by
// default, the JSON snapshot with ?format=json — per endpoint
// ([]EndpointMetrics) unless scope=shards ([]ShardMetrics) or scope=cache
// (the answer cache's lru.Stats) asks for another view. It bypasses admission and
// works while warming or degraded — observability must answer exactly when
// the serving path is refusing.
func (s *Server) metricsHandler(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		switch r.URL.Query().Get("scope") {
		case "shards":
			writeJSON(w, http.StatusOK, s.shardMetrics())
		case "cache":
			writeJSON(w, http.StatusOK, s.answerCacheMetrics())
		default:
			writeJSON(w, http.StatusOK, s.MetricsSnapshot())
		}
		return
	}
	var b strings.Builder
	counter := func(name, help string, value func(EndpointMetrics) uint64, snaps []EndpointMetrics) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, m := range snaps {
			fmt.Fprintf(&b, "%s{endpoint=%q} %d\n", name, m.Endpoint, value(m))
		}
	}
	gauge := func(name, help string, value func(EndpointMetrics) int64, snaps []EndpointMetrics) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		for _, m := range snaps {
			fmt.Fprintf(&b, "%s{endpoint=%q} %d\n", name, m.Endpoint, value(m))
		}
	}
	snaps := s.MetricsSnapshot()
	counter("dialite_admitted_total", "Requests admitted past admission control.", func(m EndpointMetrics) uint64 { return m.Admitted }, snaps)
	counter("dialite_shed_total", "Requests shed by admission control (429/503 before any work).", func(m EndpointMetrics) uint64 { return m.Shed }, snaps)
	counter("dialite_completed_total", "Admitted requests that finished with a 2xx.", func(m EndpointMetrics) uint64 { return m.Completed }, snaps)
	counter("dialite_errors_total", "Admitted requests that finished with an error status.", func(m EndpointMetrics) uint64 { return m.Errors }, snaps)
	gauge("dialite_in_flight", "Requests currently executing.", func(m EndpointMetrics) int64 { return m.InFlight }, snaps)
	gauge("dialite_queued", "Requests currently waiting for an admission slot.", func(m EndpointMetrics) int64 { return m.Queued }, snaps)
	fmt.Fprintf(&b, "# HELP dialite_request_seconds Request latency (arrival to response), bucketed upper-bound quantiles.\n# TYPE dialite_request_seconds summary\n")
	for _, m := range snaps {
		fmt.Fprintf(&b, "dialite_request_seconds{endpoint=%q,quantile=\"0.5\"} %g\n", m.Endpoint, time.Duration(m.P50NS).Seconds())
		fmt.Fprintf(&b, "dialite_request_seconds{endpoint=%q,quantile=\"0.99\"} %g\n", m.Endpoint, time.Duration(m.P99NS).Seconds())
		fmt.Fprintf(&b, "dialite_request_seconds_sum{endpoint=%q} %g\n", m.Endpoint, time.Duration(m.SumNS).Seconds())
		fmt.Fprintf(&b, "dialite_request_seconds_count{endpoint=%q} %d\n", m.Endpoint, m.Count)
	}
	writeCacheFamily(&b, "dialite_answer_cache", "/v1/discover answers", []string{""}, []lru.Stats{s.answerCacheMetrics()})
	// Cluster mode: per-shard fan-out transport counters + round-trip
	// latency, labeled by shard index and address.
	if shards := s.shardMetrics(); len(shards) > 0 {
		shardCounter := func(name, help string, value func(ShardMetrics) uint64) {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
			for _, m := range shards {
				fmt.Fprintf(&b, "%s{shard=\"%d\",addr=%q} %d\n", name, m.Shard, m.Addr, value(m))
			}
		}
		shardCounter("dialite_shard_calls_total", "Coordinator-to-shard calls attempted (retries counted once).", func(m ShardMetrics) uint64 { return m.Calls })
		shardCounter("dialite_shard_errors_total", "Coordinator-to-shard calls that failed after retries.", func(m ShardMetrics) uint64 { return m.Errors })
		shardCounter("dialite_shard_retries_total", "Coordinator-to-shard attempt retries (idempotent reads only).", func(m ShardMetrics) uint64 { return m.Retries })
		shardCounter("dialite_shard_rollback_failures_total", "Compensating rollbacks that failed on the shard, leaving its sub-batch of a failed cross-shard mutation applied.", func(m ShardMetrics) uint64 { return m.RollbackFailures })
		fmt.Fprintf(&b, "# HELP dialite_shard_rtt_seconds Shard call round-trip latency, bucketed upper-bound quantiles.\n# TYPE dialite_shard_rtt_seconds summary\n")
		for _, m := range shards {
			fmt.Fprintf(&b, "dialite_shard_rtt_seconds{shard=\"%d\",addr=%q,quantile=\"0.5\"} %g\n", m.Shard, m.Addr, time.Duration(m.P50NS).Seconds())
			fmt.Fprintf(&b, "dialite_shard_rtt_seconds{shard=\"%d\",addr=%q,quantile=\"0.99\"} %g\n", m.Shard, m.Addr, time.Duration(m.P99NS).Seconds())
			fmt.Fprintf(&b, "dialite_shard_rtt_seconds_sum{shard=\"%d\",addr=%q} %g\n", m.Shard, m.Addr, time.Duration(m.SumNS).Seconds())
			fmt.Fprintf(&b, "dialite_shard_rtt_seconds_count{shard=\"%d\",addr=%q} %d\n", m.Shard, m.Addr, m.Count)
		}
		labels, stats := make([]string, len(shards)), make([]lru.Stats, len(shards))
		for i, m := range shards {
			labels[i], stats[i] = fmt.Sprintf("{shard=\"%d\",addr=%q}", m.Shard, m.Addr), lru.Stats(m.TableCache)
		}
		writeCacheFamily(&b, "dialite_shard_table_cache", "the shard's decoded discovery tables", labels, stats)
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write([]byte(b.String()))
}
