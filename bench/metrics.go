package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// The declarations below are the source of BENCHMARK.json: `manifest` prints
// the file from them and bench_test.go fails when the two differ.

const (
	// runSeconds is the --seconds value BENCHMARK.json records. Op counts
	// scale with --seconds (see scale), so this is also the amount of timed
	// work one run does on the commit the rates were probed on.
	runSeconds = 10
	rounds     = 10
	setups     = 3
)

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadSpec{
	{"discover-zipf", "Zipf-repeated /v1/discover: read-dominated traffic where the three indexes and the serve codec do all the work; the repetition is what a result cache would exploit"},
	{"pipeline-session", "pipeline, resolve, correlate sessions: the paper's three stages end to end; schema matching, FD, ER and the large-table codec dominate and the indexes do almost nothing"},
	{"churn-mixed", "non-repeating discover reads beside 40 persisted mutations/s: shows read gains paid for by writes, fsync or restart time; the cache-bypass control for discover-zipf"},
	{"cluster-fanout", "the discover-zipf request stream through a coordinator over three HTTP shard servers: prices the scatter-gather seam, where coordinator-side caching must show its gain"},
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// End-to-end metrics: what a client of the served system sees. Every
// workload emits every one of them in an untraced run, and none is ever 0.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_ops", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.08},
	{"recall_at_k", "ratio", "higher", 0.08},
}

type layerSpec struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// Per-layer metrics, from the traced run. A layer that does no work on a
// workload reports 0 there.
var perLayer = []layerSpec{
	// Client-visible numbers that cannot be gated end-to-end metrics: the
	// tail latencies do not repeat within any bound on a shared box, the
	// mutation and restart numbers exist on one workload only, and
	// failed_ratio is 0 on the seed commit.
	{"latency_p95_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"mutation_p50_ms", "ms", "lower"},
	{"mutation_p95_ms", "ms", "lower"},
	{"warm_restart_ms", "ms", "lower"},
	{"failed_ratio", "ratio", "lower"},

	{"table.decode_ms", "ms", "lower"},
	{"table.encode_ms", "ms", "lower"},
	{"table.dict_values", "count", "lower"},
	{"tokenize.query_domain_ms", "ms", "lower"},
	{"sketch.sign_ms", "ms", "lower"},
	{"santos.query_cached_ms", "ms", "lower"},
	{"santos.query_foreign_ms", "ms", "lower"},
	{"lshensemble.query_cached_ms", "ms", "lower"},
	{"lshensemble.query_foreign_ms", "ms", "lower"},
	{"josie.query_cached_ms", "ms", "lower"},
	{"josie.query_foreign_ms", "ms", "lower"},
	{"santos.build_s", "s", "lower"},
	{"lshensemble.build_s", "s", "lower"},
	{"josie.build_s", "s", "lower"},
	{"lake.extract_s", "s", "lower"},
	{"kb.synthesize_s", "s", "lower"},
	{"kb.compile_ms", "ms", "lower"},
	{"discovery.fanout_ms", "ms", "lower"},
	{"discovery.self_ms", "ms", "lower"},

	{"schemamatch.align_ms", "ms", "lower"},
	{"fd.closure_ms", "ms", "lower"},
	{"fd.input_tuples", "count", "lower"},
	{"fd.output_tuples", "count", "lower"},
	{"integrate.apply_ms", "ms", "lower"},
	{"er.resolve_ms", "ms", "lower"},
	{"er.rows", "count", "lower"},
	{"analyze.correlate_ms", "ms", "lower"},
	{"core.run_self_ms", "ms", "lower"},

	{"lake.add_ms", "ms", "lower"},
	{"lake.remove_ms", "ms", "lower"},
	{"lake.compact_ms", "ms", "lower"},
	{"lake.heap_kb_per_table", "kB", "lower"},
	{"persist.add_ms", "ms", "lower"},
	{"persist.wal_bytes_per_mutation", "B", "lower"},
	{"persist.snapshot_ms", "ms", "lower"},
	{"persist.snapshot_bytes", "B", "lower"},
	{"persist.snapshots", "count", "lower"},
	{"persist.stall_max_ms", "ms", "lower"},
	{"persist.open_ms", "ms", "lower"},

	{"serve.overhead_ms", "ms", "lower"},
	{"serve.transport_ms", "ms", "lower"},
	{"serve.json_ms", "ms", "lower"},
	{"serve.admitted", "count", "higher"},
	{"serve.shed", "count", "lower"},
	{"serve.queued", "count", "lower"},
	{"serve.discover.p50_ms", "ms", "lower"},
	{"serve.discover.p99_ms", "ms", "lower"},
	{"serve.pipeline.p50_ms", "ms", "lower"},
	{"serve.pipeline.p99_ms", "ms", "lower"},
	{"serve.resolve.p50_ms", "ms", "lower"},
	{"serve.resolve.p99_ms", "ms", "lower"},
	{"serve.correlate.p50_ms", "ms", "lower"},
	{"serve.correlate.p99_ms", "ms", "lower"},
	{"serve.lake_add.p50_ms", "ms", "lower"},
	{"serve.lake_add.p99_ms", "ms", "lower"},
	{"serve.lake_remove.p50_ms", "ms", "lower"},
	{"serve.lake_remove.p99_ms", "ms", "lower"},

	{"cluster.shard_rtt_p50_ms", "ms", "lower"},
	{"cluster.shard_rtt_p99_ms", "ms", "lower"},
	{"cluster.shard_calls_per_query", "count", "lower"},
	{"cluster.shard_retries", "count", "lower"},
	{"cluster.shard_errors", "count", "lower"},
	{"cluster.seam_ms", "ms", "lower"},

	{"runtime.alloc_bytes_per_op", "B", "lower"},
	{"runtime.allocs_per_op", "count", "lower"},
	{"runtime.gc_cpu_fraction", "ratio", "lower"},
	{"runtime.heap_growth_mb", "MB", "lower"},
	{"gen.late_p95_ms", "ms", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"trace.accounted_pct", "%", "higher"},
}

// writeManifest prints BENCHMARK.json.
func writeManifest(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]any{
		"command":     []string{"bash", "bench/run.sh"},
		"paths":       []string{"bench"},
		"run_seconds": runSeconds,
		"workloads":   workloads,
		"end_to_end":  endToEnd,
		"per_layer":   perLayer,
	})
}

// value is one emitted metric. N is the number of samples behind it; Rounds
// holds the per-round (or per-set-up) values it was reduced from and Spread
// their inter-quartile distance as a share of their median.
type value struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	N      int       `json:"n,omitempty"`
	Spread float64   `json:"spread,omitempty"`
	Rounds []float64 `json:"rounds,omitempty"`
}

// metricSet collects a run's metrics against the declared names, so a
// misspelt or undeclared name is a programming error caught on first use.
type metricSet struct {
	units map[string]string
	vals  map[string]value
}

func newMetricSet(traced bool) *metricSet {
	m := &metricSet{units: map[string]string{}, vals: map[string]value{}}
	if traced {
		for _, s := range perLayer {
			m.units[s.Name] = s.Unit
			m.vals[s.Name] = value{Unit: s.Unit}
		}
	} else {
		for _, s := range endToEnd {
			m.units[s.Name] = s.Unit
		}
	}
	return m
}

func (m *metricSet) set(name string, v float64, n int) {
	unit, ok := m.units[name]
	if !ok {
		panic(fmt.Sprintf("bench: metric %q is not declared for this run mode", name))
	}
	m.vals[name] = value{Value: v, Unit: unit, N: n}
}

// setFrom records a value reduced from per-round values, keeping them.
func (m *metricSet) setFrom(name string, v float64, perRound []float64, n int) {
	m.set(name, v, n)
	val := m.vals[name]
	val.Spread, val.Rounds = spread(perRound), perRound
	m.vals[name] = val
}

// missing lists declared names the run did not emit.
func (m *metricSet) missing() []string {
	var out []string
	for name := range m.units {
		if _, ok := m.vals[name]; !ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// printMetrics prints every metric by name with its unit and sample count.
func printMetrics(w io.Writer, vals map[string]value) {
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := vals[n]
		fmt.Fprintf(w, "  %-32s %14.4f %-6s n=%-7d spread=%.3f\n", n, v.Value, v.Unit, v.N, v.Spread)
	}
}
