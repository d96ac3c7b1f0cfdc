package main

import (
	"net/http"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/serve"
	"repro/internal/table"
)

// Tracing is done from outside the program: a traced run wraps each HTTP
// call in a span and then replays the request's stages itself, through the
// public functions of each layer, each replay under a child span. Spans stay
// in memory until the run ends. A replayed span did not run inside its
// parent's interval, so self time is taken from durations: a span's duration
// minus the durations of its children.

type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0: a root
	Request  int    `json:"request"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"` // since the tracer was created
	EndNS    int64  `json:"end_ns"`
	Replayed bool   `json:"replayed,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

type tracer struct {
	t0     time.Time
	spans  []span
	counts map[string]float64 // work counted at the same boundaries, summed over the run
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string]float64{}} }

// begin opens a span; end closes it and returns its duration.
func (t *tracer) begin(parent, request int, name string, replayed bool) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Name: name, Replayed: replayed, StartNS: int64(time.Since(t.t0))})
	return id
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.EndNS = int64(time.Since(t.t0))
	return s.dur()
}

// do runs fn under a span and returns the span's id and duration.
func (t *tracer) do(parent, request int, name string, replayed bool, fn func()) (int, time.Duration) {
	id := t.begin(parent, request, name, replayed)
	fn()
	return id, t.end(id)
}

// replay is do for a stage the benchmark re-executes itself.
func (t *tracer) replay(parent, request int, name string, fn func()) (int, time.Duration) {
	return t.do(parent, request, name, true, fn)
}

// replayTransport stands in for the part of a request that no public function
// reaches — connection, mux, response write: the round trip of GET /healthz,
// which does no pipeline work and bypasses admission.
func (t *tracer) replayTransport(parent, request int, c *client, url string) {
	t.replay(parent, request, "serve.transport", func() { _, _, _ = c.do(http.MethodGet, url+"/healthz", nil) })
}

// replayDiscoverDecode replays what the server does with a discover body
// before the pipeline sees it: the JSON decode, then TableJSON.DecodeTable.
func (t *tracer) replayDiscoverDecode(parent, request int, body []byte) (wire serve.DiscoverRequest, q *table.Table, err error) {
	t.replay(parent, request, "serve.json_decode", func() { err = decodeBody(body, &wire) })
	if err != nil {
		return wire, nil, err
	}
	t.replay(parent, request, "table.decode", func() { q, err = wire.Query.DecodeTable() })
	return wire, q, err
}

// perRequest sums the spans of the given names within each request, so a
// layer entered several times per op counts once per op.
func (t *tracer) perRequest(names ...string) []time.Duration {
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	sums := map[int]time.Duration{}
	var order []int
	for _, s := range t.spans {
		if !want[s.Name] {
			continue
		}
		if _, seen := sums[s.Request]; !seen {
			order = append(order, s.Request)
		}
		sums[s.Request] += s.dur()
	}
	out := make([]time.Duration, len(order))
	for i, r := range order {
		out[i] = sums[r]
	}
	return out
}

// layer records the median per-request time of a layer's spans.
func (t *tracer) layer(m *metricSet, metric string, names ...string) {
	d := t.perRequest(names...)
	if len(d) > 0 {
		m.set(metric, medianMS(d), len(d))
	}
}

// accountedPct is the share of the root spans' time that the replayed
// layers directly under measured (not replayed) spans account for.
func (t *tracer) accountedPct() float64 {
	replayed := make(map[int]bool, len(t.spans))
	var roots, layers time.Duration
	for _, s := range t.spans {
		replayed[s.ID] = s.Replayed
		switch {
		case s.Parent == 0:
			roots += s.dur()
		case s.Replayed && !replayed[s.Parent]:
			layers += s.dur()
		}
	}
	if roots == 0 {
		return 0
	}
	return 100 * float64(layers) / float64(roots)
}

// write stores the spans, the counts and the run's record.
func (t *tracer) write(path string, res *result) error {
	return writeJSONFile(path, map[string]any{"run": res, "counts": t.counts, "spans": t.spans})
}

// window brackets the untraced pass of a traced run and turns deltas of the
// Go runtime's own counters into per-op numbers. The load generator runs in
// this process, so its allocations are included.
type window struct {
	mem     runtime.MemStats
	gc, cpu float64
	heap    float64
}

func cpuSeconds() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func openWindow() *window {
	w := &window{heap: heapMB()}
	runtime.ReadMemStats(&w.mem)
	w.gc, w.cpu = cpuSeconds()
	return w
}

func (w *window) close(m *metricSet, ops int) {
	var now runtime.MemStats
	runtime.ReadMemStats(&now)
	gc, cpu := cpuSeconds()
	m.set("runtime.alloc_bytes_per_op", float64(now.TotalAlloc-w.mem.TotalAlloc)/float64(ops), ops)
	m.set("runtime.allocs_per_op", float64(now.Mallocs-w.mem.Mallocs)/float64(ops), ops)
	if cpu > w.cpu {
		m.set("runtime.gc_cpu_fraction", (gc-w.gc)/(cpu-w.cpu), ops)
	}
	m.set("runtime.heap_growth_mb", heapMB()-w.heap, ops)
}
