package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/lake"
	"repro/internal/minhash"
	"repro/internal/serve"
	"repro/internal/sketch"
)

// discover-zipf and cluster-fanout send the same request stream — same
// pool, same Zipf draws — to a single lake and to a coordinator over three
// shard servers.

var zipfWorkload = workload{
	name: "discover-zipf",
	boot: func(in *inputs, splitKB bool, _ string) (*deployment, error) {
		return bootSingle(in.lake.Tables, splitKB)
	},
	measure: func(e *env) error {
		return measureDiscover(e, e.cfg.scale().discoverRate, e.d.pipe)
	},
	trace: traceZipf,
}

var clusterWorkload = workload{
	name: "cluster-fanout",
	boot: func(in *inputs, _ bool, _ string) (*deployment, error) {
		return bootCluster(in.lake.Tables)
	},
	measure: func(e *env) error {
		// The reference answers come from an unsharded lake over the same
		// tables and KB; it is built after set-up and heap are measured.
		ref, err := lake.New(e.in.lake.Tables, lake.Options{Knowledge: e.d.pipe.Lake().Knowledge()})
		if err != nil {
			return err
		}
		return measureDiscover(e, e.cfg.scale().clusterRate, core.FromLake(ref))
	},
	trace: traceCluster,
}

// discoverStream is the pool, the draws (warm-up first) and the dry run
// shared by both workloads' untraced and traced runs.
func discoverStream(e *env, ref *core.Pipeline, n int) ([]*query, []int, error) {
	pool := e.in.zipfPool(e.cfg.seed)
	if err := dryRunDiscover(e.in, e.d.url+"/v1/discover", pool, ref); err != nil {
		return nil, nil, fmt.Errorf("dry run: %w", err)
	}
	return pool, zipfDraws(e.cfg.seed, len(pool), n), nil
}

func measureDiscover(e *env, rate float64, ref *core.Pipeline) error {
	perRound := e.cfg.perRound(rate)
	warm := perRound / 2
	pool, draws, err := discoverStream(e, ref, warm+rounds*perRound)
	if err != nil {
		return err
	}
	e.res.Stream = streamHash(pool, draws[warm:])
	url := e.d.url + "/v1/discover"
	err = closedLoopMetrics(e, warm, perRound, func(c *client, i int) bool {
		q := pool[draws[i]]
		return c.answers(url, q.body, q.expect)
	})
	e.m.set("recall_at_k", meanRecall(pool, draws[warm:]), len(draws)-warm)
	return err
}

// untracedPass is the first half of a traced run: one client, n ops, the
// runtime window around them. It returns the op latencies.
func untracedPass(e *env, n int, op func(c *client, i int) bool) []time.Duration {
	clients := newClients(1)
	defer closeClients(clients)
	w := openWindow()
	rd := runClosed(clients, n, op)
	w.close(e.m, n)
	e.res.Attempted += n
	e.res.Failed += rd.failed
	return rd.lat
}

func endpointLatency(m *metricSet, endpoint string, lat []time.Duration) {
	lat = append([]time.Duration(nil), lat...)
	m.set("serve."+endpoint+".p50_ms", percentileMS(lat, 0.50), len(lat))
	m.set("serve."+endpoint+".p99_ms", percentileMS(lat, 0.99), len(lat))
}

// serveCounters reads the front door's /metrics surface.
func serveCounters(c *client, url string) (admitted, shed, queued float64, err error) {
	status, body, err := c.do(http.MethodGet, url+"/metrics?format=json", nil)
	if err != nil || status != http.StatusOK {
		return 0, 0, 0, fmt.Errorf("GET /metrics: status %d: %v", status, err)
	}
	var eps []serve.EndpointMetrics
	if err := json.Unmarshal(body, &eps); err != nil {
		return 0, 0, 0, err
	}
	for _, ep := range eps {
		admitted += float64(ep.Admitted)
		shed += float64(ep.Shed)
		queued += float64(ep.Queued)
	}
	return admitted, shed, queued, nil
}

// serveStats records what the front door's own counters saw during fn.
func serveStats(e *env, fn func()) error {
	c := newClients(1)
	defer closeClients(c)
	a0, s0, _, err := serveCounters(c[0], e.d.url)
	if err != nil {
		return err
	}
	fn()
	a1, s1, q1, err := serveCounters(c[0], e.d.url)
	if err != nil {
		return err
	}
	e.m.set("serve.admitted", a1-a0, 1)
	e.m.set("serve.shed", s1-s0, 1)
	e.m.set("serve.queued", q1, 1)
	return nil
}

// tailLatency records the ungated tail of the untraced pass.
func tailLatency(m *metricSet, lat []time.Duration) {
	lat = append([]time.Duration(nil), lat...)
	m.set("latency_p95_ms", percentileMS(lat, 0.95), len(lat))
	m.set("latency_p99_ms", percentileMS(lat, 0.99), len(lat))
}

// tracedOverhead compares the traced pass's root latencies with the
// untraced pass's and records what the roots' children account for.
func tracedOverhead(e *env, tr *tracer, untraced []time.Duration, root string) {
	traced := tr.perRequest(root)
	base := medianMS(untraced)
	e.m.set("trace.overhead_pct", 100*(medianMS(traced)-base)/base, len(traced))
	e.m.set("trace.accounted_pct", tr.accountedPct(), len(traced))
	tailLatency(e.m, untraced)
}

func traceZipf(e *env) (*tracer, error) {
	n := e.cfg.perRound(e.cfg.scale().discoverRate)
	pool, draws, err := discoverStream(e, e.d.pipe, n)
	if err != nil {
		return nil, err
	}
	e.res.Stream = streamHash(pool, draws)
	url := e.d.url + "/v1/discover"
	op := func(c *client, i int) bool {
		q := pool[draws[i]]
		return c.answers(url, q.body, q.expect)
	}
	l := e.d.lakes[0]
	dict0 := l.Dict().Len()
	var untraced []time.Duration
	if err := serveStats(e, func() { untraced = untracedPass(e, n, op) }); err != nil {
		return nil, err
	}
	endpointLatency(e.m, "discover", untraced)
	e.m.set("table.dict_values", float64(l.Dict().Len()-dict0), n)

	tr := newTracer()
	rp := newDiscoverReplayer(tr, e.d.pipe, l)
	clients := newClients(1)
	defer closeClients(clients)
	for i := range draws {
		q := pool[draws[i]]
		var ok bool
		root, _ := tr.do(0, i, "http.discover", false, func() { ok = op(clients[0], i) })
		e.res.Attempted++
		if !ok {
			e.res.Failed++
		}
		tr.replayTransport(root, i, clients[0], e.d.url)
		if err := rp.replay(root, i, q); err != nil {
			return nil, fmt.Errorf("replaying %s: %w", q.name, err)
		}
	}
	tracedOverhead(e, tr, untraced, "http.discover")
	rp.metrics(e.m)
	return tr, nil
}

// discoverReplayer re-executes the stages of a /v1/discover request through
// the layers' public functions.
type discoverReplayer struct {
	tr      *tracer
	pipe    *core.Pipeline
	l       *lake.Lake
	builder sketch.Builder
	sig     sketch.Sketch

	overhead, self []time.Duration
}

func newDiscoverReplayer(tr *tracer, pipe *core.Pipeline, l *lake.Lake) *discoverReplayer {
	o := l.Join().Options()
	b, err := sketch.New(sketch.Params{Engine: o.Engine, Size: o.NumHashes, Seed: o.Seed})
	if err != nil {
		panic(fmt.Sprintf("bench: the lake's own sketch options do not build: %v", err))
	}
	return &discoverReplayer{tr: tr, pipe: pipe, l: l, builder: b}
}

func (rp *discoverReplayer) replay(root, req int, q *query) error {
	tr, ctx := rp.tr, context.Background()
	wire, t, err := tr.replayDiscoverDecode(root, req, q.body)
	if err != nil {
		return err
	}
	fail := func(e error) {
		if err == nil {
			err = e
		}
	}
	var resp serve.DiscoverResponse
	fan, fanout := tr.replay(root, req, "discovery.fanout", func() {
		perMethod, set, _, e := discovery.Discover(ctx, rp.pipe.Discoverers(), rp.pipe.Lake(), t, wire.QueryColumn, wire.K, wire.Methods)
		fail(e)
		resp = wireDiscover(&core.DiscoverResponse{PerMethod: perMethod, IntegrationSet: set})
	})
	tr.replay(root, req, "serve.json_encode", func() { mustJSON(resp) })

	// The three methods one at a time, as the fan-out runs them for a table
	// that arrived over the wire; then, for a query that names a lake table,
	// the in-process fast path over the lake's cached domain.
	var domain []string
	tr.replay(fan, req, "tokenize.query_domain", func() {
		var e error
		domain, e = lake.QueryDomain(t, wire.QueryColumn)
		fail(e)
	})
	fps := minhash.Fingerprints(domain)
	tr.replay(fan, req, "sketch.sign", func() { rp.sig = rp.builder.SignInto(fps, rp.sig) })
	_, santos := tr.replay(fan, req, "santos.query_foreign", func() {
		_, e := rp.l.Santos().QueryCtx(ctx, t, wire.QueryColumn, wire.K)
		fail(e)
	})
	_, lsh := tr.replay(fan, req, "lshensemble.query_foreign", func() {
		_, e := rp.l.Join().QueryCtx(ctx, domain, 0.5, 0)
		fail(e)
	})
	_, josie := tr.replay(fan, req, "josie.query_foreign", func() {
		_, e := rp.l.Josie().TopKCtx(ctx, domain, 0)
		fail(e)
	})
	if lt, ok := rp.l.Get(q.name); ok && !q.foreign {
		cached := rp.l.DomainFor(q.name, wire.QueryColumn)
		tr.replay(fan, req, "santos.query_cached", func() {
			_, e := rp.l.Santos().QueryCtx(ctx, lt, wire.QueryColumn, wire.K)
			fail(e)
		})
		tr.replay(fan, req, "lshensemble.query_cached", func() {
			_, e := rp.l.Join().QueryDomainCtx(ctx, cached, 0.5, 0)
			fail(e)
		})
		tr.replay(fan, req, "josie.query_cached", func() {
			_, e := rp.l.Josie().TopKIDsCtx(ctx, cached.IDs, 0)
			fail(e)
		})
	}
	rootDur := tr.spans[root-1].dur()
	rp.overhead = append(rp.overhead, rootDur-fanout)
	rp.self = append(rp.self, max(0, fanout-max(santos, lsh, josie)))
	return err
}

func (rp *discoverReplayer) metrics(m *metricSet) {
	tr := rp.tr
	tr.layer(m, "table.decode_ms", "table.decode")
	tr.layer(m, "serve.json_ms", "serve.json_decode", "serve.json_encode")
	tr.layer(m, "serve.transport_ms", "serve.transport")
	tr.layer(m, "discovery.fanout_ms", "discovery.fanout")
	tr.layer(m, "tokenize.query_domain_ms", "tokenize.query_domain")
	tr.layer(m, "sketch.sign_ms", "sketch.sign")
	for _, ix := range []string{"santos", "lshensemble", "josie"} {
		tr.layer(m, ix+".query_foreign_ms", ix+".query_foreign")
		tr.layer(m, ix+".query_cached_ms", ix+".query_cached")
	}
	m.set("serve.overhead_ms", medianMS(rp.overhead), len(rp.overhead))
	m.set("discovery.self_ms", medianMS(rp.self), len(rp.self))
}

// shardCounters reads the coordinator's per-shard transport counters.
func shardCounters(c *client, url string) ([]serve.ShardMetrics, error) {
	status, body, err := c.do(http.MethodGet, url+"/metrics?format=json&scope=shards", nil)
	if err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics scope=shards: status %d: %v", status, err)
	}
	var out []serve.ShardMetrics
	return out, json.Unmarshal(body, &out)
}

func traceCluster(e *env) (*tracer, error) {
	knowledge := e.d.pipe.Lake().Knowledge()
	ref, err := lake.New(e.in.lake.Tables, lake.Options{Knowledge: knowledge})
	if err != nil {
		return nil, err
	}
	n := e.cfg.perRound(e.cfg.scale().clusterRate)
	pool, draws, err := discoverStream(e, core.FromLake(ref), n)
	if err != nil {
		return nil, err
	}
	e.res.Stream = streamHash(pool, draws)
	url := e.d.url + "/v1/discover"
	op := func(c *client, i int) bool {
		q := pool[draws[i]]
		return c.answers(url, q.body, q.expect)
	}

	clients := newClients(1)
	defer closeClients(clients)
	before, err := shardCounters(clients[0], e.d.url)
	if err != nil {
		return nil, err
	}
	var untraced []time.Duration
	if err := serveStats(e, func() { untraced = untracedPass(e, n, op) }); err != nil {
		return nil, err
	}
	after, err := shardCounters(clients[0], e.d.url)
	if err != nil {
		return nil, err
	}
	endpointLatency(e.m, "discover", untraced)
	var calls, retries, errs, p50, p99 float64
	for i, s := range after {
		calls += float64(s.Calls - before[i].Calls)
		retries += float64(s.Retries - before[i].Retries)
		errs += float64(s.Errors - before[i].Errors)
		// The server's histogram has log2 buckets: these are upper bounds,
		// over the shard's whole life, and the slowest shard is reported
		// because a fan-out waits for it.
		p50 = max(p50, ms(time.Duration(s.P50NS)))
		p99 = max(p99, ms(time.Duration(s.P99NS)))
	}
	e.m.set("cluster.shard_calls_per_query", calls/float64(n), n)
	e.m.set("cluster.shard_retries", retries, n)
	e.m.set("cluster.shard_errors", errs, n)
	e.m.set("cluster.shard_rtt_p50_ms", p50, int(calls))
	e.m.set("cluster.shard_rtt_p99_ms", p99, int(calls))

	// The seam is priced against the same tables sharded in this process.
	twin, err := lake.NewSharded(e.in.lake.Tables, shardCount, lake.Options{Knowledge: knowledge})
	if err != nil {
		return nil, err
	}
	twinPipe := core.FromCatalog(twin)
	tr := newTracer()
	ctx := context.Background()
	var overhead, seam []time.Duration
	for i := range draws {
		q := pool[draws[i]]
		var ok bool
		root, rootDur := tr.do(0, i, "http.discover", false, func() { ok = op(clients[0], i) })
		e.res.Attempted++
		if !ok {
			e.res.Failed++
		}
		tr.replayTransport(root, i, clients[0], e.d.url)
		wire, t, rerr := tr.replayDiscoverDecode(root, i, q.body)
		if rerr != nil {
			return nil, rerr
		}
		req := core.DiscoverRequest{Query: t, QueryColumn: wire.QueryColumn, Methods: wire.Methods, K: wire.K}
		co, coord := tr.replay(root, i, "cluster.coordinator", func() { _, rerr = e.d.pipe.Discover(ctx, req) })
		if rerr != nil {
			return nil, rerr
		}
		_, local := tr.replay(co, i, "discovery.fanout", func() { _, rerr = twinPipe.Discover(ctx, req) })
		if rerr != nil {
			return nil, rerr
		}
		overhead = append(overhead, rootDur-coord)
		seam = append(seam, coord-local)
	}
	tracedOverhead(e, tr, untraced, "http.discover")
	tr.layer(e.m, "table.decode_ms", "table.decode")
	tr.layer(e.m, "serve.json_ms", "serve.json_decode")
	tr.layer(e.m, "serve.transport_ms", "serve.transport")
	tr.layer(e.m, "discovery.fanout_ms", "discovery.fanout")
	e.m.set("serve.overhead_ms", medianMS(overhead), len(overhead))
	e.m.set("cluster.seam_ms", medianMS(seam), len(seam))
	return tr, nil
}
