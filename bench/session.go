package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/alite"
	"repro/internal/core"
	"repro/internal/er"
	"repro/internal/fd"
	"repro/internal/integrate"
	"repro/internal/schemamatch"
	"repro/internal/serve"
	"repro/internal/table"
)

// pipeline-session: one op is a session of three requests — the pipeline
// over a foreign query, entity resolution over the integrated table it
// returned, and a correlation between that table's first two numeric
// columns.

var sessionWorkload = workload{
	name: "pipeline-session",
	boot: func(in *inputs, splitKB bool, _ string) (*deployment, error) {
		return bootSingle(in.lake.Tables, splitKB)
	},
	measure: measureSessions,
	trace:   traceSessions,
}

// directSampleShare is the share of distinct sessions whose three served
// bodies are also compared with the JSON of direct core.Pipeline calls; the
// others are checked for shape, and every timed op for byte equality with
// its dry run.
const directSampleShare = 0.05

// session is a pipeline query plus the follow-up requests, which are
// encoded from the dry run's pipeline response so that no JSON is produced
// on the clock.
type session struct {
	q                               *query
	resolveBody, correlateBody      []byte
	resolveExpect, correlateExpect  []byte
	pipelineURL, resolveURL, corURL string
}

// step is one request of a session.
type step struct {
	name, url  string
	body, want []byte
}

func (s *session) steps() [3]step {
	return [3]step{
		{"http.pipeline", s.pipelineURL, s.q.body, s.q.expect},
		{"http.resolve", s.resolveURL, s.resolveBody, s.resolveExpect},
		{"http.correlate", s.corURL, s.correlateBody, s.correlateExpect},
	}
}

// run plays the session and reports whether every answer was the expected
// one; lat, when not nil, receives the three request latencies.
func (s *session) run(c *client, lat *[3]time.Duration) bool {
	ok := true
	for i, st := range s.steps() {
		t0 := time.Now()
		ok = c.answers(st.url, st.body, st.want) && ok
		if lat != nil {
			lat[i] = time.Since(t0)
		}
	}
	return ok
}

// wirePipelineResponse is a pipeline answer as it came over the wire; decoded
// with json.Number cells, its integrated table re-encodes without loss.
type wirePipelineResponse struct {
	Discovery   serve.DiscoverResponse `json:"discovery"`
	Integration struct {
		Table    serve.TableJSON `json:"table"`
		Operator string          `json:"operator"`
	} `json:"integration"`
}

// numericColumns returns the headers of the first two columns of t whose
// filled cells are mostly numbers.
func numericColumns(t serve.TableJSON) (a, b string, err error) {
	var found []string
	for c, name := range t.Columns {
		filled, numeric := 0, 0
		for _, row := range t.Rows {
			switch row[c].(type) {
			case nil:
			case json.Number:
				filled++
				numeric++
			default:
				filled++
			}
		}
		if filled > 0 && numeric*2 > filled {
			found = append(found, name)
		}
	}
	if len(found) < 2 {
		return "", "", fmt.Errorf("integrated table %q has %d numeric columns, need 2", t.Name, len(found))
	}
	return found[0], found[1], nil
}

// checkIntegrated is the shape check on a pipeline answer: the integrated
// table is not empty and holds every key of the query.
func checkIntegrated(t serve.TableJSON, q *query) error {
	if len(t.Rows) == 0 {
		return fmt.Errorf("empty integrated table")
	}
	cells := map[string]bool{}
	for _, row := range t.Rows {
		for _, cell := range row {
			if s, ok := cell.(string); ok {
				cells[s] = true
			}
		}
	}
	for _, k := range q.keys {
		if !cells[k] {
			return fmt.Errorf("integrated table misses query key %q", k)
		}
	}
	return nil
}

// prepareSessions dry-runs every distinct session over HTTP, checks the
// answers, and encodes the follow-up requests.
func prepareSessions(e *env) ([]*session, error) {
	pool := e.in.sessionPool(e.cfg.seed)
	rng := rand.New(rand.NewSource(e.cfg.seed ^ 0x5a3b))
	direct := make([]bool, len(pool))
	direct[rng.Intn(len(pool))] = true
	for i := range direct {
		direct[i] = direct[i] || rng.Float64() < directSampleShare
	}
	sessions := make([]*session, len(pool))
	clients := newClients(clientCount)
	defer closeClients(clients)
	var ferr firstError
	runClosed(clients, len(pool), func(c *client, i int) bool {
		s, err := prepareSession(e, c, pool[i], direct[i])
		sessions[i] = s
		if err != nil {
			err = fmt.Errorf("session %s: %w", pool[i].name, err)
		}
		return ferr.set(err)
	})
	return sessions, ferr.err
}

func prepareSession(e *env, c *client, q *query, direct bool) (*session, error) {
	s := &session{q: q, pipelineURL: e.d.url + "/v1/pipeline", resolveURL: e.d.url + "/v1/resolve", corURL: e.d.url + "/v1/correlate"}
	post := func(url string, body []byte) ([]byte, error) {
		status, got, err := c.post(url, body)
		if err != nil || status != http.StatusOK {
			return nil, fmt.Errorf("%s: status %d, err %v, body %.200s", url, status, err, got)
		}
		return bytes.Clone(got), nil
	}
	var err error
	if q.expect, err = post(s.pipelineURL, q.body); err != nil {
		return s, err
	}
	var resp wirePipelineResponse
	if err := decodeBody(q.expect, &resp); err != nil {
		return s, fmt.Errorf("malformed pipeline response: %w", err)
	}
	integrated := resp.Integration.Table
	if err := checkIntegrated(integrated, q); err != nil {
		return s, err
	}
	q.recall = e.in.recall(q, resp.Discovery.IntegrationSet)
	colA, colB, err := numericColumns(integrated)
	if err != nil {
		return s, err
	}
	s.resolveBody = mustJSON(serve.ResolveRequest{Table: integrated})
	s.correlateBody = mustJSON(serve.CorrelateRequest{Table: integrated, ColA: colA, ColB: colB})
	if s.resolveExpect, err = post(s.resolveURL, s.resolveBody); err != nil {
		return s, err
	}
	if s.correlateExpect, err = post(s.corURL, s.correlateBody); err != nil {
		return s, err
	}
	if direct {
		return s, s.checkDirect(e.d.pipe, colA, colB)
	}
	return s, nil
}

// checkDirect compares the three served bodies with the JSON of the direct
// core.Pipeline calls for the same requests.
func (s *session) checkDirect(p *core.Pipeline, colA, colB string) error {
	ctx := context.Background()
	req, err := decodePipeline(s.q.body)
	if err != nil {
		return err
	}
	res, err := p.Run(ctx, req)
	if err != nil {
		return err
	}
	if want := mustJSON(wirePipeline(res)); !bytes.Equal(s.q.expect, want) {
		return fmt.Errorf("served pipeline body differs from the direct call")
	}
	var rreq serve.ResolveRequest
	if err := decodeBody(s.resolveBody, &rreq); err != nil {
		return err
	}
	t, err := rreq.Table.DecodeTable()
	if err != nil {
		return err
	}
	rr, err := p.ResolveEntities(ctx, t, er.Options{})
	if err != nil {
		return err
	}
	want := mustJSON(serve.ResolveResponse{Clusters: rr.Clusters, Resolved: serve.EncodeTable(rr.Resolved), Pairs: len(rr.Pairs)})
	if !bytes.Equal(s.resolveExpect, want) {
		return fmt.Errorf("served resolve body differs from the direct call")
	}
	rho, n, err := p.Correlate(ctx, t, colA, colB)
	if err != nil {
		return err
	}
	if want := mustJSON(serve.CorrelateResponse{R: rho, N: n}); !bytes.Equal(s.correlateExpect, want) {
		return fmt.Errorf("served correlate body differs from the direct call")
	}
	return nil
}

// queriesOf lists the sessions' pipeline queries, in pool order.
func queriesOf(sessions []*session) []*query {
	pool := make([]*query, len(sessions))
	for i, s := range sessions {
		pool[i] = s.q
	}
	return pool
}

func measureSessions(e *env) error {
	sessions, err := prepareSessions(e)
	if err != nil {
		return fmt.Errorf("dry run: %w", err)
	}
	perRound := e.cfg.perRound(e.cfg.scale().sessionRate)
	warm := perRound / 2
	draws := uniformDraws(e.cfg.seed, len(sessions), warm+rounds*perRound)
	pool := queriesOf(sessions)
	e.res.Stream = streamHash(pool, draws[warm:])
	err = closedLoopMetrics(e, warm, perRound, func(c *client, i int) bool {
		return sessions[draws[i]].run(c, nil)
	})
	e.m.set("recall_at_k", meanRecall(pool, draws[warm:]), len(draws)-warm)
	return err
}

func traceSessions(e *env) (*tracer, error) {
	sessions, err := prepareSessions(e)
	if err != nil {
		return nil, fmt.Errorf("dry run: %w", err)
	}
	n := e.cfg.perRound(e.cfg.scale().sessionRate)
	draws := uniformDraws(e.cfg.seed, len(sessions), n)
	e.res.Stream = streamHash(queriesOf(sessions), draws)

	l := e.d.lakes[0]
	dict0 := l.Dict().Len()
	perEndpoint := make([][3]time.Duration, n)
	var untraced []time.Duration
	err = serveStats(e, func() {
		untraced = untracedPass(e, n, func(c *client, i int) bool { return sessions[draws[i]].run(c, &perEndpoint[i]) })
	})
	if err != nil {
		return nil, err
	}
	for k, name := range []string{"pipeline", "resolve", "correlate"} {
		lat := make([]time.Duration, n)
		for i := range perEndpoint {
			lat[i] = perEndpoint[i][k]
		}
		endpointLatency(e.m, name, lat)
	}
	e.m.set("table.dict_values", float64(l.Dict().Len()-dict0), n)

	tr := newTracer()
	rp := &sessionReplayer{tr: tr, pipe: e.d.pipe}
	clients := newClients(1)
	defer closeClients(clients)
	for i, d := range draws {
		s := sessions[d]
		ok := true
		var hs [3]int
		root := tr.begin(0, i, "session", false)
		for k, st := range s.steps() {
			hs[k], _ = tr.do(root, i, st.name, false, func() {
				ok = clients[0].answers(st.url, st.body, st.want) && ok
			})
		}
		tr.end(root)
		for _, h := range hs {
			tr.replayTransport(h, i, clients[0], e.d.url)
		}
		e.res.Attempted++
		if !ok {
			e.res.Failed++
		}
		if err := rp.replay(hs, i, s); err != nil {
			return nil, fmt.Errorf("replaying %s: %w", s.q.name, err)
		}
	}
	tracedOverhead(e, tr, untraced, "session")
	rp.metrics(e.m)
	return tr, nil
}

// sessionReplayer re-executes a session's stages through the layers' public
// functions.
type sessionReplayer struct {
	tr   *tracer
	pipe *core.Pipeline

	overhead, runSelf         []time.Duration
	inTuples, outTuples, rows float64
	sessions                  int
}

func (rp *sessionReplayer) replay(hs [3]int, req int, s *session) error {
	tr, ctx, p := rp.tr, context.Background(), rp.pipe
	var err error
	fail := func(e error) {
		if err == nil {
			err = e
		}
	}
	lk := p.Lake()

	// /v1/pipeline
	var (
		wire serve.PipelineRequest
		q    *table.Table
		res  *core.RunResult
		disc *core.DiscoverResponse
	)
	tr.replay(hs[0], req, "serve.json_decode", func() { fail(decodeBody(s.q.body, &wire)) })
	tr.replay(hs[0], req, "table.decode", func() {
		var e error
		q, e = wire.Query.DecodeTable()
		fail(e)
	})
	if err != nil {
		return err
	}
	run, runDur := tr.replay(hs[0], req, "core.run", func() {
		var e error
		res, e = p.Run(ctx, core.RunRequest{Query: q, QueryColumn: wire.QueryColumn, K: wire.K, Operator: wire.Operator})
		fail(e)
	})
	if err != nil {
		return err
	}
	tr.replay(hs[0], req, "table.encode", func() { mustJSON(wirePipeline(res)) })
	_, fanout := tr.replay(run, req, "discovery.fanout", func() {
		var e error
		disc, e = p.Discover(ctx, core.DiscoverRequest{Query: q, QueryColumn: wire.QueryColumn, K: wire.K})
		fail(e)
	})
	if err != nil {
		return err
	}
	set := disc.IntegrationSet
	matcher := schemamatch.Holistic{Knowledge: lk.Knowledge()}
	apply, applyDur := tr.replay(run, req, "integrate.apply", func() {
		_, _, e := integrate.Apply(ctx, integrate.ALITEFD{Dict: lk.Dict()}, set, matcher, nil, false)
		fail(e)
	})
	var align schemamatch.Alignment
	tr.replay(apply, req, "schemamatch.align", func() {
		var e error
		align, e = matcher.Align(set)
		fail(e)
	})
	if err != nil {
		return err
	}
	in, e := alite.BuildInput(set, align, nil)
	if e != nil {
		return e
	}
	in.Dict = lk.Dict()
	tr.replay(apply, req, "fd.closure", func() {
		tuples, e := fd.ALITECtx(ctx, in)
		fail(e)
		tr.counts["fd.output_tuples"] += float64(len(tuples))
	})
	tr.counts["fd.input_tuples"] += float64(len(in.Tuples))

	// /v1/resolve
	var (
		rwire serve.ResolveRequest
		t     *table.Table
		rr    *er.Resolution
	)
	tr.replay(hs[1], req, "serve.json_decode", func() { fail(decodeBody(s.resolveBody, &rwire)) })
	tr.replay(hs[1], req, "table.decode", func() {
		var e error
		t, e = rwire.Table.DecodeTable()
		fail(e)
	})
	if err != nil {
		return err
	}
	_, resolve := tr.replay(hs[1], req, "er.resolve", func() {
		var e error
		rr, e = p.ResolveEntities(ctx, t, er.Options{})
		fail(e)
	})
	if err != nil {
		return err
	}
	tr.replay(hs[1], req, "table.encode", func() {
		mustJSON(serve.ResolveResponse{Clusters: rr.Clusters, Resolved: serve.EncodeTable(rr.Resolved), Pairs: len(rr.Pairs)})
	})
	tr.counts["er.rows"] += float64(t.NumRows())

	// /v1/correlate
	var cwire serve.CorrelateRequest
	tr.replay(hs[2], req, "serve.json_decode", func() { fail(decodeBody(s.correlateBody, &cwire)) })
	tr.replay(hs[2], req, "table.decode", func() {
		var e error
		t, e = cwire.Table.DecodeTable()
		fail(e)
	})
	if err != nil {
		return err
	}
	_, cor := tr.replay(hs[2], req, "analyze.correlate", func() {
		_, _, e := p.Correlate(ctx, t, cwire.ColA, cwire.ColB)
		fail(e)
	})

	session := tr.spans[tr.spans[hs[0]-1].Parent-1].dur()
	rp.overhead = append(rp.overhead, session-runDur-resolve-cor)
	rp.runSelf = append(rp.runSelf, max(0, runDur-fanout-applyDur))
	return err
}

func (rp *sessionReplayer) metrics(m *metricSet) {
	tr, n := rp.tr, len(rp.overhead)
	tr.layer(m, "table.decode_ms", "table.decode")
	tr.layer(m, "table.encode_ms", "table.encode")
	tr.layer(m, "serve.json_ms", "serve.json_decode")
	tr.layer(m, "serve.transport_ms", "serve.transport")
	tr.layer(m, "discovery.fanout_ms", "discovery.fanout")
	tr.layer(m, "schemamatch.align_ms", "schemamatch.align")
	tr.layer(m, "fd.closure_ms", "fd.closure")
	tr.layer(m, "integrate.apply_ms", "integrate.apply")
	tr.layer(m, "er.resolve_ms", "er.resolve")
	tr.layer(m, "analyze.correlate_ms", "analyze.correlate")
	for _, count := range []string{"fd.input_tuples", "fd.output_tuples", "er.rows"} {
		m.set(count, tr.counts[count]/float64(n), n) // per session
	}
	m.set("core.run_self_ms", medianMS(rp.runSelf), n)
	m.set("serve.overhead_ms", medianMS(rp.overhead), n)
}
