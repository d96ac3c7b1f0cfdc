package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/core"
	"repro/internal/serve"
)

// Answer checks. Every distinct query is dry-run once before anything is
// timed, and the run aborts on any error there: the workloads are chosen so
// that no operation fails. The dry run pins the response each query must
// keep getting; the timed ops then compare bytes, which costs the client
// almost nothing.

// wireDiscover renders a direct core.Pipeline discovery answer in the
// server's wire form.
func wireDiscover(resp *core.DiscoverResponse) serve.DiscoverResponse {
	out := serve.DiscoverResponse{PerMethod: make(map[string][]serve.DiscoverResult, len(resp.PerMethod))}
	for m, rs := range resp.PerMethod {
		list := make([]serve.DiscoverResult, 0, len(rs))
		for _, r := range rs {
			list = append(list, serve.DiscoverResult{Table: r.Table.Name, Score: r.Score, Method: r.Method, Column: r.Column})
		}
		out.PerMethod[m] = list
	}
	for _, t := range resp.IntegrationSet {
		out.IntegrationSet = append(out.IntegrationSet, t.Name)
	}
	return out
}

func wirePipeline(res *core.RunResult) serve.PipelineResponse {
	return serve.PipelineResponse{
		Discovery:   wireDiscover(res.Discovery),
		Integration: serve.IntegrateResponse{Table: serve.EncodeTable(res.Integration.Table), Operator: res.Integration.Operator},
	}
}

// directDiscover answers a pre-encoded discover request by calling the
// pipeline directly and returns the body the server must produce for it.
func directDiscover(p *core.Pipeline, body []byte) ([]byte, error) {
	req, err := decodeDiscover(body)
	if err != nil {
		return nil, err
	}
	resp, err := p.Discover(context.Background(), req)
	if err != nil {
		return nil, err
	}
	if resp.Partial() {
		return nil, fmt.Errorf("partial discovery: %v", resp.ShardErrors)
	}
	return mustJSON(wireDiscover(resp)), nil
}

// firstError keeps the first error reported from concurrent dry-run ops.
type firstError struct {
	mu  sync.Mutex
	err error
}

func (f *firstError) set(err error) bool {
	if err == nil {
		return true
	}
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
	return false
}

// dryRunDiscover sends every distinct discover query once. With a reference
// pipeline, the served body must equal the JSON of the direct call on it
// (for cluster-fanout the reference is an unsharded lake: byte-exact sharded
// ≡ unsharded is a repo invariant). Without one (churn-mixed, whose lake is
// about to change) the served body is only checked for shape.
func dryRunDiscover(in *inputs, url string, pool []*query, ref *core.Pipeline) error {
	clients := newClients(clientCount)
	defer closeClients(clients)
	var ferr firstError
	runClosed(clients, len(pool), func(c *client, i int) bool {
		q := pool[i]
		status, got, err := c.post(url, q.body)
		if err != nil || status != http.StatusOK {
			return ferr.set(fmt.Errorf("query %s: status %d, err %v, body %.200s", q.name, status, err, got))
		}
		set, err := integrationSet(got, q.name)
		if err != nil {
			return ferr.set(fmt.Errorf("query %s: %w", q.name, err))
		}
		q.expect = bytes.Clone(got)
		q.recall = in.recall(q, set)
		if ref == nil {
			return true
		}
		want, err := directDiscover(ref, q.body)
		if err != nil {
			return ferr.set(fmt.Errorf("query %s: direct call: %w", q.name, err))
		}
		if !bytes.Equal(got, want) {
			return ferr.set(fmt.Errorf("query %s: served body differs from the direct pipeline call:\n served %.300s\n direct %.300s", q.name, got, want))
		}
		return true
	})
	return ferr.err
}

// integrationSet parses a discover response and checks its shape: not
// partial, and the query first in its integration set.
func integrationSet(body []byte, queryName string) ([]string, error) {
	var resp serve.DiscoverResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("malformed discover response: %w", err)
	}
	if resp.Partial {
		return nil, fmt.Errorf("partial discover response")
	}
	if len(resp.IntegrationSet) == 0 || resp.IntegrationSet[0] != queryName {
		return nil, fmt.Errorf("integration set %v does not start with the query", resp.IntegrationSet)
	}
	return resp.IntegrationSet, nil
}

// meanRecall averages the dry-run recall of the queries a stream draws.
func meanRecall(pool []*query, draws []int) float64 {
	sum := 0.0
	for _, d := range draws {
		sum += pool[d].recall
	}
	return sum / float64(len(draws))
}
