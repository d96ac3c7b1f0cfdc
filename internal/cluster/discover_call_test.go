// discover_call_test pins the shape of the coordinator's discovery call:
// one /v1/discover per shard per run, carrying every method, and what the
// coordinator makes of a shard whose answer to that one call is a refusal
// or is missing a method.
package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/discovery"
	"repro/internal/lake"
	"repro/internal/serve"
	"repro/internal/table"
)

// shardHandler is a shard server's handler over its slice of tables.
func shardHandler(t *testing.T, tables []*table.Table) http.Handler {
	t.Helper()
	l, err := lake.New(tables, lake.Options{Knowledge: difftest.DiffKB()})
	if err != nil {
		t.Fatal(err)
	}
	return serve.New(core.FromLake(l), serve.Config{Timeout: 10 * time.Second}).Handler()
}

// coordinatorOver builds a coordinator over the given shard handlers, each
// behind its own httptest listener.
func coordinatorOver(t *testing.T, handlers ...http.Handler) *cluster.Coordinator {
	t.Helper()
	addrs := make([]string, len(handlers))
	for i, h := range handlers {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		addrs[i] = ts.URL
	}
	coord, err := cluster.New(cluster.Config{Addrs: addrs, Knowledge: difftest.DiffKB(), ProbeTimeout: 2 * time.Second, RetryBackoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.CloseIdleConnections)
	return coord
}

// TestCoordinatorOneDiscoverPerShard counts /v1/discover requests at every
// shard: a clean multi-method discovery is one request per shard, not one
// per method per shard, and its answers stay byte-identical to an
// in-process lake.Sharded. A shard refusing that one request with 400
// fails the run with the shard's status and message — a bad request is not
// a down shard, so the answer is never a partial.
func TestCoordinatorOneDiscoverPerShard(t *testing.T) {
	pool := diffPool(19, 10)
	const n, refusing = 3, 1
	hits := make([]atomic.Int64, n)
	var refuse atomic.Bool
	handlers := make([]http.Handler, n)
	for i := range handlers {
		var mine []*table.Table
		for _, tbl := range pool {
			if lake.ShardIndex(tbl.Name, n) == i {
				mine = append(mine, tbl)
			}
		}
		h := shardHandler(t, mine)
		handlers[i] = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/discover" {
				hits[i].Add(1)
				if i == refusing && refuse.Load() {
					w.Header().Set("Content-Type", "application/json")
					w.WriteHeader(http.StatusBadRequest)
					_ = json.NewEncoder(w).Encode(serve.ErrorBody{Error: "shard refuses the run"})
					return
				}
			}
			h.ServeHTTP(w, r)
		})
	}
	coord := coordinatorOver(t, handlers...)
	mirror, err := lake.NewSharded(pool, n, lake.Options{Knowledge: difftest.DiffKB()})
	if err != nil {
		t.Fatal(err)
	}
	reg := discovery.NewRegistry()
	hitsSince := func(run func()) []int64 {
		before := make([]int64, n)
		for i := range hits {
			before[i] = hits[i].Load()
		}
		run()
		got := make([]int64, n)
		for i := range hits {
			got[i] = hits[i].Load() - before[i]
		}
		return got
	}
	onePerShard := func(what string, got []int64) {
		t.Helper()
		for i, h := range got {
			if h != 1 {
				t.Fatalf("%s: shard %d received %d /v1/discover calls, want 1 (all hits: %v)", what, i, h, got)
			}
		}
	}

	methods := []string{"santos-union", "lsh-join", "josie-join"}
	onePerShard("3-method discovery", hitsSince(func() {
		per, _, serrs, err := discovery.Discover(context.Background(), reg, coord, pool[0], 0, 5, methods)
		if err != nil || len(serrs) != 0 || len(per) != len(methods) {
			t.Fatalf("3-method discovery = (%d methods, %v, %v), want a clean run", len(per), serrs, err)
		}
	}))
	for qi, q := range pool[:3] {
		for _, k := range []int{0, 4} {
			var got string
			onePerShard("DiscoverySig", hitsSince(func() { got = difftest.DiscoverySig(reg, coord, q, 0, k) }))
			if want := difftest.DiscoverySig(reg, mirror, q, 0, k); got != want {
				t.Fatalf("query %d k %d: coordinator diverged from in-process sharded\n got:\n%s\nwant:\n%s", qi, k, got, want)
			}
		}
	}

	refuse.Store(true)
	onePerShard("refused discovery", hitsSince(func() {
		per, set, serrs, err := discovery.Discover(context.Background(), reg, coord, pool[0], 0, 5, methods)
		var serr *cluster.ShardError
		if !errors.As(err, &serr) || serr.Shard != refusing || serr.HTTPStatus() != http.StatusBadRequest || !strings.Contains(err.Error(), "shard refuses the run") {
			t.Fatalf("refused discovery err = %v, want shard %d's 400 *ShardError", err, refusing)
		}
		if per != nil || set != nil || serrs != nil {
			t.Fatalf("refused discovery returned (%v, %v, %v) beside its error, want nothing", per, set, serrs)
		}
	}))
	front := httptest.NewServer(serve.New(core.FromCatalog(coord), serve.Config{Timeout: 10 * time.Second}).Handler())
	defer front.Close()
	body, _ := json.Marshal(serve.DiscoverRequest{Query: serve.EncodeTable(pool[0]), Methods: methods, K: 5})
	resp, err := http.Post(front.URL+"/v1/discover", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb serve.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(eb.Error, "shard refuses the run") {
		t.Fatalf("coordinator /v1/discover with a refusing shard = %d %q, want 400 carrying the shard's message", resp.StatusCode, eb.Error)
	}
}

// TestCoordinatorShardOmittingMethodIsShardError pins that a shard whose
// 200 answer lacks a requested method is a malformed answer from that
// shard — one *ShardError, an explicit partial — never a silently empty
// ranking for the method.
func TestCoordinatorShardOmittingMethodIsShardError(t *testing.T) {
	pool := diffPool(29, 8)
	const n, broken = 2, 1
	var mine []*table.Table
	for _, tbl := range pool {
		if lake.ShardIndex(tbl.Name, n) != broken {
			mine = append(mine, tbl)
		}
	}
	stub := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/discover" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"perMethod":{},"integrationSet":["q"]}`))
	})
	coord := coordinatorOver(t, shardHandler(t, mine), stub)

	per, _, serrs, err := discovery.Discover(context.Background(), discovery.NewRegistry(), coord, pool[0], 0, 5, []string{"josie-join", "lsh-join"})
	if err != nil {
		t.Fatalf("Discover: %v", err)
	}
	if len(serrs) != 1 || serrs[0].Shard != broken {
		t.Fatalf("shard errors = %v, want exactly shard %d's (rankings %v)", serrs, broken, per)
	}
	var serr *cluster.ShardError
	if !errors.As(serrs[0].Err, &serr) || serr.Shard != broken || !strings.Contains(serr.Error(), `no ranking for method "josie-join"`) {
		t.Fatalf("shard error = %v, want shard %d's *ShardError naming the missing method", serrs[0].Err, broken)
	}
}
