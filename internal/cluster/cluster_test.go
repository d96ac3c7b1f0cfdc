// cluster_test exercises the coordinator over real HTTP against in-process
// shard servers: routed mutations with rollback, scatter-gather discovery
// equivalence against an in-process lake.Sharded mirror, partial reads
// with per-shard error detail, fast 503 refusals for mutations touching a
// down shard, and the /healthz + /metrics aggregation surface. The
// multi-process variants live in differential_test.go.
package cluster_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
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

// testCluster is an in-process cluster: n shard serve.Servers behind
// httptest listeners, a coordinator over them, and the shard handles so
// tests can kill and restart individual shards.
type testCluster struct {
	coord  *cluster.Coordinator
	shards []*httptest.Server
	addrs  []string
}

// startCluster builds n shard servers partitioning tables by
// lake.ShardIndex (the same rule the coordinator routes by) and a
// coordinator over them.
func startCluster(t testing.TB, tables []*table.Table, n int) *testCluster {
	t.Helper()
	tc := &testCluster{shards: make([]*httptest.Server, n), addrs: make([]string, n)}
	for i := 0; i < n; i++ {
		var mine []*table.Table
		for _, tbl := range tables {
			if lake.ShardIndex(tbl.Name, n) == i {
				mine = append(mine, tbl)
			}
		}
		tc.shards[i] = startShardServer(t, mine)
		tc.addrs[i] = tc.shards[i].URL
	}
	coord, err := cluster.New(cluster.Config{
		Addrs:        tc.addrs,
		Knowledge:    difftest.DiffKB(),
		CallTimeout:  10 * time.Second,
		ProbeTimeout: 2 * time.Second,
		RetryBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	tc.coord = coord
	return tc
}

// startShardServer stands one shard process surrogate up: a full
// serve.Server over its slice of the lake.
func startShardServer(t testing.TB, tables []*table.Table) *httptest.Server {
	t.Helper()
	l, err := lake.New(tables, lake.Options{Knowledge: difftest.DiffKB()})
	if err != nil {
		t.Fatal(err)
	}
	s := serve.New(core.FromLake(l), serve.Config{Timeout: 10 * time.Second})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// diffPool fabricates n differential-vocabulary tables.
func diffPool(seed int64, n int) []*table.Table {
	rng := rand.New(rand.NewSource(seed))
	pool := make([]*table.Table, n)
	for i := range pool {
		pool[i] = difftest.DiffTable(rng, fmt.Sprintf("c%02d", i))
	}
	return pool
}

// coordGet is a single-name FetchTables: (table, found), failing the test
// when the lookup itself cannot be answered.
func coordGet(t testing.TB, c *cluster.Coordinator, name string) (*table.Table, bool) {
	t.Helper()
	got, err := c.FetchTables(context.Background(), []string{name})
	if err != nil {
		t.Fatalf("FetchTables(%q): %v", name, err)
	}
	tbl, ok := got[name]
	return tbl, ok
}

// nameForShard fabricates a table name that routes to the given shard.
func nameForShard(prefix string, shard, n int) string {
	for i := 0; ; i++ {
		name := fmt.Sprintf("%s%d", prefix, i)
		if lake.ShardIndex(name, n) == shard {
			return name
		}
	}
}

// TestClusterDiscoveryMatchesSharded pins the transport-equivalence
// invariant at the unit level: the coordinator's discovery answers are
// byte-identical (float64 bit-exact scores included) to an in-process
// lake.Sharded over the same tables, across query tables and k values.
func TestClusterDiscoveryMatchesSharded(t *testing.T) {
	pool := diffPool(7, 10)
	const n = 3
	tc := startCluster(t, pool, n)
	mirror, err := lake.NewSharded(pool, n, lake.Options{Knowledge: difftest.DiffKB()})
	if err != nil {
		t.Fatal(err)
	}
	reg := discovery.NewRegistry()
	for qi, q := range pool[:4] {
		for _, k := range []int{0, 3, 7} {
			got := difftest.DiscoverySig(reg, tc.coord, q, 0, k)
			want := difftest.DiscoverySig(reg, mirror, q, 0, k)
			if got != want {
				t.Fatalf("query %d k %d: coordinator diverged from in-process sharded\n got:\n%s\nwant:\n%s", qi, k, got, want)
			}
		}
	}
	if got, want := tc.coord.Size(), mirror.Size(); got != want {
		t.Fatalf("Size: coordinator %d, mirror %d", got, want)
	}
}

// TestClusterRoutedMutations drives Add and Remove through the
// coordinator and verifies placement (each table lands on the shard its
// name hashes to), lake-identical validation errors, and mirror
// equivalence after every mutation.
func TestClusterRoutedMutations(t *testing.T) {
	pool := diffPool(11, 8)
	const n = 3
	tc := startCluster(t, pool[:4], n)
	mirror, err := lake.NewSharded(pool[:4], n, lake.Options{Knowledge: difftest.DiffKB()})
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.coord.Add(pool[4], pool[5]); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if err := mirror.Add(pool[4], pool[5]); err != nil {
		t.Fatal(err)
	}
	// Placement: the added tables answer from exactly their routed shard.
	for _, tbl := range pool[4:6] {
		shard := tc.coord.ShardFor(tbl.Name)
		for i, ts := range tc.shards {
			resp, err := http.Get(ts.URL + "/v1/lake/table?name=" + tbl.Name)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if want := http.StatusOK; i == shard && resp.StatusCode != want {
				t.Fatalf("shard %d (owner) answered %d for %q", i, resp.StatusCode, tbl.Name)
			} else if i != shard && resp.StatusCode == http.StatusOK {
				t.Fatalf("shard %d (not owner) also holds %q", i, tbl.Name)
			}
		}
	}
	// Duplicate add and missing remove keep lake's exact error contract.
	if err := tc.coord.Add(pool[4]); err == nil || !strings.Contains(err.Error(), "duplicate") && !strings.Contains(err.Error(), "already") {
		t.Fatalf("duplicate Add error = %v", err)
	}
	if err := tc.coord.Remove("no-such-table"); err == nil || !strings.Contains(err.Error(), `no table "no-such-table"`) {
		t.Fatalf("missing Remove error = %v, want lake's no-table message", err)
	}
	if err := tc.coord.Remove(pool[0].Name, pool[5].Name); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if err := mirror.Remove(pool[0].Name, pool[5].Name); err != nil {
		t.Fatal(err)
	}
	reg := discovery.NewRegistry()
	for _, q := range pool[:3] {
		got := difftest.DiscoverySig(reg, tc.coord, q, 0, 0)
		want := difftest.DiscoverySig(reg, mirror, q, 0, 0)
		if got != want {
			t.Fatalf("post-mutation divergence for %q\n got:\n%s\nwant:\n%s", q.Name, got, want)
		}
	}
	if _, ok := coordGet(t, tc.coord, pool[5].Name); ok {
		t.Fatalf("Get(%q) found a removed table", pool[5].Name)
	}
	if tbl, ok := coordGet(t, tc.coord, pool[4].Name); !ok || tbl.NumRows() != pool[4].NumRows() {
		t.Fatalf("Get(%q) = %v, %v; want the added table back", pool[4].Name, tbl, ok)
	}
}

// TestClusterAddRollback makes one shard reject its sub-batch (duplicate
// name) in a cross-shard Add and asserts the other shard's already-applied
// sub-batch is compensated away: the failed batch leaves no trace.
func TestClusterAddRollback(t *testing.T) {
	const n = 2
	tc := startCluster(t, nil, n)
	dup := difftest.DiffTable(rand.New(rand.NewSource(3)), nameForShard("dup", 0, n))
	fresh := difftest.DiffTable(rand.New(rand.NewSource(4)), nameForShard("fresh", 1, n))
	if err := tc.coord.Add(dup); err != nil {
		t.Fatal(err)
	}
	// Shard 0 rejects dup (already present); shard 1 applies fresh, which
	// the rollback must undo.
	if err := tc.coord.Add(fresh, dup); err == nil {
		t.Fatal("cross-shard Add with a duplicate succeeded, want error")
	}
	if _, ok := coordGet(t, tc.coord, fresh.Name); ok {
		t.Fatalf("rollback failed: %q survived the failed batch", fresh.Name)
	}
	if got := tc.coord.Size(); got != 1 {
		t.Fatalf("Size after rolled-back Add = %d, want 1", got)
	}
}

// TestClusterRollbackFailureReported makes a cross-shard Add fail on one
// shard while the other accepts its sub-batch and then dies before the
// compensating remove reaches it. The apply failure must still come first
// (it sets the response status), and the unrestored shard must be named in
// the error, not dropped: its sub-batch survives the failed batch.
func TestClusterRollbackFailureReported(t *testing.T) {
	const n = 2
	healthy := startShardServer(t, nil)
	l, err := lake.New(nil, lake.Options{Knowledge: difftest.DiffKB()})
	if err != nil {
		t.Fatal(err)
	}
	inner := serve.New(core.FromLake(l), serve.Config{Timeout: 10 * time.Second}).Handler()
	dying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/lake/remove" {
			// The shard goes away between its add and the rollback: the
			// connection drops without an answer.
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(dying.Close)
	coord, err := cluster.New(cluster.Config{
		Addrs:        []string{healthy.URL, dying.URL},
		CallTimeout:  10 * time.Second,
		ProbeTimeout: 2 * time.Second,
		RetryBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	dup := difftest.DiffTable(rand.New(rand.NewSource(3)), nameForShard("dup", 0, n))
	fresh := difftest.DiffTable(rand.New(rand.NewSource(4)), nameForShard("fresh", 1, n))
	if err := coord.Add(dup); err != nil {
		t.Fatal(err)
	}
	err = coord.Add(fresh, dup)
	if err == nil {
		t.Fatal("cross-shard Add with a duplicate succeeded, want error")
	}
	var se *cluster.ShardError
	if !errors.As(err, &se) || se.Shard != 0 || se.Op != "add" {
		t.Fatalf("first error in %q is not shard 0's add failure", err)
	}
	if !strings.Contains(err.Error(), "rollback on shard 1") {
		t.Fatalf("error %q does not name the unrestored shard 1", err)
	}
	if _, ok := coordGet(t, coord, fresh.Name); !ok {
		t.Fatalf("%q is gone although its rollback failed", fresh.Name)
	}
	if m := coord.ShardMetrics(); m[0].RollbackFailures != 0 || m[1].RollbackFailures != 1 {
		t.Fatalf("rollback failures per shard = %d, %d; want 0, 1", m[0].RollbackFailures, m[1].RollbackFailures)
	}
	rec := httptest.NewRecorder()
	serve.New(core.FromCatalog(coord), serve.Config{}).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if want := fmt.Sprintf("dialite_shard_rollback_failures_total{shard=\"1\",addr=%q} 1\n", dying.URL); !strings.Contains(rec.Body.String(), want) {
		t.Fatalf("/metrics does not carry %q", want)
	}
}

// TestClusterPartialReads kills one shard and asserts the degradation
// contract: discovery still answers, marked partial with that shard's
// error; mutations routed to the dead shard refuse fast with 503; and the
// coordinator's own serve surface exposes the partial marker on the wire.
func TestClusterPartialReads(t *testing.T) {
	pool := diffPool(23, 9)
	const n = 3
	tc := startCluster(t, pool, n)
	const down = 1
	tc.shards[down].Close()

	// Catalog-level: partial tolerated, shard error identifies the shard.
	reg := discovery.NewRegistry()
	per, _, shardErrs, err := discovery.Discover(context.Background(), reg, tc.coord, pool[0], 0, 5, difftest.DiffMethods)
	if err != nil {
		t.Fatalf("Discover with a down shard: %v", err)
	}
	if len(shardErrs) == 0 {
		t.Fatal("Discover with a down shard reported no shard errors")
	}
	for _, se := range shardErrs {
		if se.Shard != down {
			t.Fatalf("shard error names shard %d, want %d: %v", se.Shard, down, se)
		}
		if !errors.Is(se, discovery.ErrShardUnavailable) {
			t.Fatalf("shard error %v does not match ErrShardUnavailable", se)
		}
	}
	if len(per) == 0 {
		t.Fatal("partial run returned no rankings at all")
	}

	// The wire surface: a coordinator serve.Server marks the response.
	cs := serve.New(core.FromCatalog(tc.coord), serve.Config{Timeout: 10 * time.Second})
	front := httptest.NewServer(cs.Handler())
	defer front.Close()
	body, _ := json.Marshal(serve.DiscoverRequest{Query: serve.EncodeTable(pool[0]), K: 5})
	resp, err := http.Post(front.URL+"/v1/discover", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wire serve.DiscoverResponse
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial discover answered %d, want 200", resp.StatusCode)
	}
	if !wire.Partial || len(wire.ShardErrors) == 0 {
		t.Fatalf("wire response partial=%v shardErrors=%v, want explicit partial marker + detail", wire.Partial, wire.ShardErrors)
	}
	if wire.ShardErrors[0].Shard != down {
		t.Fatalf("wire shard error names shard %d, want %d", wire.ShardErrors[0].Shard, down)
	}

	// Mutations touching the dead shard refuse fast with 503 — before
	// anything is applied anywhere.
	victim := difftest.DiffTable(rand.New(rand.NewSource(9)), nameForShard("x", down, n))
	sizeBefore := tc.coord.Size()
	start := time.Now()
	err = tc.coord.Add(victim)
	if err == nil {
		t.Fatal("Add to a dead shard succeeded")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("Add to a dead shard took %s, want a fast refusal", elapsed)
	}
	var coded interface{ HTTPStatus() int }
	if !errors.As(err, &coded) || coded.HTTPStatus() != http.StatusServiceUnavailable {
		t.Fatalf("Add to a dead shard returned %v, want a 503-coded error", err)
	}
	if got := tc.coord.Size(); got != sizeBefore {
		t.Fatalf("refused Add changed Size: %d -> %d", sizeBefore, got)
	}

	// Health aggregation: the coordinator is degraded, the shard is down.
	hresp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	var health serve.HealthResponse
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "degraded" {
		t.Fatalf("coordinator /healthz status %q with a dead shard, want degraded", health.Status)
	}
	if len(health.Shards) != n {
		t.Fatalf("/healthz lists %d shards, want %d", len(health.Shards), n)
	}
	for _, sh := range health.Shards {
		if sh.Shard == down && sh.Status != "down" {
			t.Fatalf("shard %d reported %q, want down", sh.Shard, sh.Status)
		}
		if sh.Shard != down && sh.Status != "ok" {
			t.Fatalf("shard %d reported %q, want ok", sh.Shard, sh.Status)
		}
	}

	// Metrics aggregation: per-shard fan-out series appear in both views.
	mresp, err := http.Get(front.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, series := range []string{"dialite_shard_calls_total", "dialite_shard_errors_total", "dialite_shard_retries_total", "dialite_shard_rtt_seconds"} {
		if !strings.Contains(string(text), series) {
			t.Fatalf("/metrics lacks %s in cluster mode", series)
		}
	}
	jresp, err := http.Get(front.URL + "/metrics?format=json&scope=shards")
	if err != nil {
		t.Fatal(err)
	}
	var sm []serve.ShardMetrics
	if err := json.NewDecoder(jresp.Body).Decode(&sm); err != nil {
		t.Fatal(err)
	}
	jresp.Body.Close()
	if len(sm) != n {
		t.Fatalf("scope=shards lists %d shards, want %d", len(sm), n)
	}
	if sm[down].Errors == 0 {
		t.Fatalf("down shard %d shows zero transport errors after the failures above: %+v", down, sm[down])
	}
}

// TestClusterEpochVectorStability pins the down-shard sentinel semantics:
// a steadily-down shard yields a stable epoch vector (degraded reads
// settle instead of retry-storming), and the vector differs from the
// all-up one (the transition is observable).
func TestClusterEpochVectorStability(t *testing.T) {
	pool := diffPool(31, 6)
	const n = 3
	tc := startCluster(t, pool, n)
	up := tc.coord.Epochs()
	if len(up) != 1+n {
		t.Fatalf("all-up epoch vector has %d elements, want %d (local + one per single-lake shard)", len(up), 1+n)
	}
	tc.shards[2].Close()
	down1 := tc.coord.Epochs()
	down2 := tc.coord.Epochs()
	if len(down1) != 1+n {
		t.Fatalf("degraded epoch vector has %d elements, want %d", len(down1), 1+n)
	}
	for i := range down1 {
		if down1[i] != down2[i] {
			t.Fatalf("degraded epoch vector unstable at %d: %v vs %v — partial reads would retry-storm", i, down1, down2)
		}
		if down1[i]%2 != 0 {
			t.Fatalf("degraded epoch vector has odd element at %d: %v — reads would never settle", i, down1)
		}
	}
	if down1[1+2] == up[1+2] {
		t.Fatalf("shard 2's vector element did not change when it went down: %v vs %v", up, down1)
	}
}

// TestProbeShards covers shardctl's probing path: live shards report their
// health and size, dead ones report down, and malformed addresses error.
func TestProbeShards(t *testing.T) {
	pool := diffPool(41, 5)
	tc := startCluster(t, pool, 2)
	tc.shards[1].Close()
	health, err := cluster.ProbeShards(context.Background(), tc.addrs, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(health) != 2 {
		t.Fatalf("probed %d shards, want 2", len(health))
	}
	if health[0].Status != "ok" || health[0].Size == 0 {
		t.Fatalf("live shard reported %+v, want ok with its size", health[0])
	}
	if health[1].Status != "down" || health[1].Error == "" {
		t.Fatalf("dead shard reported %+v, want down with detail", health[1])
	}
	if _, err := cluster.ProbeShards(context.Background(), []string{"ftp://nope"}, time.Second); err == nil {
		t.Fatal("ProbeShards accepted an ftp address")
	}
}
