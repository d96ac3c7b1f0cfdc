// tables_test pins the coordinator's decoded-table cache from outside:
// materialized tables stay fresh across Add, Remove and a re-Add with
// different cells, whether the mutations pass the coordinator or go
// straight to a shard behind its back; the cache keys only on a clean
// element of the coordinator-shaped vector; the tables it shares are never
// written by the pipeline; and concurrent readers never make a writer's
// next answer stale.
package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/er"
	"repro/internal/lake"
	"repro/internal/serve"
	"repro/internal/table"
)

// withMetric copies src under a new name, adding delta to every cell of its
// last (integer) column: the same query-column values, so it ranks like
// src, with different cells.
func withMetric(src *table.Table, name string, delta int64) *table.Table {
	out := table.New(name, src.Columns...)
	for _, row := range src.Rows {
		r := slices.Clone(row)
		r[len(r)-1] = table.IntValue(r[len(r)-1].IntVal() + delta)
		out.Rows = append(out.Rows, r)
	}
	return out
}

// tableCacheTotals sums the coordinator's per-shard table cache counters,
// Bytes left out.
func tableCacheTotals(c *cluster.Coordinator) (hits, misses, stale uint64) {
	for _, m := range c.ShardMetrics() {
		hits += m.TableCacheHits
		misses += m.TableCacheMisses
		stale += m.TableCacheStale
	}
	return hits, misses, stale
}

// TestTableCacheFreshness sends one /v1/pipeline body to a coordinator's
// front door twice after each of Add, Remove and a re-Add of the same name
// with different cells — once routed through the coordinator, once posted
// straight to the owning shard server, so that only that shard's epoch
// element moves. The integrated table must equal the one an in-process
// lake.Sharded mirror that took the same mutations integrates. A cache
// keyed by name alone fails both sequences, and one keyed by the
// coordinator's own element fails the direct one.
func TestTableCacheFreshness(t *testing.T) {
	pool := diffPool(29, 8)
	const n = 3
	q := pool[0]
	for _, route := range []string{"coordinator", "shard"} {
		t.Run(route, func(t *testing.T) {
			tc := startCluster(t, pool, n)
			defer coordClient(tc.coord)
			front := httptest.NewServer(serve.New(core.FromCatalog(tc.coord), serve.Config{Timeout: 10 * time.Second}).Handler())
			defer front.Close()
			mirror, err := lake.NewSharded(pool, n, lake.Options{Knowledge: difftest.DiffKB()})
			if err != nil {
				t.Fatal(err)
			}
			ref := core.FromCatalog(mirror)
			const owner = 1
			name := nameForShard("fresh", owner, n)
			base := front.URL
			if route == "shard" {
				base = tc.addrs[owner]
			}
			req := core.RunRequest{Query: q, Methods: difftest.DiffMethods, K: 5, WithProvenance: true}
			body, err := json.Marshal(serve.PipelineRequest{Query: serve.EncodeTable(q), Methods: req.Methods, K: req.K, WithProvenance: true})
			if err != nil {
				t.Fatal(err)
			}
			// answer requires two identical served pipelines to integrate
			// what the mirror integrates, and returns the integrated table.
			answer := func(step string) string {
				t.Helper()
				res, err := ref.Run(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				want := integrationSig(t, res.Discovery.IntegrationSet, serve.EncodeTable(res.Integration.Table))
				for i := range 2 {
					status, got := postRaw(t, front.URL+"/v1/pipeline", body)
					if status != http.StatusOK {
						t.Fatalf("%s, request %d: status %d: %s", step, i, status, got)
					}
					if sig := servedPipelineSig(t, got); sig != want {
						t.Fatalf("%s, request %d: served pipeline diverged from the mirror\n served %s\n mirror %s", step, i, sig, want)
					}
				}
				return want
			}
			add := func(tbl *table.Table) {
				t.Helper()
				postOK(t, base+"/v1/lake/add", serve.LakeAddRequest{Tables: []serve.TableJSON{serve.EncodeTable(tbl)}})
				if err := mirror.Add(tbl); err != nil {
					t.Fatal(err)
				}
			}
			before := answer("before Add")
			add(withMetric(q, name, 1000))
			added := answer("after Add")
			postOK(t, base+"/v1/lake/remove", serve.LakeRemoveRequest{Names: []string{name}})
			if err := mirror.Remove(name); err != nil {
				t.Fatal(err)
			}
			removed := answer("after Remove")
			add(withMetric(q, name, 2000))
			readded := answer("after re-Add")
			if added == before || removed != before || readded == added || !strings.Contains(readded, name) {
				t.Fatal("the mutations did not change the integrated table as planned; the test checks nothing")
			}
			if hits, _, stale := tableCacheTotals(tc.coord); hits == 0 || stale == 0 {
				t.Fatalf("table cache hits %d, stale %d: the requests never exercised a cached or a stale table", hits, stale)
			}
			checkTableCacheSeries(t, front.URL, tc.coord)
		})
	}
}

// checkTableCacheSeries requires the front door's /metrics to render every
// shard's table cache counters, in the text view and in scope=shards.
func checkTableCacheSeries(t *testing.T, base string, c *cluster.Coordinator) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want := c.ShardMetrics()
	for _, m := range want {
		for series, v := range map[string]int64{
			"dialite_shard_table_cache_hits_total":      int64(m.TableCacheHits),
			"dialite_shard_table_cache_misses_total":    int64(m.TableCacheMisses),
			"dialite_shard_table_cache_stale_total":     int64(m.TableCacheStale),
			"dialite_shard_table_cache_evictions_total": int64(m.TableCacheEvictions),
			"dialite_shard_table_cache_bytes":           m.TableCacheBytes,
		} {
			line := fmt.Sprintf("%s{shard=\"%d\",addr=%q} %d\n", series, m.Shard, m.Addr, v)
			if !strings.Contains(string(text), line) {
				t.Fatalf("/metrics lacks %q", line)
			}
		}
	}
	jresp, err := http.Get(base + "/metrics?format=json&scope=shards")
	if err != nil {
		t.Fatal(err)
	}
	defer jresp.Body.Close()
	var got []serve.ShardMetrics
	if err := json.NewDecoder(jresp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if i >= len(got) || got[i].TableCacheHits != want[i].TableCacheHits || got[i].TableCacheBytes != want[i].TableCacheBytes {
			t.Fatalf("scope=shards %+v, want the table cache counters of %+v", got, want)
		}
	}
}

// integrationSig renders an integration set's names and an integrated
// table's wire form.
func integrationSig(t *testing.T, set []*table.Table, integrated serve.TableJSON) string {
	t.Helper()
	names := make([]string, len(set))
	for i, tbl := range set {
		names[i] = tbl.Name
	}
	return wireSig(t, names, integrated)
}

func wireSig(t *testing.T, names []string, integrated serve.TableJSON) string {
	t.Helper()
	b, err := json.Marshal(integrated)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("set %v\n%s", names, b)
}

// servedPipelineSig is integrationSig of a /v1/pipeline response body.
func servedPipelineSig(t *testing.T, body []byte) string {
	t.Helper()
	var resp serve.PipelineResponse
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.Discovery.Partial {
		t.Fatalf("partial pipeline answer: %s", body)
	}
	return wireSig(t, resp.Discovery.IntegrationSet, resp.Integration.Table)
}

// TestResolveTablesKeysOnlyOnCleanElements pins when the coordinator's table
// cache may key on a vector: nothing is served from the cache or stored into
// it for a shard whose element is odd or the down-shard sentinel, nor for any
// shard under a vector without one element per shard after the
// coordinator's own; a clean vector stores on the first call and serves on
// the second without a shard call.
func TestResolveTablesKeysOnlyOnCleanElements(t *testing.T) {
	pool := diffPool(37, 9)
	const n = 3
	tc := startCluster(t, pool, n)
	defer coordClient(tc.coord)
	ctx := context.Background()
	names := make([]string, len(pool))
	for i, tbl := range pool {
		names[i] = tbl.Name
	}
	clean := tc.coord.Epochs()
	if len(clean) != 1+n {
		t.Fatalf("epoch vector %v: want the coordinator's counter and one element per shard", clean)
	}
	const epochDown = ^uint64(0) - 1 // the coordinator's down-shard sentinel
	with := func(s int, e uint64) []uint64 {
		v := slices.Clone(clean)
		v[1+s] = e
		return v
	}
	// Each bad vector names the shard whose element it spoils; -1 is all.
	bad := []struct {
		what   string
		epochs []uint64
		shard  int
	}{
		{"odd element", with(0, clean[1]+1), 0},
		{"epochDown", with(1, epochDown), 1},
		{"long vector", append(slices.Clone(clean), 0), -1},
		{"short vector", clean[:n], -1},
		{"no vector", nil, -1},
	}
	spoiled := func(shard, s int) bool { return shard < 0 || shard == s }
	resolve := func(c *cluster.Coordinator, epochs []uint64) map[string]*table.Table {
		t.Helper()
		got, err := c.ResolveTables(ctx, names, epochs)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(names) {
			t.Fatalf("resolved %d of %d tables", len(got), len(names))
		}
		return got
	}
	cacheCounts := func(m serve.ShardMetrics) [4]int64 {
		return [4]int64{int64(m.TableCacheHits), int64(m.TableCacheMisses), int64(m.TableCacheStale), m.TableCacheBytes}
	}

	// On an empty cache a spoiled shard's names are neither looked up nor
	// stored.
	for _, b := range bad {
		fresh, err := cluster.New(cluster.Config{Addrs: tc.addrs, Knowledge: difftest.DiffKB()})
		if err != nil {
			t.Fatal(err)
		}
		resolve(fresh, b.epochs)
		for _, m := range fresh.ShardMetrics() {
			if spoiled(b.shard, m.Shard) && cacheCounts(m) != [4]int64{} {
				t.Fatalf("%s on an empty cache: shard %d counters %+v, want no lookup and no store", b.what, m.Shard, m)
			}
		}
		coordClient(fresh)
	}

	calls := func() (sum uint64) {
		for _, m := range tc.coord.ShardMetrics() {
			sum += m.Calls
		}
		return sum
	}
	first := resolve(tc.coord, clean)
	if _, misses, _ := tableCacheTotals(tc.coord); misses != uint64(len(names)) {
		t.Fatalf("first clean resolve: %d misses, want %d", misses, len(names))
	}
	before := calls()
	second := resolve(tc.coord, clean)
	if hits, _, _ := tableCacheTotals(tc.coord); hits != uint64(len(names)) {
		t.Fatalf("second clean resolve: %d hits, want %d", hits, len(names))
	}
	if got := calls() - before; got != 0 {
		t.Fatalf("a resolve served wholly from the cache made %d shard calls", got)
	}
	for _, nm := range names {
		if first[nm] != second[nm] {
			t.Fatalf("table %q: the second clean resolve did not serve the cached table", nm)
		}
	}

	// On a warm cache a spoiled shard's names are fetched again, never
	// served from the cache, and its counters do not move; the other
	// shards' names still hit.
	for _, b := range bad {
		m0 := tc.coord.ShardMetrics()
		got := resolve(tc.coord, b.epochs)
		m1 := tc.coord.ShardMetrics()
		for _, nm := range names {
			s := lake.ShardIndex(nm, n)
			if fromCache := got[nm] == first[nm]; fromCache == spoiled(b.shard, s) {
				t.Fatalf("%s: table %q on shard %d served from the cache: %v", b.what, nm, s, fromCache)
			}
		}
		for s := range m0 {
			if spoiled(b.shard, s) && cacheCounts(m0[s]) != cacheCounts(m1[s]) {
				t.Fatalf("%s: shard %d's cache was consulted: %+v → %+v", b.what, s, m0[s], m1[s])
			}
		}
	}
	// The cache still holds what the clean vector stored.
	third := resolve(tc.coord, clean)
	for _, nm := range names {
		if third[nm] != first[nm] {
			t.Fatalf("table %q: a bad vector replaced the cached table", nm)
		}
	}
}

// deepCopy copies a table's headers and every row.
func deepCopy(t *table.Table) *table.Table {
	out := &table.Table{Name: t.Name, Columns: slices.Clone(t.Columns)}
	if t.Rows != nil {
		out.Rows = make([][]table.Value, len(t.Rows))
		for i, row := range t.Rows {
			out.Rows[i] = slices.Clone(row)
		}
	}
	return out
}

// TestDiscoveredTablesStayReadOnly runs every consumer of discovered tables —
// Pipeline.Run, ResolveEntities, Correlate and both table encoders — over
// the tables discovery shares: a coordinator's table-cache hits and an
// in-process lake's own tables. Each must read exactly as a deep copy taken
// before the run.
func TestDiscoveredTablesStayReadOnly(t *testing.T) {
	pool := diffPool(41, 10)
	const n = 3
	shapes := map[string]func(t *testing.T) lake.Catalog{
		"coordinator": func(t *testing.T) lake.Catalog {
			tc := startCluster(t, pool, n)
			t.Cleanup(func() { coordClient(tc.coord) })
			return tc.coord
		},
		"lake": func(t *testing.T) lake.Catalog {
			l, err := lake.New(pool, lake.Options{Knowledge: difftest.DiffKB()})
			if err != nil {
				t.Fatal(err)
			}
			return l
		},
	}
	for name, catalog := range shapes {
		t.Run(name, func(t *testing.T) {
			p := core.FromCatalog(catalog(t))
			ctx := context.Background()
			req := core.DiscoverRequest{Query: pool[0], Methods: difftest.DiffMethods, K: 5}
			first, err := p.Discover(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			shared := first.IntegrationSet[1:]
			if len(shared) == 0 {
				t.Fatal("discovery found no table; the test checks nothing")
			}
			copies := make([]*table.Table, len(shared))
			for i, tbl := range shared {
				copies[i] = deepCopy(tbl)
			}
			run, err := p.Run(ctx, core.RunRequest{Query: req.Query, Methods: req.Methods, K: req.K, WithProvenance: true})
			if err != nil {
				t.Fatal(err)
			}
			// The run's discovered tables are the shared ones: cache hits
			// on the coordinator, the lake's own tables in process.
			if got := run.Discovery.IntegrationSet[1:]; !slices.Equal(got, shared) {
				t.Fatal("the run's integration set does not share the first run's tables")
			}
			integrated := run.Integration.Table
			consume := append([]*table.Table{integrated}, shared...)
			for _, tbl := range consume {
				if _, err := p.ResolveEntities(ctx, tbl, er.Options{}); err != nil {
					t.Fatal(err)
				}
				// A text column has no correlation; only what Correlate
				// writes matters here, so its result is dropped.
				_, _, _ = p.Correlate(ctx, tbl, tbl.Columns[0], tbl.Columns[len(tbl.Columns)-1])
				_ = serve.EncodeTable(tbl)
				if err := tbl.WriteCSV(io.Discard); err != nil {
					t.Fatal(err)
				}
			}
			for i, tbl := range shared {
				if !reflect.DeepEqual(tbl, copies[i]) {
					t.Fatalf("table %q was written by a consumer of discovery", tbl.Name)
				}
			}
		})
	}
}

// contentSig renders a discovery answer: every method's ranking with score
// bits, and every integration-set table's full wire form.
func contentSig(t *testing.T, a *core.DiscoverResponse) string {
	t.Helper()
	var b strings.Builder
	for _, m := range difftest.DiffMethods {
		fmt.Fprintf(&b, "%s:", m)
		for _, r := range a.PerMethod[m] {
			fmt.Fprintf(&b, "%s|%016x|%d;", r.Table.Name, math.Float64bits(r.Score), r.Column)
		}
		b.WriteByte('\n')
	}
	for _, tbl := range a.IntegrationSet {
		enc, err := json.Marshal(serve.EncodeTable(tbl))
		if err != nil {
			t.Fatal(err)
		}
		b.Write(enc)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestTableCacheConcurrentWithShardMutation runs two readers repeating one
// coordinator query while a writer adds and removes one table directly on
// its owning shard server, with different cells each time. Readers may
// straddle a mutation and store what they fetched; after every ack the
// writer's own next answer must still equal an in-process mirror's. Run it
// under -race.
func TestTableCacheConcurrentWithShardMutation(t *testing.T) {
	pool := diffPool(43, 8)
	const n, owner = 3, 2
	tc := startCluster(t, pool, n)
	defer coordClient(tc.coord)
	mirror, err := lake.NewSharded(pool, n, lake.Options{Knowledge: difftest.DiffKB()})
	if err != nil {
		t.Fatal(err)
	}
	p, ref := core.FromCatalog(tc.coord), core.FromCatalog(mirror)
	q := pool[0]
	req := core.DiscoverRequest{Query: q, Methods: difftest.DiffMethods, K: 5}
	name := nameForShard("churn", owner, n)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, err := p.Discover(context.Background(), req); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	for i := range 12 {
		if i%2 == 0 {
			tbl := withMetric(q, name, int64(1000*(i+1)))
			postOK(t, tc.addrs[owner]+"/v1/lake/add", serve.LakeAddRequest{Tables: []serve.TableJSON{serve.EncodeTable(tbl)}})
			if err := mirror.Add(tbl); err != nil {
				t.Fatal(err)
			}
		} else {
			postOK(t, tc.addrs[owner]+"/v1/lake/remove", serve.LakeRemoveRequest{Names: []string{name}})
			if err := mirror.Remove(name); err != nil {
				t.Fatal(err)
			}
		}
		got, err := p.Discover(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Discover(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := contentSig(t, got), contentSig(t, want); g != w {
			t.Fatalf("mutation %d: coordinator answer diverged from the mirror\n got:\n%s\nwant:\n%s", i, g, w)
		}
	}
}
