// answers_test pins serve's /v1/discover answer cache where it depends on
// the catalog shape — served bytes stay fresh across Add, Remove and re-Add
// on a single lake, an in-process sharded lake and a coordinator, whose
// front door caches like every other catalog while its shard servers cache
// their own answers; partial answers are never stored; on a coordinator a
// hit costs one epoch probe round, and mutations made on a shard server
// behind the coordinator's back, a shard restart, and readers racing a
// writer never get a stale answer served, and a torn answer is never
// stored — and the epoch property all of it keys on: a restarted shard
// never repeats an epoch vector it reported before.
package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/discovery"
	"repro/internal/lake"
	"repro/internal/lru"
	"repro/internal/serve"
	"repro/internal/table"
)

// postRaw sends body to url and returns the status and response bytes.
func postRaw(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// postOK marshals v, posts it to url and requires a 200.
func postOK(t *testing.T, url string, v any) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if status, out := postRaw(t, url, body); status != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", url, status, out)
	}
}

// directBody is the response to the /v1/discover request body computed by
// calling the pipeline directly — what the server must send, byte for
// byte.
func directBody(t *testing.T, p *core.Pipeline, body []byte) []byte {
	t.Helper()
	var req serve.DiscoverRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&req); err != nil {
		t.Fatal(err)
	}
	q, err := req.Query.DecodeTable()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := p.Discover(context.Background(), core.DiscoverRequest{Query: q, QueryColumn: req.QueryColumn, Methods: req.Methods, K: req.K})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Partial() {
		t.Fatalf("direct discovery is partial: %v", resp.ShardErrors)
	}
	out := serve.DiscoverResponse{PerMethod: make(map[string][]serve.DiscoverResult, len(resp.PerMethod))}
	for m, rs := range resp.PerMethod {
		list := make([]serve.DiscoverResult, 0, len(rs))
		for _, r := range rs {
			list = append(list, serve.DiscoverResult{Table: r.Table.Name, Score: r.Score, Method: r.Method, Column: r.Column})
		}
		out.PerMethod[m] = list
	}
	for _, tbl := range resp.IntegrationSet {
		out.IntegrationSet = append(out.IntegrationSet, tbl.Name)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(out); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// cacheMetrics reads a server's answer cache counters over its /metrics
// surface.
func cacheMetrics(t *testing.T, base string) lru.Stats {
	t.Helper()
	resp, err := http.Get(base + "/metrics?format=json&scope=cache")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m lru.Stats
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// renamed copies the first rows rows of src under a new name.
func renamed(src *table.Table, name string, rows int) *table.Table {
	out := table.New(name, src.Columns...)
	out.Rows = append(out.Rows, src.Rows[:rows]...)
	return out
}

// sumCacheMetrics adds the answer cache counters of several servers,
// leaving Bytes out.
func sumCacheMetrics(t *testing.T, bases []string) lru.Stats {
	t.Helper()
	var sum lru.Stats
	for _, base := range bases {
		m := cacheMetrics(t, base)
		sum.Hits += m.Hits
		sum.Misses += m.Misses
		sum.Stale += m.Stale
		sum.Stores += m.Stores
		sum.Evictions += m.Evictions
	}
	return sum
}

// TestAnswerCacheFreshness sends one discover body twice after each of
// Add, Remove and a re-Add of the same name with different contents, on
// every catalog shape the server fronts. Both answers must equal a direct
// Pipeline.Discover on an in-process mirror that took the same mutations:
// the first after a mutation finds an entry whose epoch vector the catalog
// has moved past, and the second is the cache's fresh answer. Over a
// coordinator the front door's counters are a single lake's, so only its
// misses reach the shard servers, which cache their per-shard answers; only
// the shard that owns the mutated name sees its entry go stale.
func TestAnswerCacheFreshness(t *testing.T) {
	pool := diffPool(83, 8)
	opts := lake.Options{Knowledge: difftest.DiffKB()}
	const n = 3
	// Eight requests: the first misses, the first after each mutation is
	// stale, the rest hit.
	whole := lru.Stats{Hits: 4, Misses: 1, Stale: 3, Stores: 4}
	shapes := []struct {
		name string
		// catalog builds the fronted catalog and returns the addresses of
		// its shard servers (none for an in-process catalog).
		catalog func(t *testing.T) (lake.Catalog, []string)
		// front and shards are the answer cache counters of the front door
		// and the sum over the shard servers after the eight requests.
		front, shards lru.Stats
	}{
		{"lake", func(t *testing.T) (lake.Catalog, []string) {
			l, err := lake.New(pool, opts)
			if err != nil {
				t.Fatal(err)
			}
			return l, nil
		}, whole, lru.Stats{}},
		{"sharded", func(t *testing.T) (lake.Catalog, []string) {
			s, err := lake.NewSharded(pool, n, opts)
			if err != nil {
				t.Fatal(err)
			}
			return s, nil
		}, whole, lru.Stats{}},
		// The four front-door misses and stales each reach every shard once;
		// every shard misses first, and only the shard owning the mutated
		// name goes stale.
		{"coordinator", func(t *testing.T) (lake.Catalog, []string) {
			tc := startCluster(t, pool, n)
			t.Cleanup(func() { coordClient(tc.coord) })
			return tc.coord, tc.addrs
		}, whole, lru.Stats{Hits: 4*n - n - 3, Misses: n, Stale: 3, Stores: n + 3}},
	}
	for _, shape := range shapes {
		t.Run(shape.name, func(t *testing.T) {
			catalog, shards := shape.catalog(t)
			front := httptest.NewServer(serve.New(core.FromCatalog(catalog), serve.Config{Timeout: 10 * time.Second}).Handler())
			defer front.Close()
			mirror, err := lake.NewSharded(pool, n, opts)
			if err != nil {
				t.Fatal(err)
			}
			ref := core.FromCatalog(mirror)
			q := pool[0]
			body, err := json.Marshal(serve.DiscoverRequest{Query: serve.EncodeTable(q), Methods: difftest.DiffMethods, K: 5})
			if err != nil {
				t.Fatal(err)
			}
			answer := func(step string) []byte {
				t.Helper()
				want := directBody(t, ref, body)
				for i := range 2 {
					status, got := postRaw(t, front.URL+"/v1/discover", body)
					if status != http.StatusOK || !bytes.Equal(got, want) {
						t.Fatalf("%s, request %d: status %d\n served %s\n direct %s", step, i, status, got, want)
					}
				}
				return want
			}
			add := func(tbl *table.Table) {
				t.Helper()
				postOK(t, front.URL+"/v1/lake/add", serve.LakeAddRequest{Tables: []serve.TableJSON{serve.EncodeTable(tbl)}})
				if err := mirror.Add(tbl); err != nil {
					t.Fatal(err)
				}
			}
			const name = "fresh-x"
			before := answer("before Add")
			add(renamed(q, name, q.NumRows()))
			added := answer("after Add")
			postOK(t, front.URL+"/v1/lake/remove", serve.LakeRemoveRequest{Names: []string{name}})
			if err := mirror.Remove(name); err != nil {
				t.Fatal(err)
			}
			removed := answer("after Remove")
			add(renamed(q, name, 2))
			readded := answer("after re-Add")
			if bytes.Equal(added, before) || !bytes.Equal(removed, before) || bytes.Equal(readded, added) {
				t.Fatal("the mutations did not change the answers as planned; the test checks nothing")
			}
			if got := sumCacheMetrics(t, []string{front.URL}); got != shape.front {
				t.Errorf("front door cache counters = %+v, want %+v", got, shape.front)
			}
			if got := sumCacheMetrics(t, shards); got != shape.shards {
				t.Errorf("shard servers' cache counters = %+v, want %+v", got, shape.shards)
			}
		})
	}
}

// TestAnswerCacheNeverStoresPartial pins that a partial answer — a shard
// down, which only a remote catalog can report — is served but never
// stored: repeating the request while the shard is down misses the
// coordinator's front door and recomputes it, and once the shard is back
// the full answer is served, stored and then served again from the front
// door, the shard servers having cached only their own whole answers.
func TestAnswerCacheNeverStoresPartial(t *testing.T) {
	pool := diffPool(97, 9)
	const n, down = 3, 1
	shards := make([]*killableShard, n)
	addrs := make([]string, n)
	for i := range shards {
		var mine []*table.Table
		for _, tbl := range pool {
			if lake.ShardIndex(tbl.Name, n) == i {
				mine = append(mine, tbl)
			}
		}
		shards[i] = &killableShard{t: t, addr: "127.0.0.1:0", tables: mine}
		shards[i].start()
		addrs[i] = "http://" + shards[i].addr
	}
	defer func() {
		for _, ks := range shards {
			ks.stop()
		}
	}()
	coord, err := cluster.New(cluster.Config{Addrs: addrs, Knowledge: difftest.DiffKB(), ProbeTimeout: time.Second, RetryBackoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer coordClient(coord)
	mirror, err := lake.NewSharded(pool, n, lake.Options{Knowledge: difftest.DiffKB()})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(serve.New(core.FromCatalog(coord), serve.Config{Timeout: 10 * time.Second}).Handler())
	defer front.Close()
	body, err := json.Marshal(serve.DiscoverRequest{Query: serve.EncodeTable(pool[0]), Methods: difftest.DiffMethods, K: 5})
	if err != nil {
		t.Fatal(err)
	}

	shards[down].stop()
	for i := range 2 {
		status, got := postRaw(t, front.URL+"/v1/discover", body)
		var wire serve.DiscoverResponse
		if err := json.Unmarshal(got, &wire); err != nil || status != http.StatusOK || !wire.Partial {
			t.Fatalf("request %d with shard %d down: status %d, partial %v (%v): %s", i, down, status, wire.Partial, err, got)
		}
	}
	if m := cacheMetrics(t, front.URL); m != (lru.Stats{Misses: 2}) {
		t.Fatalf("after two partial answers the front door's cache counters are %+v, want two misses and no store", m)
	}

	shards[down].start()
	want := directBody(t, core.FromCatalog(mirror), body)
	for i := range 2 {
		if status, got := postRaw(t, front.URL+"/v1/discover", body); status != http.StatusOK || !bytes.Equal(got, want) {
			t.Fatalf("request %d after the shard came back: status %d\n served %s\n want %s", i, status, got, want)
		}
	}
	if m := cacheMetrics(t, front.URL); m.Hits != 1 || m.Misses != 3 || m.Stale != 0 || m.Stores != 1 {
		t.Fatalf("after the shard came back the front door's cache counters are %+v, want three misses, one store and one hit", m)
	}
	if m := cacheMetrics(t, addrs[down]); m.Stores != 1 || m.Hits != 0 {
		t.Fatalf("the restarted shard's cache counters are %+v, want one store and no hit", m)
	}
}

// shardEpoch samples one shard server's own epoch counter.
func shardEpoch(t *testing.T, base string) uint64 {
	t.Helper()
	resp, err := http.Get(base + "/v1/lake/epoch")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ep serve.EpochResponse
	if err := json.NewDecoder(resp.Body).Decode(&ep); err != nil || len(ep.Epochs) != 1 {
		t.Fatalf("epoch sample: %+v, %v", ep, err)
	}
	return ep.Epochs[0]
}

// TestRestartedShardEpochVectorNeverRepeats provokes the epoch repeat an
// epoch-keyed cache cannot survive: a persisted shard restarts from a
// snapshot, so WAL replay does not bring its counter back to where it was,
// and then takes mutations that do not pass the coordinator until its
// counter is back at the value it reported before the restart — now over
// different tables. The coordinator's epoch vector must differ from the
// one sampled before the restart.
func TestRestartedShardEpochVectorNeverRepeats(t *testing.T) {
	pool := diffPool(91, 6)
	const n, victim = 2, 0
	shards := make([]*killableShard, n)
	addrs := make([]string, n)
	for i := range shards {
		var mine []*table.Table
		for _, tbl := range pool {
			if lake.ShardIndex(tbl.Name, n) == i {
				mine = append(mine, tbl)
			}
		}
		shards[i] = &killableShard{t: t, addr: "127.0.0.1:0", tables: mine, dir: t.TempDir()}
		shards[i].start()
		addrs[i] = "http://" + shards[i].addr
	}
	defer func() {
		for _, ks := range shards {
			ks.stop()
		}
	}()
	coord, err := cluster.New(cluster.Config{Addrs: addrs, Knowledge: difftest.DiffKB(), ProbeTimeout: time.Second, RetryBackoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer coordClient(coord)

	rng := rand.New(rand.NewSource(5))
	routed := difftest.DiffTable(rng, nameForShard("routed", victim, n))
	if err := coord.Add(routed); err != nil {
		t.Fatal(err)
	}
	if err := coord.Remove(routed.Name); err != nil {
		t.Fatal(err)
	}
	if err := shards[victim].store.Snapshot(); err != nil {
		t.Fatal(err)
	}
	before := coord.Epochs()

	shards[victim].stop()
	shards[victim].start()
	base := addrs[victim]
	old := before[1+victim]
	for i := 0; i < 8 && shardEpoch(t, base) < old; i++ {
		direct := difftest.DiffTable(rng, nameForShard(fmt.Sprintf("direct%d-", i), victim, n))
		postOK(t, base+"/v1/lake/add", serve.LakeAddRequest{Tables: []serve.TableJSON{serve.EncodeTable(direct)}})
	}
	if after := coord.Epochs(); slices.Equal(before, after) {
		t.Fatalf("shard %d restarted, took different tables, and the coordinator epoch vector %v repeats the one from before the restart", victim, after)
	}
}

// frontDoor serves a coordinator the way `dialite serve -coordinator` does,
// and returns the base URL of that front door.
func frontDoor(t *testing.T, c *cluster.Coordinator) string {
	t.Helper()
	front := httptest.NewServer(serve.New(core.FromCatalog(c), serve.Config{Timeout: 10 * time.Second}).Handler())
	t.Cleanup(front.Close)
	return front.URL
}

// discoverBody is the /v1/discover request body for the differential
// methods' top 5 on q's first column.
func discoverBody(t *testing.T, q *table.Table) []byte {
	t.Helper()
	body, err := json.Marshal(serve.DiscoverRequest{Query: serve.EncodeTable(q), Methods: difftest.DiffMethods, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// requireAnswer posts body to the front door and requires the bytes a
// direct Pipeline.Discover over the mirror answers, which it returns.
func requireAnswer(t *testing.T, front string, mirror *lake.Sharded, body []byte, step string) []byte {
	t.Helper()
	want := directBody(t, core.FromCatalog(mirror), body)
	if status, got := postRaw(t, front+"/v1/discover", body); status != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("%s: status %d\n served %s\n mirror %s", step, status, got, want)
	}
	return want
}

// addBehind adds tbl on the shard server at base, behind the coordinator's
// back, and to the mirror; removeBehind removes name the same way.
func addBehind(t *testing.T, base string, mirror *lake.Sharded, tbl *table.Table) {
	t.Helper()
	postOK(t, base+"/v1/lake/add", serve.LakeAddRequest{Tables: []serve.TableJSON{serve.EncodeTable(tbl)}})
	if err := mirror.Add(tbl); err != nil {
		t.Fatal(err)
	}
}

func removeBehind(t *testing.T, base string, mirror *lake.Sharded, name string) {
	t.Helper()
	postOK(t, base+"/v1/lake/remove", serve.LakeRemoveRequest{Names: []string{name}})
	if err := mirror.Remove(name); err != nil {
		t.Fatal(err)
	}
}

// shardCalls sums the coordinator's calls to its shards.
func shardCalls(c *cluster.Coordinator) uint64 {
	var n uint64
	for _, m := range c.ShardMetrics() {
		n += m.Calls
	}
	return n
}

// meteredRequests sums, per endpoint, the requests the servers at bases
// admitted. The epoch probe bypasses metering, so it is the one shard call
// this leaves out.
func meteredRequests(t *testing.T, bases []string) map[string]uint64 {
	t.Helper()
	out := map[string]uint64{}
	for _, base := range bases {
		resp, err := http.Get(base + "/metrics?format=json")
		if err != nil {
			t.Fatal(err)
		}
		var ms []serve.EndpointMetrics
		err = json.NewDecoder(resp.Body).Decode(&ms)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			out[m.Endpoint] += m.Admitted
		}
	}
	return out
}

// TestAnswerCacheHitIsOneProbeRound pins what a repeated /v1/discover costs
// at a coordinator's front door: the bytes of the first answer, for exactly
// one call per shard, each an epoch probe — no shard /v1/discover and no
// table fetch.
func TestAnswerCacheHitIsOneProbeRound(t *testing.T) {
	pool := diffPool(61, 9)
	const n = 3
	tc := startCluster(t, pool, n)
	defer coordClient(tc.coord)
	front := frontDoor(t, tc.coord)
	body := discoverBody(t, pool[0])
	status, warm := postRaw(t, front+"/v1/discover", body)
	if status != http.StatusOK {
		t.Fatalf("warm request: status %d: %s", status, warm)
	}
	calls, metered := shardCalls(tc.coord), meteredRequests(t, tc.addrs)
	if status, got := postRaw(t, front+"/v1/discover", body); status != http.StatusOK || !bytes.Equal(got, warm) {
		t.Fatalf("repeat: status %d\n served %s\n first %s", status, got, warm)
	}
	if got := shardCalls(tc.coord) - calls; got != n {
		t.Errorf("a repeated request made %d shard calls, want %d epoch probes", got, n)
	}
	if got := meteredRequests(t, tc.addrs); !maps.Equal(got, metered) {
		t.Errorf("a repeated request reached the shards' endpoints: admitted %v, before it %v", got, metered)
	}
	if m := cacheMetrics(t, front); m.Hits != 1 || m.Misses != 1 || m.Stores != 1 {
		t.Errorf("front door cache counters = %+v, want one miss, one store and one hit", m)
	}
}

// TestAnswerCacheDirectShardMutation adds a table on one shard server
// directly, where the coordinator's own counter never sees it, and later
// removes it. After each step the front door must answer what an
// in-process mirror that took the same steps answers, though it holds an
// entry for the body from before the step.
func TestAnswerCacheDirectShardMutation(t *testing.T) {
	pool := diffPool(67, 9)
	const n, owner = 3, 1
	tc := startCluster(t, pool, n)
	defer coordClient(tc.coord)
	front := frontDoor(t, tc.coord)
	mirror, err := lake.NewSharded(pool, n, lake.Options{Knowledge: difftest.DiffKB()})
	if err != nil {
		t.Fatal(err)
	}
	q := pool[0]
	body := discoverBody(t, q)
	before := requireAnswer(t, front, mirror, body, "before")
	requireAnswer(t, front, mirror, body, "repeat")
	name := nameForShard("behind", owner, n)
	addBehind(t, tc.addrs[owner], mirror, renamed(q, name, q.NumRows()))
	added := requireAnswer(t, front, mirror, body, "after a direct Add")
	requireAnswer(t, front, mirror, body, "repeat after a direct Add")
	removeBehind(t, tc.addrs[owner], mirror, name)
	removed := requireAnswer(t, front, mirror, body, "after a direct Remove")
	if bytes.Equal(added, before) || !bytes.Equal(removed, before) {
		t.Fatal("the direct mutations did not change the answers as planned; the test checks nothing")
	}
	if m := cacheMetrics(t, front); m.Hits != 2 || m.Stale != 2 {
		t.Errorf("front door cache counters = %+v, want two hits and two stale", m)
	}
}

// TestAnswerCacheRestartedShard moves a persisted shard's counter with a
// routed Add and Remove, snapshots it and warms the front door. It then
// restarts the shard, so WAL replay does not bring the counter back, and
// adds tables on it directly — first one that changes the answer, then more
// until the counter is back at the value it reported before the restart,
// the repeat an epoch-keyed cache cannot survive. The coordinator's own
// counter never moves after the warm-up, and the front door must never
// serve the entry it stored before the restart.
func TestAnswerCacheRestartedShard(t *testing.T) {
	pool := diffPool(71, 6)
	const n, victim = 2, 0
	shards := make([]*killableShard, n)
	addrs := make([]string, n)
	for i := range shards {
		var mine []*table.Table
		for _, tbl := range pool {
			if lake.ShardIndex(tbl.Name, n) == i {
				mine = append(mine, tbl)
			}
		}
		shards[i] = &killableShard{t: t, addr: "127.0.0.1:0", tables: mine, dir: t.TempDir()}
		shards[i].start()
		addrs[i] = "http://" + shards[i].addr
	}
	defer func() {
		for _, ks := range shards {
			ks.stop()
		}
	}()
	coord, err := cluster.New(cluster.Config{Addrs: addrs, Knowledge: difftest.DiffKB(), ProbeTimeout: time.Second, RetryBackoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer coordClient(coord)
	front := frontDoor(t, coord)
	mirror, err := lake.NewSharded(pool, n, lake.Options{Knowledge: difftest.DiffKB()})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	routed := difftest.DiffTable(rng, nameForShard("routed", victim, n))
	if err := coord.Add(routed); err != nil {
		t.Fatal(err)
	}
	if err := coord.Remove(routed.Name); err != nil {
		t.Fatal(err)
	}
	if err := shards[victim].store.Snapshot(); err != nil {
		t.Fatal(err)
	}
	q := pool[0]
	body := discoverBody(t, q)
	before := requireAnswer(t, front, mirror, body, "before the restart")
	requireAnswer(t, front, mirror, body, "repeat before the restart")
	old := shardEpoch(t, addrs[victim])

	shards[victim].stop()
	shards[victim].start()
	addBehind(t, addrs[victim], mirror, renamed(q, nameForShard("restarted", victim, n), q.NumRows()))
	for i := 0; i < 8 && shardEpoch(t, addrs[victim]) < old; i++ {
		addBehind(t, addrs[victim], mirror, difftest.DiffTable(rng, nameForShard(fmt.Sprintf("direct%d-", i), victim, n)))
	}
	if after := requireAnswer(t, front, mirror, body, "after the restart and direct Adds"); bytes.Equal(after, before) {
		t.Fatal("the direct Adds did not change the answer; the test checks nothing")
	}
	if m := cacheMetrics(t, front); m.Hits != 1 || m.Stale != 1 {
		t.Errorf("front door cache counters = %+v, want the warm hit and one stale", m)
	}
}

// TestAnswerCacheReadersAndWriter runs two readers repeating one query
// through the front door while a writer adds and removes one table directly
// on its owning shard server. Readers may straddle a mutation; after every
// ack the writer's own read must equal an in-process mirror's. Run it under
// -race.
func TestAnswerCacheReadersAndWriter(t *testing.T) {
	pool := diffPool(73, 8)
	const n, owner = 3, 2
	tc := startCluster(t, pool, n)
	defer coordClient(tc.coord)
	front := frontDoor(t, tc.coord)
	mirror, err := lake.NewSharded(pool, n, lake.Options{Knowledge: difftest.DiffKB()})
	if err != nil {
		t.Fatal(err)
	}
	q := pool[0]
	body := discoverBody(t, q)
	name := nameForShard("churn", owner, n)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				resp, err := http.Post(front+"/v1/discover", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				_, err = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("reader: status %d, %v", resp.StatusCode, err)
					return
				}
			}
		}()
	}
	defer func() {
		stop.Store(true)
		wg.Wait()
	}()
	prev := requireAnswer(t, front, mirror, body, "before the writer")
	for i := range 12 {
		if i%2 == 0 {
			addBehind(t, tc.addrs[owner], mirror, renamed(q, name, q.NumRows()-i/2%3))
		} else {
			removeBehind(t, tc.addrs[owner], mirror, name)
		}
		got := requireAnswer(t, front, mirror, body, fmt.Sprintf("after mutation %d", i))
		if bytes.Equal(got, prev) {
			t.Fatalf("mutation %d did not change the answer; the test checks nothing", i)
		}
		prev = got
	}
}

// churner adds and removes a table on its shard's live lake at every call,
// so the shard's epoch moves inside every fan-out attempt that reaches it.
// The front door's copy has no lake: a coordinator only sends its name.
type churner struct {
	live  *lake.Lake
	calls *atomic.Int64
}

func (churner) Name() string { return "churning" }

func (d churner) Discover(ctx context.Context, l *lake.Lake, q *table.Table, queryCol, k int) ([]discovery.Result, error) {
	tmp := table.New(fmt.Sprintf("churn%d", d.calls.Add(1)), "City")
	tmp.MustAddRow(table.StringValue("Berlin"))
	if err := d.live.Add(tmp); err != nil {
		return nil, err
	}
	return nil, d.live.Remove(tmp.Name)
}

// TestAnswerCacheNeverStoresTorn pins the one answer that holds under no
// epoch vector: a coordinator's whose final attempt was torn. Every shard
// server runs a churner, so the shard vectors move inside both attempts of
// every run. The run answers 200 with no vector, and the front door serves
// that answer without storing it, so the repeat recomputes.
func TestAnswerCacheNeverStoresTorn(t *testing.T) {
	pool := diffPool(73, 6)
	const n = 2
	calls := &atomic.Int64{}
	addrs := make([]string, n)
	for i := range addrs {
		var mine []*table.Table
		for _, tbl := range pool {
			if lake.ShardIndex(tbl.Name, n) == i {
				mine = append(mine, tbl)
			}
		}
		l, err := lake.New(mine, lake.Options{Knowledge: difftest.DiffKB()})
		if err != nil {
			t.Fatal(err)
		}
		p := core.FromLake(l)
		if err := p.Discoverers().Register(churner{live: l, calls: calls}); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(serve.New(p, serve.Config{Timeout: 10 * time.Second}).Handler())
		t.Cleanup(ts.Close)
		addrs[i] = ts.URL
	}
	coord, err := cluster.New(cluster.Config{Addrs: addrs, Knowledge: difftest.DiffKB(), RetryBackoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer coordClient(coord)
	p := core.FromCatalog(coord)
	if err := p.Discoverers().Register(churner{}); err != nil {
		t.Fatal(err)
	}
	resp, err := p.Discover(context.Background(), core.DiscoverRequest{Query: pool[0], Methods: []string{"churning"}})
	if err != nil || resp.Partial() || resp.Epochs != nil {
		t.Fatalf("a run torn on both attempts: epochs %v, partial %v, err %v; want a whole answer with no epochs", resp.Epochs, resp != nil && resp.Partial(), err)
	}
	if got := calls.Load(); got != 2*n {
		t.Fatalf("the churners ran %d times, want %d (two attempts on every shard)", got, 2*n)
	}
	front := httptest.NewServer(serve.New(p, serve.Config{Timeout: 10 * time.Second}).Handler())
	defer front.Close()
	body, err := json.Marshal(serve.DiscoverRequest{Query: serve.EncodeTable(pool[0]), Methods: []string{"churning"}})
	if err != nil {
		t.Fatal(err)
	}
	for i := range 2 {
		if status, out := postRaw(t, front.URL+"/v1/discover", body); status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, status, out)
		}
	}
	if m := cacheMetrics(t, front.URL); m != (lru.Stats{Misses: 2}) {
		t.Fatalf("after two torn answers the front door's cache counters are %+v, want two misses and no store", m)
	}
	if got := calls.Load(); got != 3*2*n {
		t.Fatalf("the churners ran %d times, want %d (every request recomputed)", got, 3*2*n)
	}
}
