// degrade_test drives the kill-one-shard-mid-traffic acceptance scenario:
// concurrent readers and writers against the coordinator while one shard
// server dies, then comes back at the same address. Reads must degrade to
// explicit partials (never hang, never silently full), mutations to the
// dead shard must refuse fast with 503, the fan-out goroutines must all
// settle (checked under -race), and the restart must restore full answers
// with no coordinator restart.
package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/discovery"
	"repro/internal/lake"
	"repro/internal/persist"
	"repro/internal/serve"
	"repro/internal/table"
	"repro/internal/testutil"
)

// killableShard is one shard server on a fixed address with an explicit
// lifecycle: stop() tears the listener and server down, start() brings a
// fresh server up on the same address over the same tables. With dir set
// the shard is persisted there, like `dialite serve -persist`: the first
// start creates the store over tables, stop() syncs and closes it, and
// every later start recovers the lake from it.
type killableShard struct {
	t       *testing.T
	addr    string
	tables  []*table.Table
	dir     string
	store   *persist.Store // the running incarnation's store when dir is set
	cancel  context.CancelFunc
	done    chan error
	stopped bool
}

func (ks *killableShard) start() {
	ks.t.Helper()
	var l *lake.Lake
	var err error
	ks.store = nil
	if ks.dir != "" && persist.Exists(ks.dir, persist.Options{}) {
		ks.store, err = persist.Open(ks.dir, persist.Options{})
	} else if l, err = lake.New(ks.tables, lake.Options{Knowledge: difftest.DiffKB()}); err == nil && ks.dir != "" {
		ks.store, err = persist.Create(ks.dir, l, persist.Options{})
	}
	if err != nil {
		ks.t.Fatal(err)
	}
	if ks.store != nil {
		l = ks.store.Lake()
	}
	s := serve.NewWarming(serve.Config{Timeout: 10 * time.Second})
	s.Attach(core.FromLake(l), ks.store)
	var ln net.Listener
	// The previous incarnation's listener may take a moment to release the
	// port even after Serve returned.
	for attempt := 0; ; attempt++ {
		ln, err = net.Listen("tcp", ks.addr)
		if err == nil {
			break
		}
		if attempt > 100 {
			ks.t.Fatalf("rebinding %s: %v", ks.addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	ks.addr = ln.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	ks.cancel = cancel
	ks.stopped = false
	ks.done = make(chan error, 1)
	go func() { ks.done <- s.Serve(ctx, ln) }()
	waitShardReady(ks.t, "http://"+ks.addr)
}

func (ks *killableShard) stop() {
	ks.t.Helper()
	if ks.stopped {
		return
	}
	ks.stopped = true
	ks.cancel()
	select {
	case err := <-ks.done:
		if err != nil {
			ks.t.Fatalf("shard %s exited: %v", ks.addr, err)
		}
	case <-time.After(10 * time.Second):
		ks.t.Fatalf("shard %s did not shut down", ks.addr)
	}
}

func waitShardReady(t testing.TB, base string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/lake/epoch")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("shard %s never became ready", base)
}

func TestClusterShardDeathAndRecoveryMidTraffic(t *testing.T) {
	baseline := runtime.NumGoroutine()
	pool := diffPool(55, 9)
	const n = 3
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
	coord, err := cluster.New(cluster.Config{
		Addrs:        addrs,
		Knowledge:    difftest.DiffKB(),
		CallTimeout:  10 * time.Second,
		ProbeTimeout: time.Second,
		RetryBackoff: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	mirror, err := lake.NewSharded(pool, n, lake.Options{Knowledge: difftest.DiffKB()})
	if err != nil {
		t.Fatal(err)
	}
	reg := discovery.NewRegistry()
	fullSig := func(q *table.Table) string { return difftest.DiscoverySig(reg, coord, q, 0, 5) }
	wantSig := difftest.DiscoverySig(reg, mirror, pool[0], 0, 5)
	if got := fullSig(pool[0]); got != wantSig {
		t.Fatalf("pre-kill answers diverge\n got:\n%s\nwant:\n%s", got, wantSig)
	}

	// Concurrent traffic: readers fan discovery out, a writer churns a
	// table on a healthy shard. All of it must keep completing (full or
	// partial, never hung) while shard 1 dies and recovers.
	const down = 1
	trafficCtx, stopTraffic := context.WithCancel(context.Background())
	var (
		wg           sync.WaitGroup
		partialSeen  atomic.Int64
		readFailures atomic.Int64
	)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; trafficCtx.Err() == nil; i++ {
				q := pool[(w+i)%len(pool)]
				_, _, serrs, err := discovery.Discover(trafficCtx, reg, coord, q, 0, 5, difftest.DiffMethods)
				switch {
				case err != nil && trafficCtx.Err() == nil:
					readFailures.Add(1)
				case len(serrs) > 0:
					partialSeen.Add(1)
				}
			}
		}(w)
	}
	healthy := (down + 1) % n
	churn := difftest.DiffTable(rand.New(rand.NewSource(77)), nameForShard("churn", healthy, n))
	wg.Add(1)
	go func() {
		defer wg.Done()
		for trafficCtx.Err() == nil {
			if err := coord.Add(churn); err != nil {
				continue // racing its own remove, or mid-kill probe refusal
			}
			_ = coord.Remove(churn.Name)
		}
	}()

	time.Sleep(50 * time.Millisecond) // let traffic establish
	shards[down].stop()

	// Reads degrade to explicit partials while the shard is gone.
	settle := time.Now().Add(10 * time.Second)
	for partialSeen.Load() == 0 && time.Now().Before(settle) {
		time.Sleep(10 * time.Millisecond)
	}
	if partialSeen.Load() == 0 {
		t.Fatal("no partial reads observed while a shard was down")
	}
	// Mutations to the dead shard refuse fast with a 503-coded error.
	victim := difftest.DiffTable(rand.New(rand.NewSource(78)), nameForShard("victim", down, n))
	start := time.Now()
	err = coord.Add(victim)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Add routed to the dead shard succeeded")
	}
	var coded interface{ HTTPStatus() int }
	if !errors.As(err, &coded) || coded.HTTPStatus() != http.StatusServiceUnavailable {
		t.Fatalf("dead-shard Add error = %v, want 503-coded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("dead-shard Add took %s, want a fast refusal", elapsed)
	}

	// Restart the shard at the same address: full answers come back with
	// no coordinator restart (the next epoch sample sees it live).
	shards[down].start()
	stopTraffic()
	wg.Wait()
	// The churn table may have been mid-toggle when traffic stopped; settle
	// the catalog back to the mirror's contents before comparing.
	if err := coord.Remove(churn.Name); err != nil && !strings.Contains(err.Error(), "no table") {
		t.Fatalf("removing churn table: %v", err)
	}
	var got string
	recovered := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if got = fullSig(pool[0]); got == wantSig {
			recovered = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !recovered {
		t.Fatalf("answers did not recover after shard restart\n got:\n%s\nwant:\n%s", got, wantSig)
	}
	if rf := readFailures.Load(); rf > 0 {
		// Reads racing the exact kill window may fail hard only if their
		// error does not match the unavailable contract; that would be a
		// degradation bug.
		t.Fatalf("%d concurrent reads failed hard instead of degrading to partial", rf)
	}
	// Everything the fan-out and the shard servers spawned must be gone
	// (run under -race in CI). Stop the shards and drop idle keep-alive
	// conns first — both legitimately hold goroutines while running.
	for _, ks := range shards {
		ks.stop()
	}
	coordClient(coord)
	testutil.WaitGoroutinesSettle(t, baseline)
}

// coordClient shuts the coordinator's pooled transport down so its idle
// connections stop holding goroutines.
func coordClient(c *cluster.Coordinator) {
	http.DefaultClient.CloseIdleConnections()
	c.CloseIdleConnections()
}

// TestClusterRestartWithoutTraffic is the minimal lifecycle check the big
// test above subsumes, kept separate for fast failure triage: kill, verify
// partial + sentinel stability, restart, verify full.
func TestClusterRestartWithoutTraffic(t *testing.T) {
	pool := diffPool(66, 6)
	const n = 2
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
	reg := discovery.NewRegistry()
	want := difftest.DiscoverySig(reg, coord, pool[0], 0, 0)
	if strings.HasPrefix(want, "err:") {
		t.Fatalf("all-up signature errored: %s", want)
	}
	shards[0].stop()
	partial := difftest.DiscoverySig(reg, coord, pool[0], 0, 0)
	if !strings.Contains(partial, "partial run") {
		t.Fatalf("down-shard signature = %q, want an explicit partial marker", partial)
	}
	shards[0].start()
	deadline := time.Now().Add(10 * time.Second)
	var got string
	for time.Now().Before(deadline) {
		if got = difftest.DiscoverySig(reg, coord, pool[0], 0, 0); got == want {
			coordClient(coord)
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("restart did not restore answers\n got:\n%s\nwant:\n%s", got, want)
}

// TestCoordinatorTableLookupSurfacesDownShard pins the typed-error path for
// by-name table reads: with a shard down, POST /v1/integrate {"names":[…]},
// GET /v1/lake/table and POST /v1/lake/tables for a table that shard owns
// answer the shard's 503 + Retry-After — a down shard is never reported as
// "no table … in lake" or as a `missing` name. Names owned by live shards
// keep answering, a name no shard holds is still the caller's 400/404 (or,
// for the batch fetch, a `missing` entry), and the batch fetch costs one
// shard call per involved shard, not one per name.
func TestCoordinatorTableLookupSurfacesDownShard(t *testing.T) {
	pool := diffPool(31, 8)
	const n, down = 2, 0
	tc := startCluster(t, pool, n)
	var dead, live string
	for _, tbl := range pool {
		if lake.ShardIndex(tbl.Name, n) == down {
			dead = tbl.Name
		} else {
			live = tbl.Name
		}
	}
	if dead == "" || live == "" {
		t.Fatal("pool does not cover both shards")
	}
	tc.shards[down].Close()
	defer coordClient(tc.coord)

	// Catalog level: the fetch carries the typed shard error.
	_, err := tc.coord.FetchTables(context.Background(), []string{live, dead})
	var serr *cluster.ShardError
	if !errors.As(err, &serr) || serr.Shard != down || serr.HTTPStatus() != http.StatusServiceUnavailable {
		t.Fatalf("FetchTables over a down shard = %v, want shard %d's 503-coded *ShardError", err, down)
	}
	if got, err := tc.coord.FetchTables(context.Background(), []string{live, nameForShard("ghost", 1-down, n)}); err != nil || len(got) != 1 || got[live] == nil {
		t.Fatalf("FetchTables on the live shard = (%v, %v), want just %q", got, err, live)
	}

	front := httptest.NewServer(serve.New(core.FromCatalog(tc.coord), serve.Config{Timeout: 10 * time.Second}).Handler())
	defer front.Close()
	integrate := func(name string) *http.Response {
		body, _ := json.Marshal(serve.IntegrateRequest{Names: []string{name}})
		resp, err := http.Post(front.URL+"/v1/integrate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	lookup := func(name string) *http.Response {
		resp, err := http.Get(front.URL + "/v1/lake/table?name=" + name)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	batch := func(names ...string) *http.Response {
		body, _ := json.Marshal(serve.LakeTablesRequest{Names: names})
		resp, err := http.Post(front.URL+"/v1/lake/tables", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	ghost := nameForShard("ghost", 1-down, n)

	// One batch over the live shard: present names come back, absent ones
	// are `missing`, and the shard saw one call for the three names.
	live2 := nameForShard("ghost2", 1-down, n)
	calls := tc.coord.ShardMetrics()[1-down].Calls
	resp := batch(live, ghost, live2)
	var fetched serve.LakeTablesResponse
	if err := json.NewDecoder(resp.Body).Decode(&fetched); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("batch fetch on the live shard: status %d, decode %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	if len(fetched.Tables) != 1 || fetched.Tables[0].Name != live || !reflect.DeepEqual(fetched.Missing, []string{ghost, live2}) {
		t.Errorf("batch fetch = %d tables, missing %v; want [%s] and missing [%s %s]", len(fetched.Tables), fetched.Missing, live, ghost, live2)
	}
	if got := tc.coord.ShardMetrics()[1-down].Calls - calls; got != 1 {
		t.Errorf("a 3-name batch made %d calls to its one shard, want 1", got)
	}

	for _, c := range []struct {
		what       string
		resp       *http.Response
		status     int
		retryAfter bool
	}{
		{"integrate by name on the down shard", integrate(dead), http.StatusServiceUnavailable, true},
		{"table lookup on the down shard", lookup(dead), http.StatusServiceUnavailable, true},
		{"integrate by name on a live shard", integrate(live), http.StatusOK, false},
		{"table lookup on a live shard", lookup(live), http.StatusOK, false},
		{"integrate an unknown name", integrate(ghost), http.StatusBadRequest, false},
		{"look an unknown name up", lookup(ghost), http.StatusNotFound, false},
		{"batch fetch touching the down shard", batch(live, dead), http.StatusServiceUnavailable, true},
	} {
		var eb serve.ErrorBody
		_ = json.NewDecoder(c.resp.Body).Decode(&eb)
		c.resp.Body.Close()
		if c.resp.StatusCode != c.status {
			t.Errorf("%s: status %d (%s), want %d", c.what, c.resp.StatusCode, eb.Error, c.status)
		}
		if got := c.resp.Header.Get("Retry-After") != ""; got != c.retryAfter {
			t.Errorf("%s: Retry-After present = %v, want %v", c.what, got, c.retryAfter)
		}
		if c.status == http.StatusServiceUnavailable && strings.Contains(eb.Error, "no table") {
			t.Errorf("%s: a down shard was reported as a missing table: %q", c.what, eb.Error)
		}
	}
}

// TestCoordinatorBootsWithShardsDown pins New's contract that the
// coordinator starts degraded rather than failing: constructed while no
// shard is listening, it serves /healthz as "degraded" and discovery as
// 503 + Retry-After, then — once the shards come up, with no coordinator
// restart — answers discovery byte-identically to an in-process
// lake.Sharded over the same tables.
func TestCoordinatorBootsWithShardsDown(t *testing.T) {
	pool := diffPool(44, 6)
	const n = 3
	shards := make([]*killableShard, n)
	addrs := make([]string, n)
	for i := range shards {
		var mine []*table.Table
		for _, tbl := range pool {
			if lake.ShardIndex(tbl.Name, n) == i {
				mine = append(mine, tbl)
			}
		}
		shards[i] = &killableShard{t: t, addr: testutil.FreeLocalAddr(t), tables: mine, stopped: true}
		addrs[i] = "http://" + shards[i].addr
	}
	defer func() {
		for _, ks := range shards {
			ks.stop()
		}
	}()
	coord, err := cluster.New(cluster.Config{Addrs: addrs, Knowledge: difftest.DiffKB(), ProbeTimeout: time.Second, RetryBackoff: 5 * time.Millisecond})
	if err != nil {
		t.Fatalf("New with every shard down: %v", err)
	}
	defer coordClient(coord)
	mirror, err := lake.NewSharded(pool, n, lake.Options{Knowledge: difftest.DiffKB()})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(serve.New(core.FromCatalog(coord), serve.Config{Timeout: 10 * time.Second}).Handler())
	defer front.Close()
	mirrorFront := httptest.NewServer(serve.New(core.FromCatalog(mirror), serve.Config{Timeout: 10 * time.Second}).Handler())
	defer mirrorFront.Close()
	discover := func(base string) (int, string, []byte) {
		body, _ := json.Marshal(serve.DiscoverRequest{Query: serve.EncodeTable(pool[0]), QueryColumn: 0, Methods: difftest.DiffMethods, K: 5})
		resp, err := http.Post(base+"/v1/discover", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header.Get("Retry-After"), out
	}

	resp, err := http.Get(front.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h serve.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.Status != "degraded" || len(h.Shards) != n {
		t.Fatalf("healthz with every shard down = %+v, want degraded over %d shards", h, n)
	}
	if status, retry, body := discover(front.URL); status != http.StatusServiceUnavailable || retry == "" {
		t.Fatalf("discover with every shard down = %d (Retry-After %q): %s; want 503 + Retry-After", status, retry, body)
	}

	for _, ks := range shards {
		ks.start()
	}
	reg := discovery.NewRegistry()
	if got, want := difftest.DiscoverySig(reg, coord, pool[0], 0, 5), difftest.DiscoverySig(reg, mirror, pool[0], 0, 5); got != want {
		t.Fatalf("after the shards came up, coordinator diverged from in-process sharded\n got:\n%s\nwant:\n%s", got, want)
	}
	status, _, got := discover(front.URL)
	_, _, want := discover(mirrorFront.URL)
	if status != http.StatusOK || !bytes.Equal(got, want) {
		t.Fatalf("/v1/discover after the shards came up = %d\n%s\nwant the in-process sharded body\n%s", status, got, want)
	}
}
