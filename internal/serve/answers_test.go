package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/lake"
	"repro/internal/paperdata"
	"repro/internal/table"
)

// postBody sends a raw body and returns the status and response bytes.
func postBody(t *testing.T, url string, body []byte) (int, []byte) {
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

// TestAnswerCacheStoresNothingWrong sends each request twice and requires
// that nothing but a whole 200 answer is stored: caller errors and a
// contained discoverer panic (500) are each recomputed on the repeat. A
// clean answer is then stored and served once, and the /metrics text
// carries the counters. A torn answer, which only a coordinator returns, is
// pinned by cluster's TestAnswerCacheNeverStoresTorn.
func TestAnswerCacheStoresNothingWrong(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if err := s.p().Discoverers().Register(discovery.SimilarityFunc{FuncName: "bad-hook", Sim: func(query, candidate *table.Table) float64 { panic("user hook exploded") }}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		what   string
		body   []byte
		status int
	}{
		{"unknown method", discoverBody(t, "no-such-method"), http.StatusBadRequest},
		{"query column out of range", []byte(`{"query":{"name":"q","columns":["a"],"rows":[["x"]]},"queryColumn":3}`), http.StatusBadRequest},
		{"panicking discoverer", discoverBody(t, "lsh-join", "bad-hook"), http.StatusInternalServerError},
	} {
		for i := range 2 {
			if status, out := postBody(t, ts.URL+"/v1/discover", c.body); status != c.status {
				t.Fatalf("%s, request %d: status %d, want %d: %s", c.what, i, status, c.status, out)
			}
		}
		if m := s.answerCacheMetrics(); m.Stores != 0 || m.Hits != 0 {
			t.Fatalf("after %s the cache counters are %+v, want nothing stored or served", c.what, m)
		}
	}
	body := discoverBody(t, "lsh-join")
	_, first := postBody(t, ts.URL+"/v1/discover", body)
	_, second := postBody(t, ts.URL+"/v1/discover", body)
	if !bytes.Equal(first, second) {
		t.Fatalf("the cached answer differs from the computed one:\n%s\n%s", second, first)
	}
	m := s.answerCacheMetrics()
	if m.Stores != 1 || m.Hits != 1 || m.Stale != 0 || m.Misses != 7 || m.Bytes != int64(len(body)+len(first)) {
		t.Fatalf("cache counters = %+v, want 1 store, 1 hit, 9 misses, %d bytes", m, len(body)+len(first))
	}
	_, text := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		"# TYPE dialite_answer_cache_hits_total counter\ndialite_answer_cache_hits_total 1\n",
		"dialite_answer_cache_misses_total 7\n",
		"dialite_answer_cache_stale_total 0\n",
		"dialite_answer_cache_stores_total 1\n",
		"dialite_answer_cache_evictions_total 0\n",
		fmt.Sprintf("# TYPE dialite_answer_cache_bytes gauge\ndialite_answer_cache_bytes %d\n", m.Bytes),
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
}

func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
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

// TestAnswerCacheConcurrentWithMutation has two readers repeat one body
// while a writer adds and removes tables the query finds. After each
// acknowledged mutation the writer's own request must be answered exactly
// as a direct Pipeline.Discover answers now, whatever the readers stored
// around the mutation. CI runs this package under -race.
func TestAnswerCacheConcurrentWithMutation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	body := discoverBody(t, "santos-union", "lsh-join", "josie-join")
	direct := func() []byte {
		resp, err := s.p().Discover(context.Background(), core.DiscoverRequest{Query: paperdata.T1(), QueryColumn: 1, Methods: []string{"santos-union", "lsh-join", "josie-join"}})
		if err != nil {
			t.Fatal(err)
		}
		raw, err := encodeJSON(encodeDiscoverResponse(resp))
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Post(ts.URL+"/v1/discover", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("reader: status %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	for i := range 12 {
		name := fmt.Sprintf("T1-copy%d", i/2)
		if i%2 == 0 {
			cp := paperdata.T1()
			cp.Name = name
			postJSON(t, ts.URL+"/v1/lake/add", LakeAddRequest{Tables: []TableJSON{EncodeTable(cp)}}).Body.Close()
		} else {
			postJSON(t, ts.URL+"/v1/lake/remove", LakeRemoveRequest{Names: []string{name}}).Body.Close()
		}
		want := direct()
		if status, got := postBody(t, ts.URL+"/v1/discover", body); status != http.StatusOK || !bytes.Equal(got, want) {
			t.Errorf("after mutation %d: status %d\n served %s\n direct %s", i, status, got, want)
		}
	}
	close(stop)
	wg.Wait()
	if m := s.answerCacheMetrics(); m.Stores == 0 || m.Stale == 0 {
		t.Fatalf("cache counters = %+v: the cache was never exercised across a mutation", m)
	}
}

// midRunMutator wraps josie-join: on its first call it answers from the
// pinned view it is handed, then adds a copy of the query table to the live
// lake, so the mutation overlaps the run and lands before it answers.
type midRunMutator struct {
	live func() lake.Catalog
	once *sync.Once
}

func (midRunMutator) Name() string { return "mid-run-mutator" }

func (d midRunMutator) Discover(ctx context.Context, l *lake.Lake, q *table.Table, queryCol, k int) ([]discovery.Result, error) {
	rs, err := discovery.JosieJoin{}.Discover(ctx, l, q, queryCol, k)
	d.once.Do(func() {
		cp := paperdata.T1()
		cp.Name = "T1-added-mid-run"
		err = errors.Join(err, d.live().Add(cp))
	})
	return rs, err
}

// TestAnswerCacheStoresPinnedVectorAcrossMutation sends one body whose run
// a mutation overlaps. The answer is the pinned catalog's, so it is stored
// under the pinned vector, which the mutation has already moved past. The
// repeat must miss, recompute and answer with the added table, exactly as
// a direct Pipeline.Discover does now; it never serves the pre-mutation
// bytes. Only the repeat after that is a hit.
func TestAnswerCacheStoresPinnedVectorAcrossMutation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if err := s.p().Discoverers().Register(midRunMutator{live: func() lake.Catalog { return s.p().Lake() }, once: &sync.Once{}}); err != nil {
		t.Fatal(err)
	}
	body := discoverBody(t, "mid-run-mutator")
	pinned := s.p().Lake().Epochs()
	_, first := postBody(t, ts.URL+"/v1/discover", body)
	if slices.Equal(s.p().Lake().Epochs(), pinned) {
		t.Fatal("the mid-run Add did not land")
	}
	if m := s.answerCacheMetrics(); m.Stores != 1 {
		t.Fatalf("after the overlapped run the cache counters are %+v, want its answer stored", m)
	}
	_, second := postBody(t, ts.URL+"/v1/discover", body)
	if bytes.Equal(second, first) || !bytes.Contains(second, []byte("T1-added-mid-run")) || bytes.Contains(first, []byte("T1-added-mid-run")) {
		t.Fatalf("the repeat after the mutation served the pinned answer or missed the added table:\n first %s\nsecond %s", first, second)
	}
	resp, err := s.p().Discover(context.Background(), core.DiscoverRequest{Query: paperdata.T1(), QueryColumn: 1, Methods: []string{"mid-run-mutator"}})
	if err != nil {
		t.Fatal(err)
	}
	if want, err := encodeJSON(encodeDiscoverResponse(resp)); err != nil || !bytes.Equal(second, want) {
		t.Fatalf("the repeat answered %s, a direct run %s (%v)", second, want, err)
	}
	if _, third := postBody(t, ts.URL+"/v1/discover", body); !bytes.Equal(third, second) {
		t.Fatalf("the hit served %s, want %s", third, second)
	}
	if m := s.answerCacheMetrics(); m.Hits != 1 || m.Stale != 1 || m.Stores != 2 || m.Misses != 1 {
		t.Fatalf("cache counters = %+v, want 1 miss, 1 stale, 2 stores, 1 hit", m)
	}
}

// TestAnswerCacheByteBound fills the cache past answerCacheBytes: the held
// bytes never exceed the bound, the least recently used (here the oldest)
// entries go first, a replaced entry is accounted once, and an answer
// larger than the bound is not stored at all.
func TestAnswerCacheByteBound(t *testing.T) {
	c := newAnswerCache()
	epochs := []uint64{2}
	current := func() []uint64 { return epochs }
	const half = 32 << 10
	entry := func(i int) (body, resp []byte) {
		body = bytes.Repeat([]byte{'b'}, half)
		copy(body, fmt.Sprint(i))
		return body, bytes.Repeat([]byte{'r'}, half)
	}
	const n = 3 * answerCacheBytes / (2 * half)
	for i := range n {
		body, resp := entry(i)
		c.store(body, epochs, resp)
		if got := c.Stats(0).Bytes; got > answerCacheBytes {
			t.Fatalf("after %d stores the cache holds %d bytes, bound %d", i+1, got, answerCacheBytes)
		}
	}
	const fit = answerCacheBytes / (2 * half)
	if m := c.Stats(0); m.Stores != n || m.Evictions != n-fit || m.Bytes != int64(fit*2*half) {
		t.Fatalf("counters = %+v, want %d stores, %d evictions, %d bytes", m, n, n-fit, fit*2*half)
	}
	for i, wantHit := range map[int]bool{0: false, n - fit - 1: false, n - fit: true, n - 1: true} {
		body, _ := entry(i)
		if hit := c.lookup(body, current) != nil; hit != wantHit {
			t.Errorf("entry %d: hit %v, want %v (oldest evicted first)", i, hit, wantHit)
		}
	}
	body, resp := entry(n - 1)
	c.store(body, epochs, resp)
	if got := c.Stats(0).Bytes; got != int64(fit*2*half) {
		t.Fatalf("replacing an entry changed the held bytes to %d, want %d", got, fit*2*half)
	}
	huge := bytes.Repeat([]byte{'h'}, answerCacheBytes)
	c.store(huge, epochs, resp)
	if m := c.Stats(0); m.Bytes != int64(fit*2*half) || m.Stores != n+1 {
		t.Fatalf("an answer over the bound was stored: %+v", m)
	}
}

// TestAnswerCacheHitProtectsEntry fills the cache exactly, hits the oldest
// entry and stores one more: the least recently used entry, not the one
// just served, is evicted.
func TestAnswerCacheHitProtectsEntry(t *testing.T) {
	c := newAnswerCache()
	epochs := []uint64{2}
	current := func() []uint64 { return epochs }
	const half = 32 << 10
	body := func(i int) []byte { return []byte(fmt.Sprintf("%0*d", half, i)) }
	resp := bytes.Repeat([]byte{'r'}, half)
	const fit = answerCacheBytes / (2 * half)
	for i := range fit {
		c.store(body(i), epochs, resp)
	}
	if c.lookup(body(0), current) == nil {
		t.Fatal("entry 0 is not cached")
	}
	c.store(body(fit), epochs, resp)
	if c.lookup(body(0), current) == nil {
		t.Fatal("the entry just served was evicted")
	}
	if c.lookup(body(1), current) != nil {
		t.Fatal("entry 1, the least recently used, survived the eviction")
	}
}

// TestAnswerCacheStaleReleasesBytes requires a lookup under a moved epoch
// vector to count stale and release the entry's bytes at once.
func TestAnswerCacheStaleReleasesBytes(t *testing.T) {
	c := newAnswerCache()
	c.store([]byte("body"), []uint64{2}, []byte("resp\n"))
	if c.lookup([]byte("body"), func() []uint64 { return []uint64{4} }) != nil {
		t.Fatal("served an answer stored under another epoch vector")
	}
	if m := c.Stats(0); m.Stale != 1 || m.Bytes != 0 {
		t.Fatalf("after a stale lookup the counters are %+v, want 1 stale and 0 bytes", m)
	}
}

// TestAnswerCacheKeepsNoCallerBuffer overwrites the caller's body buffer
// after a store and after a hit: the cache must still answer the original
// body, and only it. A lookup views the buffer as its key without a copy,
// so this pins that the cache keeps no such view.
func TestAnswerCacheKeepsNoCallerBuffer(t *testing.T) {
	c := newAnswerCache()
	epochs := []uint64{2}
	current := func() []uint64 { return epochs }
	const orig = `{"query":"original"}`
	want := []byte("answer\n")
	buf := []byte(orig)
	c.store(buf, epochs, want)
	copy(buf, `{"query":"OVERWRITE"}`)
	if got := c.lookup([]byte(orig), current); !bytes.Equal(got, want) {
		t.Fatalf("after overwriting the stored body's buffer: lookup = %q, want %q", got, want)
	}
	buf = []byte(orig)
	if c.lookup(buf, current) == nil {
		t.Fatal("no hit for the stored body")
	}
	copy(buf, `{"query":"OVERWRITE"}`)
	if got := c.lookup([]byte(orig), current); !bytes.Equal(got, want) {
		t.Fatalf("after overwriting a hit's buffer: lookup = %q, want %q", got, want)
	}
	if c.lookup(buf, current) != nil {
		t.Fatal("the overwritten body is answered as if it were the stored one")
	}
}

// faultyDiscoverer is a registered discoverer whose run fails by its own
// fault: it mutates the pinned, read-only handle it was given.
type faultyDiscoverer struct{}

func (faultyDiscoverer) Name() string { return "mutates-pinned" }

func (faultyDiscoverer) Discover(_ context.Context, l *lake.Lake, _ *table.Table, _, _ int) ([]discovery.Result, error) {
	return nil, l.Add(table.New("added", "a"))
}

// TestDiscovererFaultIsServerError: a discoverer that mutates its pinned
// handle fails on the server's side, not the caller's, so the request
// answers 500 (and nothing is stored in the answer cache).
func TestDiscovererFaultIsServerError(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if err := s.p().Discoverers().Register(faultyDiscoverer{}); err != nil {
		t.Fatal(err)
	}
	for i := range 2 {
		if status, out := postBody(t, ts.URL+"/v1/discover", discoverBody(t, "mutates-pinned")); status != http.StatusInternalServerError {
			t.Fatalf("request %d: status %d, want 500: %s", i, status, out)
		}
	}
	if m := s.answerCacheMetrics(); m.Stores != 0 {
		t.Fatalf("a failed run was stored: %+v", m)
	}
}
