package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/discovery"
	"repro/internal/table"
)

// drop in a shard script closes the connection without answering: a
// transport failure.
const drop = -1

// scriptedShard answers each request with the next status of its script
// (200 once the script is used up) and counts the requests per path. A 200
// body carries an empty lsh-join ranking and an epoch vector, so it decodes
// as every response the shard client reads.
type scriptedShard struct {
	mu     sync.Mutex
	script []int
	hits   map[string]int
}

func (s *scriptedShard) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.hits[r.URL.Path]++
	status := http.StatusOK
	if len(s.script) > 0 {
		status, s.script = s.script[0], s.script[1:]
	}
	s.mu.Unlock()
	switch status {
	case drop:
		if conn, _, err := w.(http.Hijacker).Hijack(); err == nil {
			conn.Close()
		}
	case http.StatusOK:
		fmt.Fprint(w, `{"perMethod":{"lsh-join":[]},"epochs":[0],"size":0}`)
	default:
		w.WriteHeader(status)
		fmt.Fprintf(w, `{"error":"scripted %d"}`, status)
	}
}

func (s *scriptedShard) calls(path string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits[path]
}

// TestShardRetryPolicy pins the coordinator's retry policy for shard
// calls: idempotent reads are tried up to 1+shardRetries times on
// transport failures and 503s and once on any other failure; mutations are
// tried once whatever the failure. The retries metric counts the extra
// attempts.
func TestShardRetryPolicy(t *testing.T) {
	q := table.New("q", "c")
	q.MustAddRow(table.StringValue("v"))
	type call struct {
		path string
		run  func(context.Context, *shardClient) error
	}
	reads := []call{
		{"/v1/discover", func(ctx context.Context, c *shardClient) error {
			_, err := c.discover(ctx, &discovery.Query{Table: q, K: 1}, []string{"lsh-join"})
			return err
		}},
		{"/v1/lake/epoch", func(ctx context.Context, c *shardClient) error {
			_, err := c.epochs(ctx)
			return err
		}},
	}
	mutations := []call{
		{"/v1/lake/add", func(ctx context.Context, c *shardClient) error { return c.add(ctx, nil) }},
		{"/v1/lake/remove", func(ctx context.Context, c *shardClient) error { return c.remove(ctx, []string{"t"}) }},
	}
	// run plays script against a fresh coordinator (and so a fresh
	// connection pool) and reports the requests the shard saw on the call's
	// path, the coordinator's retry count and the call's error.
	run := func(t *testing.T, cl call, script ...int) (int, uint64, error) {
		t.Helper()
		sh := &scriptedShard{script: script, hits: map[string]int{}}
		srv := httptest.NewServer(sh)
		defer srv.Close()
		c, err := New(Config{Addrs: []string{srv.URL}, RetryBackoff: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer c.CloseIdleConnections()
		err = cl.run(context.Background(), c.shards[0])
		return sh.calls(cl.path), c.ShardMetrics()[0].Retries, err
	}
	status := func(err error) int {
		var serr *ShardError
		if !errors.As(err, &serr) {
			return -2
		}
		return serr.Status
	}

	for _, cl := range reads {
		for _, fail := range []int{http.StatusServiceUnavailable, drop} {
			n, retries, err := run(t, cl, fail, fail, http.StatusOK)
			if err != nil || n != 3 || retries != 2 {
				t.Errorf("%s after %d, %d, 200: err %v, %d attempts, %d retries; want success after 3 attempts, 2 retries", cl.path, fail, fail, err, n, retries)
			}
			n, retries, err = run(t, cl, fail, fail, fail, http.StatusOK)
			if err == nil || n != 1+shardRetries || retries != shardRetries {
				t.Errorf("%s after %d x3: err %v, %d attempts, %d retries; want failure after %d attempts, %d retries", cl.path, fail, err, n, retries, 1+shardRetries, shardRetries)
			}
		}
		for _, fail := range []int{http.StatusTooManyRequests, http.StatusGatewayTimeout, http.StatusBadRequest} {
			n, retries, err := run(t, cl, fail, http.StatusOK)
			if status(err) != fail || n != 1 || retries != 0 {
				t.Errorf("%s after %d: err %v, %d attempts, %d retries; want status %d after 1 attempt, 0 retries", cl.path, fail, err, n, retries, fail)
			}
		}
	}
	for _, cl := range mutations {
		for _, fail := range []int{http.StatusServiceUnavailable, drop, http.StatusTooManyRequests} {
			n, retries, err := run(t, cl, fail, http.StatusOK)
			if err == nil || n != 1 || retries != 0 {
				t.Errorf("%s after %d: err %v, %d attempts, %d retries; want failure after 1 attempt, 0 retries", cl.path, fail, err, n, retries)
			}
		}
	}
}
