package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"repro/internal/discovery"
	"repro/internal/serve"
)

// ShardError is the typed failure of one coordinator-to-shard call. It
// carries the shard's HTTP status (0 for a transport failure — connection
// refused, reset, DNS) and maps it onto the coordinator's own response
// semantics via HTTPStatus: a shard shedding under load (429) sheds the
// coordinator request, a shard timeout (504) is a coordinator timeout, a
// down or unavailable shard (transport, 503) degrades the coordinator
// (503), and a shard-side client error (400/404/413) passes through — the
// coordinator merely relayed a bad request. Errors from down/unavailable
// shards also match discovery.ErrShardUnavailable under errors.Is, which
// is what lets partial discovery tolerate them.
type ShardError struct {
	// Shard and Addr identify the failing shard.
	Shard int
	Addr  string
	// Op is the logical operation ("discover", "add", "epoch", ...).
	Op string
	// Status is the HTTP status the shard answered, or 0 when the call
	// never completed (transport failure or per-call deadline).
	Status int
	// RetryAfter is the shard's Retry-After header, if it sent one.
	RetryAfter string
	// Err is the underlying cause: the shard's structured error message,
	// or the transport error.
	Err error
}

func (e *ShardError) Error() string {
	if e.Status != 0 {
		return fmt.Sprintf("cluster: shard %d (%s) %s: status %d: %v", e.Shard, e.Addr, e.Op, e.Status, e.Err)
	}
	return fmt.Sprintf("cluster: shard %d (%s) %s: %v", e.Shard, e.Addr, e.Op, e.Err)
}

func (e *ShardError) Unwrap() error { return e.Err }

// Is makes errors wrapping a down-shard ShardError match
// discovery.ErrShardUnavailable: transport failures, per-call deadline
// expiries, and shard 503s (warming, degraded store, shutting down) all
// mean "this shard cannot answer right now", which partial reads tolerate.
// A 429 is deliberately excluded — the shard is alive but overloaded, and
// dropping its results would silently degrade answers exactly when load is
// highest; the coordinator sheds instead. A 504 is excluded too: the query
// was too slow, not the shard absent.
func (e *ShardError) Is(target error) bool {
	return target == discovery.ErrShardUnavailable && (e.Status == 0 || e.Status == http.StatusServiceUnavailable)
}

// HTTPStatus maps the shard failure onto the coordinator's response —
// consumed structurally by serve.statusFor: a shard timeout and a shard's
// client error pass through, everything else (transport failure, 503,
// 5xx) is 503.
func (e *ShardError) HTTPStatus() int {
	if e.Status == http.StatusGatewayTimeout || e.Status >= 400 && e.Status < 500 {
		return e.Status
	}
	return http.StatusServiceUnavailable
}

// RetryAfterHint passes the shard's own Retry-After through to the
// coordinator's client when the shard sent one, and supplies a short
// default for down shards — consumed structurally by serve's handler.
func (e *ShardError) RetryAfterHint() string {
	if e.RetryAfter != "" {
		return e.RetryAfter
	}
	if e.HTTPStatus() == http.StatusServiceUnavailable {
		return "1"
	}
	return ""
}

// shardRetries bounds the retry attempts of one idempotent read against a
// transiently failing shard: a read is tried at most 1+shardRetries times.
const shardRetries = 2

// shardClient is one shard's HTTP transport: a shared pooled client
// (connection reuse across calls and shards), per-call deadlines derived
// from the request context and capped by the configured call timeout, and
// bounded backoff retries for idempotent reads. Mutations are never
// retried — a timed-out Add may have been applied, and blind re-execution
// would turn one fault into a duplicate-name error.
type shardClient struct {
	shard int
	addr  string // base URL, e.g. "http://127.0.0.1:7001"
	hc    *http.Client

	callTimeout time.Duration
	backoff     time.Duration

	// Fan-out metrics behind the coordinator's /metrics: logical calls,
	// calls that failed after retries, retry attempts, failed rollbacks
	// (applyRouted), and round-trip latency (per logical call, retries
	// included — it is what the fan-out felt).
	calls         atomic.Uint64
	errs          atomic.Uint64
	retryCount    atomic.Uint64
	rollbackFails atomic.Uint64
	lat           serve.Latency
}

// do runs one logical call against the shard: marshal body (nil means no
// body), POST/GET path, decode a 200 into out (serve.DecodeResponse:
// json.Number preserved, so int64 cells and float64 scores round-trip
// bit-exactly, and table batches read without []any), map any failure
// to a *ShardError. Idempotent calls retry transport failures and 503s
// with linear backoff; the caller's ctx bounds the whole loop and each
// attempt is additionally capped by callTimeout.
func (c *shardClient) do(ctx context.Context, op, method, path string, body, out any) error {
	return c.doRetry(ctx, op, method, path, body, out, false)
}

func (c *shardClient) doIdempotent(ctx context.Context, op, method, path string, body, out any) error {
	return c.doRetry(ctx, op, method, path, body, out, true)
}

func (c *shardClient) doRetry(ctx context.Context, op, method, path string, body, out any, idempotent bool) error {
	c.calls.Add(1)
	start := time.Now()
	defer func() { c.lat.Observe(time.Since(start)) }()
	payload, encoded := body.(json.RawMessage) // sent as is
	if body != nil && !encoded {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			c.errs.Add(1)
			return &ShardError{Shard: c.shard, Addr: c.addr, Op: op, Err: fmt.Errorf("encode request: %w", err)}
		}
	}
	attempts := 1
	if idempotent {
		attempts += shardRetries
	}
	var last *ShardError
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			c.retryCount.Add(1)
			select {
			case <-ctx.Done():
				c.errs.Add(1)
				last.Err = fmt.Errorf("%w (retries abandoned: %v)", last.Err, ctx.Err())
				return last
			case <-time.After(c.backoff * time.Duration(attempt)):
			}
		}
		serr := c.attempt(ctx, op, method, path, payload, out)
		if serr == nil {
			return nil
		}
		last = serr
		if !retryable(serr) {
			break
		}
	}
	c.errs.Add(1)
	return last
}

// retryable: transport failures and 503 (warming shard, degraded store)
// are worth a bounded retry; everything else — 429 (retrying adds load
// exactly when the shard is shedding it), 504 (the work is the problem,
// not the connection), 4xx (the request is wrong) — is not.
func retryable(e *ShardError) bool {
	return e.Status == 0 || e.Status == http.StatusServiceUnavailable
}

// attempt is one HTTP round trip.
func (c *shardClient) attempt(ctx context.Context, op, method, path string, payload []byte, out any) *ShardError {
	ctx, cancel := context.WithTimeout(ctx, c.callTimeout)
	defer cancel()
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.addr+path, rd)
	if err != nil {
		return &ShardError{Shard: c.shard, Addr: c.addr, Op: op, Err: err}
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return &ShardError{Shard: c.shard, Addr: c.addr, Op: op, Err: err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		serr := &ShardError{Shard: c.shard, Addr: c.addr, Op: op, Status: resp.StatusCode, RetryAfter: resp.Header.Get("Retry-After")}
		var eb serve.ErrorBody
		if jerr := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&eb); jerr == nil && eb.Error != "" {
			serr.Err = fmt.Errorf("%s", eb.Error)
		} else {
			serr.Err = fmt.Errorf("%s", resp.Status)
		}
		return serr
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := serve.DecodeResponse(resp.Body, out); err != nil {
		return &ShardError{Shard: c.shard, Addr: c.addr, Op: op, Err: fmt.Errorf("decode response: %w", err)}
	}
	return nil
}

// Typed calls over do/doIdempotent. Reads are idempotent and retry;
// mutations never do.

func (c *shardClient) epochs(ctx context.Context) (serve.EpochResponse, error) {
	var out serve.EpochResponse
	err := c.doIdempotent(ctx, "epoch", http.MethodGet, "/v1/lake/epoch", nil, &out)
	return out, err
}

func (c *shardClient) health(ctx context.Context) (serve.HealthResponse, error) {
	var out serve.HealthResponse
	// No retries: health sampling wants the current answer, not a lucky one.
	err := c.do(ctx, "healthz", http.MethodGet, "/healthz", nil, &out)
	return out, err
}

// unboundedK is the K sent to shards when the caller asked for an
// unlimited ranking (k <= 0): shard-side core.Discover would coerce 0 to
// its default of 10, which is not "all".
const unboundedK = 1 << 30

// discover asks the shard for every named method's ranking in one call. The
// body is encoded once per run and shared across shards; a 200 that lacks
// a requested method is a malformed response, failed like one that does
// not decode.
func (c *shardClient) discover(ctx context.Context, q *discovery.Query, methods []string) (serve.DiscoverResponse, error) {
	var out serve.DiscoverResponse
	body, err := q.Encoded(func() ([]byte, error) {
		k := q.K
		if k <= 0 {
			k = unboundedK
		}
		return json.Marshal(serve.DiscoverRequest{Query: serve.EncodeTable(q.Table), QueryColumn: q.Column, Methods: methods, K: k})
	})
	if err != nil {
		return out, &ShardError{Shard: c.shard, Addr: c.addr, Op: "discover", Err: fmt.Errorf("encode request: %w", err)}
	}
	if err := c.doIdempotent(ctx, "discover", http.MethodPost, "/v1/discover", json.RawMessage(body), &out); err != nil {
		return out, err
	}
	for _, m := range methods {
		if _, ok := out.PerMethod[m]; !ok {
			c.errs.Add(1)
			return out, &ShardError{Shard: c.shard, Addr: c.addr, Op: "discover", Err: fmt.Errorf("decode response: no ranking for method %q", m)}
		}
	}
	return out, nil
}

func (c *shardClient) lakeInfo(ctx context.Context) (serve.LakeResponse, error) {
	var out serve.LakeResponse
	err := c.doIdempotent(ctx, "lake-info", http.MethodGet, "/v1/lake", nil, &out)
	return out, err
}

func (c *shardClient) getTables(ctx context.Context, names []string) (serve.LakeTablesResponse, error) {
	var out serve.LakeTablesResponse
	err := c.doIdempotent(ctx, "tables", http.MethodPost, "/v1/lake/tables", serve.LakeTablesRequest{Names: names}, &out)
	return out, err
}

func (c *shardClient) add(ctx context.Context, tables []serve.TableJSON) error {
	return c.do(ctx, "add", http.MethodPost, "/v1/lake/add", serve.LakeAddRequest{Tables: tables}, nil)
}

func (c *shardClient) remove(ctx context.Context, names []string) error {
	return c.do(ctx, "remove", http.MethodPost, "/v1/lake/remove", serve.LakeRemoveRequest{Names: names}, nil)
}

// normalizeAddr turns an operator-supplied shard address into a base URL:
// "host:port" gains "http://", schemes pass through, trailing slashes are
// trimmed.
func normalizeAddr(addr string) (string, error) {
	if addr == "" {
		return "", fmt.Errorf("cluster: empty shard address")
	}
	if !bytes.Contains([]byte(addr), []byte("://")) {
		addr = "http://" + addr
	}
	u, err := url.Parse(addr)
	if err != nil {
		return "", fmt.Errorf("cluster: shard address %q: %w", addr, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("cluster: shard address %q: unsupported scheme %q", addr, u.Scheme)
	}
	if u.Host == "" {
		return "", fmt.Errorf("cluster: shard address %q: no host", addr)
	}
	return u.Scheme + "://" + u.Host, nil
}
