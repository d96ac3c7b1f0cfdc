// Package cluster is DIALITE's shard-per-process deployment: a
// coordinator-side lake.Catalog / discovery target whose shards are remote
// `dialite serve` processes instead of in-process *lake.Lakes. PR 9's
// in-process lake.Sharded established everything the transport change
// needs — name-hash routing recomputable from names alone (lake.ShardIndex),
// self-contained shard lakes, a deterministic (score desc, name asc)
// rank merge consuming only (table, score, column) tuples, and a mutation
// epoch that generalizes to a per-shard vector — so the coordinator is
// deliberately thin: it speaks serve's own JSON API to each shard and
// reuses discovery's merge and torn-read machinery unchanged.
//
// Equivalence: coordinator discovery answers are float64-bit-exact against
// an in-process lake.Sharded over the same tables — JSON encodes float64
// shortest-round-trip and both sides decode with full precision — pinned
// by the multi-process differential harness.
//
// Degradation: reads tolerate down shards, returning partial results with
// an explicit marker plus per-shard error detail (discovery.RunAll);
// mutations touching a down shard refuse fast with 503 before anything is
// applied anywhere. See SHARDING.md's "Cluster mode" section for the
// failure-semantics contract.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"time"

	"repro/internal/discovery"
	"repro/internal/kb"
	"repro/internal/lake"
	"repro/internal/par"
	"repro/internal/serve"
	"repro/internal/table"
)

// Config configures a Coordinator.
type Config struct {
	// Addrs are the shard base URLs in shard order: the table placement
	// rule is lake.ShardIndex(name, len(Addrs)), so the order and count
	// must match how the shard stores were populated (the manifest pins
	// the count; see Manifest).
	Addrs []string
	// Knowledge is the coordinator-side knowledge base for the cross-shard
	// stages (integration matching, entity resolution); nil means none.
	// Shard processes hold their own copies for SANTOS annotation.
	Knowledge *kb.KB
	// CallTimeout caps each shard call that carries no tighter request
	// deadline of its own. 0 means 15s.
	CallTimeout time.Duration
	// ProbeTimeout caps the cheap sampling calls (epoch vectors, health,
	// mutation pre-probes). 0 means 2s.
	ProbeTimeout time.Duration
	// Retries bounds per-call retry attempts for idempotent reads against
	// a transiently failing shard. 0 means 2; negative disables.
	Retries int
	// RetryBackoff is the base backoff between retry attempts (linear:
	// attempt n waits n*RetryBackoff). 0 means 50ms.
	RetryBackoff time.Duration
	// Client overrides the HTTP client; nil builds a pooled transport
	// shared by every shard (connection reuse across the fan-out).
	Client *http.Client
}

// Coordinator implements lake.Catalog and discovery's remote target over a
// set of shard processes. It owns no table data: reads scatter to the
// shards and gather deterministically, mutations route by lake.ShardIndex,
// and the composite-level state (value dictionary, KB annotator) lives
// coordinator-side exactly as lake.Sharded keeps it composite-side. The one
// copy of shard data it keeps is the bounded, epoch-keyed cache of the
// tables discovery materialized (tables.go).
type Coordinator struct {
	// Composite carries the routing rule (NumShards, ShardFor), the
	// coordinator-local seqlock counter over routed mutations (Epochs
	// prepends it to the concatenated shard vectors), and the
	// coordinator-level Knowledge/Annotator/Dict — the exact analogue of
	// what lake.Sharded keeps composite-side.
	*lake.Composite
	cfg    Config
	shards []*shardClient
	tables *tableCache
}

var (
	_ lake.Catalog               = (*Coordinator)(nil)
	_ discovery.Remote           = (*Coordinator)(nil)
	_ serve.ShardHealthReporter  = (*Coordinator)(nil)
	_ serve.ShardMetricsReporter = (*Coordinator)(nil)
)

// New builds a coordinator over the configured shard addresses. It contacts
// no shard: shards may be down at construction, and the coordinator starts
// degraded rather than failing — reads report the down shards, mutations
// touching them refuse with 503, and both recover once the shards answer.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Addrs) == 0 {
		return nil, fmt.Errorf("cluster: no shard addresses")
	}
	if cfg.CallTimeout == 0 {
		cfg.CallTimeout = 15 * time.Second
	}
	if cfg.ProbeTimeout == 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.Retries == 0 {
		cfg.Retries = 2
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = 50 * time.Millisecond
	}
	hc := cfg.Client
	if hc == nil {
		hc = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     90 * time.Second,
		}}
	}
	c := &Coordinator{
		Composite: lake.NewComposite(len(cfg.Addrs), cfg.Knowledge),
		cfg:       cfg,
		shards:    make([]*shardClient, len(cfg.Addrs)),
		tables:    newTableCache(tableCacheBytes, len(cfg.Addrs)),
	}
	for i, addr := range cfg.Addrs {
		base, err := normalizeAddr(addr)
		if err != nil {
			return nil, err
		}
		c.shards[i] = &shardClient{
			shard:       i,
			addr:        base,
			hc:          hc,
			callTimeout: cfg.CallTimeout,
			retries:     cfg.Retries,
			backoff:     cfg.RetryBackoff,
		}
	}
	return c, nil
}

// epochDown is the vector element substituted for an unreachable shard:
// even (a down shard is not "mutating", and an all-even vector must remain
// achievable so degraded reads settle) and implausible as a live counter,
// so a shard flapping between down and up never produces two equal
// vectors across the transition.
const epochDown = ^uint64(0) - 1

// Epochs samples the cluster's mutation-epoch vector: the coordinator's
// local counter (routed mutations tick it) followed by each shard's own
// vector, in shard order. Down shards contribute the epochDown sentinel,
// so a shard dying or recovering mid-fan-out perturbs the vector and the
// read retries, while a steadily-down shard leaves it stable (no retry
// storm while degraded).
func (c *Coordinator) Epochs() []uint64 {
	per := make([][]uint64, len(c.shards))
	par.For(len(c.shards), func(i int) {
		ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
		defer cancel()
		ep, err := c.shards[i].epochs(ctx)
		if err != nil || len(ep.Epochs) == 0 {
			per[i] = []uint64{epochDown}
			return
		}
		per[i] = ep.Epochs
	})
	out := make([]uint64, 0, 1+2*len(c.shards))
	out = append(out, c.Epoch())
	for _, v := range per {
		out = append(out, v...)
	}
	return out
}

// callCtx is the context for the catalog mutations, which lake.Catalog
// keeps context-free: the per-call timeout is the only deadline.
func (c *Coordinator) callCtx() (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), c.cfg.CallTimeout)
}

// FetchTables implements lake.Catalog: names group by their owning shard
// and fetch in one batch per shard. Names no shard holds are
// absent from the map; a shard that cannot answer fails the whole fetch
// with its *ShardError (first in shard order), so callers can tell "no such
// table" from "its shard is down".
func (c *Coordinator) FetchTables(ctx context.Context, names []string) (map[string]*table.Table, error) {
	resolved, err := c.fetchShards(ctx, lake.PartitionNames(names, len(c.shards)), nil)
	if err != nil {
		return nil, err
	}
	out := make(map[string]*table.Table, len(names))
	for _, ts := range resolved {
		for _, t := range ts {
			out[t.Name] = t
		}
	}
	return out, nil
}

// fetchShards scatters one getTables batch to every shard with names in
// perShard and gathers the decoded tables: resolved[s] is what shard s
// returned. tolerate (nil means nothing is) decides which per-shard
// failures merely drop that shard's names instead of failing the fetch.
func (c *Coordinator) fetchShards(ctx context.Context, perShard [][]string, tolerate func(error) bool) ([][]*table.Table, error) {
	involved := involvedShards(perShard)
	resolved := make([][]*table.Table, len(perShard))
	errs := make([]error, len(involved))
	par.For(len(involved), func(j int) {
		i := involved[j]
		resp, err := c.shards[i].getTables(ctx, perShard[i])
		if err != nil {
			if tolerate == nil || !tolerate(err) {
				errs[j] = err
			}
			return
		}
		resolved[i], errs[j] = decodeTables(i, resp.Tables)
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	return resolved, nil
}

// decodeTables decodes one shard's wire tables; a table that does not
// decode is a malformed response, never tolerated.
func decodeTables(shard int, wire []serve.TableJSON) ([]*table.Table, error) {
	out := make([]*table.Table, 0, len(wire))
	for _, tj := range wire {
		t, err := tj.DecodeTable()
		if err != nil {
			return nil, fmt.Errorf("cluster: shard %d: malformed table %q: %w", shard, tj.Name, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// TableNames implements lake.Catalog: shard 0..N-1, each in
// its shard-local catalog order. Cluster mode cannot reproduce global
// insertion order — it is not persisted anywhere a restarted coordinator
// could recover it from — and SHARDING.md documents the divergence.
func (c *Coordinator) TableNames(ctx context.Context) ([]string, error) {
	infos := make([]serve.LakeResponse, len(c.shards))
	errs := make([]error, len(c.shards))
	par.For(len(c.shards), func(i int) {
		infos[i], errs[i] = c.shards[i].lakeInfo(ctx)
	})
	if err := firstErr(errs); err != nil {
		return nil, err
	}
	var names []string
	for _, info := range infos {
		names = append(names, info.Tables...)
	}
	return names, nil
}

// Size sums the reachable shards' table counts (down shards contribute
// zero; /healthz carries the per-shard detail).
func (c *Coordinator) Size() int {
	per := make([]int, len(c.shards))
	par.For(len(c.shards), func(i int) {
		ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
		defer cancel()
		if ep, err := c.shards[i].epochs(ctx); err == nil {
			per[i] = ep.Size
		}
	})
	n := 0
	for _, v := range per {
		n += v
	}
	return n
}

// probeInvolved refuses a mutation fast when any shard it must touch is
// unreachable: nothing has been applied anywhere yet, so the refusal is
// clean — no partial batch, no rollback. The returned error is a
// *ShardError carrying 503.
func (c *Coordinator) probeInvolved(involved []int) error {
	errs := make([]error, len(involved))
	par.For(len(involved), func(j int) {
		ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
		defer cancel()
		_, errs[j] = c.shards[involved[j]].epochs(ctx)
	})
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("cluster: mutation refused, shard unreachable: %w", err)
		}
	}
	return nil
}

// Add routes the batch by table name and applies each shard's sub-batch
// concurrently, after validating the whole batch coordinator-side (the
// same atomic-validation contract lake.Sharded keeps; duplicates against
// the catalog are the owning shard's check) and probing every involved
// shard. Cross-shard atomicity is compensated, not transactional: if any
// shard rejects its sub-batch (e.g. a duplicate name), sub-batches already
// applied elsewhere are rolled back with best-effort removes, and the first
// shard's error (in shard order) is returned.
func (c *Coordinator) Add(tables ...*table.Table) error {
	if len(tables) == 0 {
		return nil
	}
	if err := lake.CheckAdd("lake: add", tables, nil); err != nil {
		return err
	}
	perShard := lake.PartitionTables(tables, len(c.shards))
	involved := involvedShards(perShard)
	if err := c.probeInvolved(involved); err != nil {
		return err
	}
	c.Mutations.Begin()
	defer c.Mutations.End()
	ctx, cancel := c.callCtx()
	defer cancel()
	errs := make([]error, len(involved))
	par.For(len(involved), func(j int) {
		errs[j] = c.shards[involved[j]].add(ctx, encodeTables(perShard[involved[j]]))
	})
	if firstErr(errs) == nil {
		return nil
	}
	// Compensate: remove the sub-batches that did apply, so the catalog
	// returns to its pre-Add state. Best effort — a shard dying between
	// apply and rollback leaves its sub-batch behind, which the error
	// makes loud rather than silent.
	rbCtx, rbCancel := c.callCtx()
	defer rbCancel()
	par.For(len(involved), func(j int) {
		if errs[j] == nil {
			_ = c.shards[involved[j]].remove(rbCtx, tableNames(perShard[involved[j]]))
		}
	})
	return firstErr(errs)
}

// Remove validates that every named table exists (fetching the doomed
// tables in the same pass — they are the rollback material), probes, then
// applies per shard. Compensation mirrors Add: shards that already removed
// get their tables re-added if another shard fails.
func (c *Coordinator) Remove(names ...string) error {
	if len(names) == 0 {
		return nil
	}
	// Dedupe only: membership is checked against the fetch below.
	unique, _ := lake.CheckRemove("lake: remove", names, nil)
	perShard := lake.PartitionNames(unique, len(c.shards))
	involved := involvedShards(perShard)
	if err := c.probeInvolved(involved); err != nil {
		return err
	}
	// Fetch the doomed tables: validates existence batch-atomically
	// (unknown names reject the whole batch, as lake.Remove does) and
	// provides the rollback payload.
	ctx, cancel := c.callCtx()
	defer cancel()
	doomed, err := c.FetchTables(ctx, unique)
	if err != nil {
		return fmt.Errorf("cluster: remove validation: %w", err)
	}
	fetched := func(n string) (*table.Table, bool) { t, ok := doomed[n]; return t, ok }
	if _, err := lake.CheckRemove("lake: remove", unique, fetched); err != nil {
		return err
	}
	c.Mutations.Begin()
	defer c.Mutations.End()
	mctx, mcancel := c.callCtx()
	defer mcancel()
	errs := make([]error, len(involved))
	par.For(len(involved), func(j int) {
		errs[j] = c.shards[involved[j]].remove(mctx, perShard[involved[j]])
	})
	if firstErr(errs) == nil {
		return nil
	}
	rbCtx, rbCancel := c.callCtx()
	defer rbCancel()
	par.For(len(involved), func(j int) {
		if errs[j] == nil {
			back := make([]*table.Table, 0, len(perShard[involved[j]]))
			for _, n := range perShard[involved[j]] {
				back = append(back, doomed[n])
			}
			_ = c.shards[involved[j]].add(rbCtx, encodeTables(back))
		}
	})
	return firstErr(errs)
}

// encodeTables and tableNames project a shard's sub-batch onto the two wire
// shapes mutations send: table bodies (add) and bare names (its rollback).
func encodeTables(tables []*table.Table) []serve.TableJSON {
	out := make([]serve.TableJSON, len(tables))
	for i, t := range tables {
		out[i] = serve.EncodeTable(t)
	}
	return out
}

func tableNames(tables []*table.Table) []string {
	out := make([]string, len(tables))
	for i, t := range tables {
		out[i] = t.Name
	}
	return out
}

// Compact asks every shard to fold its mutation debt. Advisory and
// answer-preserving: down shards are skipped (they compact on restart
// recovery anyway) and no epoch ticks.
func (c *Coordinator) Compact() {
	ctx, cancel := c.callCtx()
	defer cancel()
	par.For(len(c.shards), func(i int) {
		_ = c.shards[i].compact(ctx)
	})
}

// DiscoverShard runs every discoverer of a run on one shard in one
// /v1/discover call naming all their methods. The request body is encoded
// once per run (discovery.Query.Encoded) and shared by every shard's call.
// The shard executes the methods by name against its own lake and returns
// (name, score, column) tuples per method; tables come back as name-only
// stubs for discovery.RunAll to materialize after the merge. Scores cross
// the wire bit-exactly (shortest-round-trip float64 JSON). A failed call —
// transport error, 503, 429, 504, 4xx, or a 200 missing a requested
// method — is one *ShardError, and it fills every slot of the shard.
func (c *Coordinator) DiscoverShard(ctx context.Context, shard int, ds []discovery.Discoverer, q *discovery.Query) ([][]discovery.Result, []error) {
	methods := make([]string, len(ds))
	for i, d := range ds {
		methods[i] = d.Name()
	}
	per, errs := make([][]discovery.Result, len(ds)), make([]error, len(ds))
	resp, err := c.shards[shard].discover(ctx, q, methods)
	for i, m := range methods {
		if err != nil {
			errs[i] = err
			continue
		}
		per[i] = make([]discovery.Result, len(resp.PerMethod[m]))
		for j, r := range resp.PerMethod[m] {
			per[i][j] = discovery.Result{Table: table.New(r.Table), Score: r.Score, Method: m, Column: r.Column}
		}
	}
	return per, errs
}

// ResolveTables materializes a merged ranking — FetchTables under
// discovery.Remote's tolerant contract: shards that became unreachable
// after answering the discover calls simply drop their names from the map
// (the ranking entries keep their stubs; the epoch resample decides if it
// matters), and only other failures and malformed responses error.
//
// A name whose owning shard's element of epochs (the attempt's before-
// sample) is cacheable is served from the table cache when it holds the
// name under that element, and fetched and stored under it otherwise; a
// shard call the cache avoids is not made. Only names requested from the
// shard that returned them are stored.
func (c *Coordinator) ResolveTables(ctx context.Context, names []string, epochs []uint64) (map[string]*table.Table, error) {
	out := make(map[string]*table.Table, len(names))
	perShard := make([][]string, len(c.shards))
	for _, n := range names {
		s := c.ShardFor(n)
		if e, ok := c.tableEpoch(epochs, s); ok {
			if t := c.tables.lookup(n, s, e); t != nil {
				out[n] = t
				continue
			}
		}
		perShard[s] = append(perShard[s], n)
	}
	resolved, err := c.fetchShards(ctx, perShard, isUnavailable)
	if err != nil {
		return nil, err
	}
	for s, ts := range resolved {
		e, cacheable := c.tableEpoch(epochs, s)
		for _, t := range ts {
			out[t.Name] = t
			if cacheable && slices.Contains(perShard[s], t.Name) {
				c.tables.store(t.Name, s, e, t)
			}
		}
	}
	return out, nil
}

// tableEpoch returns shard s's element of an epoch vector and whether the
// table cache may key on it. It may only when the vector has the
// coordinator's shape — its own counter and one element per shard (a shard
// server is a single lake, and a down shard's epochDown is one element too)
// — and the element is even (no mutation in flight) and not epochDown.
func (c *Coordinator) tableEpoch(epochs []uint64, s int) (uint64, bool) {
	if len(epochs) != 1+len(c.shards) {
		return 0, false
	}
	e := epochs[1+s]
	return e, e%2 == 0 && e != epochDown
}

// ShardHealth probes every shard's /healthz (and epoch endpoint, for the
// size) concurrently — the coordinator /healthz aggregation.
func (c *Coordinator) ShardHealth(ctx context.Context) []serve.ShardHealth {
	return probeShards(ctx, c.shards, c.cfg.ProbeTimeout)
}

// probeShards asks each shard for its health status and, when it answers,
// its size, concurrently and under one timeout per shard. An unreachable
// shard reports Status "down" with the transport error.
func probeShards(ctx context.Context, shards []*shardClient, timeout time.Duration) []serve.ShardHealth {
	out := make([]serve.ShardHealth, len(shards))
	par.For(len(shards), func(i int) {
		sh := serve.ShardHealth{Shard: i, Addr: shards[i].addr}
		pctx, cancel := context.WithTimeout(ctx, timeout)
		defer cancel()
		if h, err := shards[i].health(pctx); err != nil {
			sh.Status = "down"
			sh.Error = err.Error()
		} else {
			sh.Status = h.Status
			if ep, err := shards[i].epochs(pctx); err == nil {
				sh.Size = ep.Size
			}
		}
		out[i] = sh
	})
	return out
}

// ShardMetrics snapshots the per-shard fan-out transport counters and each
// shard's share of the table cache — the coordinator /metrics aggregation.
func (c *Coordinator) ShardMetrics() []serve.ShardMetrics {
	out := make([]serve.ShardMetrics, len(c.shards))
	for i, sc := range c.shards {
		p50, p99, max, sum, count := sc.lat.Quantiles()
		tc := &c.tables.shards[i]
		out[i] = serve.ShardMetrics{
			Shard:               i,
			Addr:                sc.addr,
			Calls:               sc.calls.Load(),
			Errors:              sc.errs.Load(),
			Retries:             sc.retryCount.Load(),
			Count:               count,
			P50NS:               int64(p50),
			P99NS:               int64(p99),
			MaxNS:               int64(max),
			SumNS:               int64(sum),
			TableCacheHits:      tc.hits.Load(),
			TableCacheMisses:    tc.misses.Load(),
			TableCacheStale:     tc.stale.Load(),
			TableCacheEvictions: tc.evictions.Load(),
			TableCacheBytes:     tc.bytes.Load(),
		}
	}
	return out
}

// CloseIdleConnections drops the pooled transport's idle shard
// connections — tests and shutdown paths use it so keep-alive conns stop
// holding goroutines.
func (c *Coordinator) CloseIdleConnections() {
	if len(c.shards) > 0 {
		c.shards[0].hc.CloseIdleConnections()
	}
}

// Addrs returns the normalized shard base URLs in shard order.
func (c *Coordinator) Addrs() []string {
	out := make([]string, len(c.shards))
	for i, sc := range c.shards {
		out[i] = sc.addr
	}
	return out
}

// ProbeShards probes each address's health and size without building a
// Coordinator — shardctl's path, which must keep working when every shard
// is down. Only malformed addresses error; unreachable shards report Status
// "down".
func ProbeShards(ctx context.Context, addrs []string, timeout time.Duration) ([]serve.ShardHealth, error) {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	hc := &http.Client{}
	clients := make([]*shardClient, len(addrs))
	for i, addr := range addrs {
		base, err := normalizeAddr(addr)
		if err != nil {
			return nil, err
		}
		clients[i] = &shardClient{shard: i, addr: base, hc: hc, callTimeout: timeout}
	}
	return probeShards(ctx, clients, timeout), nil
}

// involvedShards lists the shard indices with non-empty slices, ascending.
func involvedShards[T any](perShard [][]T) []int {
	var out []int
	for i := range perShard {
		if len(perShard[i]) > 0 {
			out = append(out, i)
		}
	}
	return out
}

// firstErr returns the first non-nil error — slot order, so deterministic.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// isUnavailable reports whether err means "shard cannot answer right now".
func isUnavailable(err error) bool {
	return errors.Is(err, discovery.ErrShardUnavailable)
}
