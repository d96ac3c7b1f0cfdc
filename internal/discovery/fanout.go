package discovery

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/lake"
	"repro/internal/par"
	"repro/internal/table"
)

// Target is what a discovery run executes against: a set of shards plus the
// seqlock epoch vector that guards multi-index reads. *lake.Lake (its own
// single shard), *lake.Sharded, and the lake.Catalog interface the pipeline
// holds all satisfy it, as does a cluster coordinator whose shards are
// remote processes. How a work item is executed is the target's second
// interface — in-process targets expose `Shards() []*lake.Lake` and the
// item is one (discoverer, shard) pair, a direct Discover call on the shard
// lake; remote targets implement Remote and the item is one shard, a single
// DiscoverShard transport call carrying every discoverer of the run.
// Everything around the item — the (discoverer, shard) slot grid, panic
// containment, tolerance, merge, epoch guard — is the one fan-out in RunAll.
type Target interface {
	// Epochs samples the target's mutation-epoch vector — see
	// lake.Catalog.Epochs for the seqlock protocol. A clean run samples
	// the same all-even vector before and after its fan-out.
	Epochs() []uint64
}

// Remote extends Target for shard sets reached over a transport (the
// cluster coordinator's HTTP shards). The fan-out calls DiscoverShard once
// per shard with every discoverer of the run; implementations run the
// named methods on the remote shard in one round trip and return their
// ranked results, whose Table pointers may be name-only stubs. After the
// merge, RunAll materializes the surviving top-k through one ResolveTables
// batch.
type Remote interface {
	Target
	// NumShards reports the shard count (fixed for the target's lifetime).
	NumShards() int
	// DiscoverShard runs the discoverers ds on one shard and returns one
	// ranking and one error per discoverer, in ds order: slot i is ds[i]'s
	// (discoverer, shard) slot of the fan-out. A failure of the shard as a
	// whole fills every error slot. An error wrapping ErrShardUnavailable
	// marks the shard down/degraded — tolerated by RunAll; any other error
	// is a hard failure.
	DiscoverShard(ctx context.Context, shard int, ds []Discoverer, q *Query) ([][]Result, []error)
	// ResolveTables fetches the named tables. Names it cannot resolve —
	// removed mid-run, or their shard became unreachable after answering
	// the discover call — are simply absent from the map; implementations
	// return an error only for malformed responses. epochs is the vector
	// the attempt sampled before its fan-out; an implementation may serve
	// a table it fetched earlier under the same vector element, because
	// RunAll retries any attempt whose after-sample differs.
	ResolveTables(ctx context.Context, names []string, epochs []uint64) (map[string]*table.Table, error)
}

// Query is one RunAll call's query as a Remote receives it. Every shard
// call of the run — the torn-read retry's included — gets the same *Query,
// so a transport encodes its request once per run instead of once per
// shard (Encoded).
type Query struct {
	Table  *table.Table
	Column int
	// K is the per-method result bound; k <= 0 means unbounded.
	K int

	once    sync.Once
	encoded []byte
	err     error
}

// Encoded returns what encode returns, running encode on the run's first
// call only; concurrent callers wait for it. encode must not depend on
// which shard asks.
func (q *Query) Encoded(encode func() ([]byte, error)) ([]byte, error) {
	q.once.Do(func() { q.encoded, q.err = encode() })
	return q.encoded, q.err
}

// ErrShardUnavailable marks a per-shard discovery failure caused by the
// shard being unreachable, shedding, or degraded — as opposed to the query
// itself being invalid. RunAll tolerates slots whose errors wrap it,
// returning the surviving shards' merged rankings plus a ShardError per
// down shard.
var ErrShardUnavailable = errors.New("shard unavailable")

// ShardError records that one shard contributed nothing to a partial run,
// and why. It wraps the underlying per-shard error, so errors.Is/As see
// through it (every ShardError from RunAll wraps ErrShardUnavailable).
type ShardError struct {
	// Shard is the shard index within the target.
	Shard int
	// Err is the underlying failure, wrapping ErrShardUnavailable.
	Err error
}

func (e ShardError) Error() string { return fmt.Sprintf("shard %d: %v", e.Shard, e.Err) }
func (e ShardError) Unwrap() error { return e.Err }

// PanicError is a discoverer panic contained by the fan-out: a server-side
// fault in a (usually user-registered) method, not the caller's error. The
// serving layer matches it with errors.As to answer 500.
type PanicError struct {
	// Method names the discoverer that panicked.
	Method string
	// Value is what it panicked with.
	Value any
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("discovery: %q panicked: %v", e.Method, e.Value)
}

// tornRetries is how many times RunAll re-executes a run whose epoch
// samples prove it may have read the lake mid-mutation. One retry is
// enough: the retry re-reads the epoch, and a steady lake settles it;
// under continuous mutation churn the retried run's results are still a
// valid answer for *some* recent lake state, which is all a concurrent
// reader was ever promised.
const tornRetries = 1

// epochsClean reports whether an epoch-vector pair proves a run untorn:
// same length (a shard set that changed shape mid-run is a perturbation),
// elementwise equal, and every element even (no mutation in flight on
// either side of the run).
func epochsClean(e1, e2 []uint64) bool {
	if len(e1) != len(e2) {
		return false
	}
	for i := range e1 {
		if e1[i] != e2[i] || e1[i]%2 != 0 {
			return false
		}
	}
	return true
}

// shardCall runs work item j of one fan-out attempt and writes the
// (discoverer, shard) slots it covers: slot i*ns+s holds discoverer i's
// ranking on shard s, and slot j is always the item's first slot.
type shardCall func(ctx context.Context, j int, per [][]Result, errs []error)

// resolveFunc is Remote.ResolveTables: names and the attempt's before-
// sample in, materialized tables out.
type resolveFunc func(ctx context.Context, names []string, epochs []uint64) (map[string]*table.Table, error)

// shardCalls resolves how the target's shards are reached: the shard count,
// the number of work items and the per-item call. An in-process item is
// one slot — item j runs discoverer j/ns on shard j%ns — so no method
// waits for another method on its shard; a remote item is one shard — item
// j is a single DiscoverShard call carrying every discoverer to shard j,
// and there is none when there is no discoverer. resolve is non-nil when
// results arrive as name-only stubs that must be materialized after the
// merge (remote targets). In-process shard lists are re-read on every
// call, so a retried attempt sees the target's current shards.
func shardCalls(t Target, q *Query, ds []Discoverer) (ns, items int, call shardCall, resolve resolveFunc, err error) {
	switch tt := t.(type) {
	case interface{ Shards() []*lake.Lake }:
		shards := tt.Shards()
		ns = len(shards)
		return ns, len(ds) * ns, func(ctx context.Context, j int, per [][]Result, errs []error) {
			per[j], errs[j] = ds[j/ns].Discover(ctx, shards[j%ns], q.Table, q.Column, q.K)
		}, nil, nil
	case Remote:
		ns = tt.NumShards()
		return ns, min(len(ds), 1) * ns, func(ctx context.Context, shard int, per [][]Result, errs []error) {
			rs, es := tt.DiscoverShard(ctx, shard, ds, q)
			for i := range ds {
				per[i*ns+shard], errs[i*ns+shard] = rs[i], es[i]
			}
		}, tt.ResolveTables, nil
	default:
		return 0, 0, nil, nil, fmt.Errorf("discovery: target %T exposes neither in-process shards nor a remote transport", t)
	}
}

// RunAll executes the given discoverers over one query against every shard
// of the target and returns the merged result lists slot-indexed: out[i] is
// ds[i]'s ranked results over the whole catalog. The fan-out fills one slot
// per (discoverer, shard) pair — one work item per slot in process, one
// work item per shard for a Remote (see shardCalls). Per-shard rankings
// concatenate and re-rank by (score descending, table name ascending) —
// table names are unique catalog-wide, so the comparator is total and the
// merge deterministic regardless of shard count, transport or scheduling;
// against a single-shard target the output is byte-identical to running
// the methods sequentially. A shard's SANTOS and JOSIE indexes are
// immutable (its mutations publish new ones), its LSH Ensemble is the one
// index that takes a read lock, and every shared interner is
// lock-protected, so discoverers — including user-defined similarity hooks
// (Fig. 4), which must be safe to call concurrently — run without
// coordination across the fan-out.
//
// Errors and degradation: slots whose error wraps ErrShardUnavailable — a
// remote shard down, shedding, or degraded — contribute empty rankings
// instead of failing the run, and the down shards are reported as
// ShardErrors (deduplicated per shard, ascending shard order). A non-empty
// ShardError list is the "partial" marker the serving layer surfaces to
// clients: the rankings are complete over the reachable shards only. When no
// slot answered at all — every shard down — there is nothing to be partial
// about, and the run fails with the first slot's error (a down remote
// shard's 503 + Retry-After) instead of an empty ranking. Any other failure
// fails the whole run with the first error in (discoverer, shard) slot
// order — deterministic regardless of which worker finished first. A
// failure of a remote shard as a whole lands in every slot of that shard.
// A panicking discoverer surfaces as its slot's *PanicError: on a worker
// goroutine a panic would otherwise kill the process (a Remote contains
// its own methods' panics; one escaping DiscoverShard is charged to the
// item's first slot).
//
// Torn-read protection: a discovery run concurrent with Add/Remove could
// otherwise observe the lake between per-index updates (a table visible to
// JOSIE but not yet to SANTOS) — or, on a sharded target, observe some
// shards pre-mutation and others post-mutation. RunAll samples the target's
// mutation-epoch vector before and after the fan-out; any mutation
// overlapping the run perturbs some element (a mutation applied directly to
// one shard perturbs that shard's element even when the composite counter
// never moves), and RunAll re-executes once. See lake.(*Lake).Epoch.
//
// Cancellation propagates to every worker: ctx flows into each discoverer
// (the built-ins check it inside their index scans) and the fan-out itself
// stops dispatching once ctx is done. RunAll returns only after every
// in-flight discoverer has returned — cancelling a query never leaks a
// worker goroutine — and reports ctx.Err() when the context was cancelled.
func RunAll(ctx context.Context, t Target, q *table.Table, queryCol, k int, ds []Discoverer) ([][]Result, []ShardError, error) {
	out, serrs, _, err := runAll(ctx, t, q, queryCol, k, ds)
	return out, serrs, err
}

// runAll is RunAll that also returns the epoch vector the answer is proved
// to hold under: the vector sampled before and after the final attempt
// when the two are equal and all even, nil when that attempt was torn.
func runAll(ctx context.Context, t Target, q *table.Table, queryCol, k int, ds []Discoverer) ([][]Result, []ShardError, []uint64, error) {
	query := &Query{Table: q, Column: queryCol, K: k}
	for attempt := 0; ; attempt++ {
		e1 := t.Epochs()
		ns, items, call, resolve, err := shardCalls(t, query, ds)
		if err != nil {
			return nil, nil, nil, err
		}
		nd := len(ds)
		per := make([][]Result, nd*ns)
		errs := make([]error, nd*ns)
		ferr := par.ForCtx(ctx, items, func(j int) {
			defer func() {
				if r := recover(); r != nil {
					errs[j] = &PanicError{Method: ds[j/ns].Name(), Value: r}
				}
			}()
			call(ctx, j, per, errs)
		})
		if ferr != nil {
			return nil, nil, nil, ferr
		}
		serrs, err := collectSlots(per, errs, ns)
		if err != nil {
			return nil, nil, nil, err
		}
		out := make([][]Result, nd)
		if ns == 1 && len(serrs) == 0 {
			// One answering shard: its rankings are the catalog's, unmerged —
			// a user discoverer's own result order survives untouched.
			copy(out, per)
		} else {
			for i := 0; i < nd; i++ {
				out[i] = mergeShardRankings(per[i*ns:(i+1)*ns], k)
			}
		}
		if resolve != nil {
			if err := materialize(ctx, out, resolve, e1); err != nil {
				return nil, nil, nil, err
			}
		}
		// A clean run sampled the same all-even epoch vector on both sides:
		// no mutation was in flight anywhere when it started and none
		// started before it finished. A down shard's sentinel element is
		// even and stable while it stays down, so degraded targets do not
		// retry-storm.
		if epochsClean(e1, t.Epochs()) {
			return out, serrs, e1, nil
		}
		if attempt == tornRetries {
			return out, serrs, nil, nil
		}
	}
}

// collectSlots applies the tolerance policy to one fan-out's slot errors:
// hard errors surface first-in-slot-order; slots wrapping
// ErrShardUnavailable are cleared to empty rankings and recorded once per
// shard, unless every slot failed, which surfaces the first slot's error.
func collectSlots(per [][]Result, errs []error, ns int) ([]ShardError, error) {
	down := make(map[int]error)
	failed := 0
	for j, err := range errs {
		if err == nil {
			continue
		}
		if !errors.Is(err, ErrShardUnavailable) {
			return nil, err
		}
		if _, seen := down[j%ns]; !seen {
			down[j%ns] = err
		}
		per[j] = nil
		failed++
	}
	if failed > 0 && failed == len(errs) {
		return nil, errs[0]
	}
	var serrs []ShardError
	for shard := 0; shard < ns; shard++ {
		if err, ok := down[shard]; ok {
			serrs = append(serrs, ShardError{Shard: shard, Err: err})
		}
	}
	return serrs, nil
}

// materialize replaces the name-only stubs of merged remote rankings with
// full tables: one batch fetch of every distinct name (fetching every
// shard's full candidate lists instead would defeat the top-k truncation).
// A name that resolves to nothing (removed mid-run, or its shard died after
// answering) keeps its stub — the ranking entry stays correct by (name,
// score), and Discover excludes column-less stubs from the integration set.
// epochs, the attempt's before-sample, passes through to the resolver.
func materialize(ctx context.Context, out [][]Result, resolve resolveFunc, epochs []uint64) error {
	var names []string
	seen := make(map[string]bool)
	for _, rs := range out {
		for _, r := range rs {
			if !seen[r.Table.Name] {
				seen[r.Table.Name] = true
				names = append(names, r.Table.Name)
			}
		}
	}
	if len(names) == 0 {
		return nil
	}
	resolved, err := resolve(ctx, names, epochs)
	if err != nil {
		return err
	}
	for _, rs := range out {
		for i := range rs {
			if tbl, ok := resolved[rs[i].Table.Name]; ok {
				rs[i].Table = tbl
			}
		}
	}
	return nil
}

// mergeShardRankings concatenates one discoverer's per-shard rankings and
// re-ranks them globally. Every discoverer reports at most one result per
// table and each table lives on exactly one shard, so the concatenation
// has no duplicates and topK's (score descending, name ascending) order is
// total. Per-shard lists were already truncated to their local top-k, which
// is safe: a shard's k+1st result can never enter the global top k.
func mergeShardRankings(lists [][]Result, k int) []Result {
	out := []Result{}
	for _, l := range lists {
		out = append(out, l...)
	}
	return topK(out, k)
}

// resolve maps method names to registered discoverers, in input order.
// Unknown names fail with the available set, before any discoverer runs.
func (r *Registry) resolve(names []string) ([]Discoverer, error) {
	ds := make([]Discoverer, len(names))
	for i, name := range names {
		d, ok := r.Get(name)
		if !ok {
			return nil, fmt.Errorf("discovery: unknown method %q (have %v)", name, r.Names())
		}
		ds[i] = d
	}
	return ds, nil
}

// Discover is the full discovery stage in one call: resolve the named
// methods against the registry, fan them out over the target's shards with
// RunAll, and merge the per-method rankings into the integration set
// ("we persist the set of tables found by all techniques"). perMethod is
// keyed by method name; the integration set lists the query table first,
// then discovered tables deduplicated in method order then rank order
// (excluding any result whose table could not be materialized — a
// column-less stub cannot be integrated). shardErrs is non-empty when the
// run was partial: some shards were unreachable and contributed nothing
// (see RunAll) — in practice only remote targets, since in-process shards
// either answer or fail hard. Cancelling ctx aborts the fan-out and returns
// ctx.Err() (see RunAll).
func Discover(ctx context.Context, r *Registry, t Target, q *table.Table, queryCol, k int, methods []string) (perMethod map[string][]Result, integrationSet []*table.Table, shardErrs []ShardError, err error) {
	a, err := DiscoverAnswer(ctx, r, t, q, queryCol, k, methods)
	if err != nil {
		return nil, nil, nil, err
	}
	return a.PerMethod, a.IntegrationSet, a.ShardErrors, nil
}

// Answer is the discovery stage's output (core.DiscoverResponse).
type Answer struct {
	// PerMethod holds each method's ranked results, keyed by method name.
	PerMethod map[string][]Result
	// IntegrationSet is the deduplicated union of all results with the
	// query table first — the input to Align & Integrate. Its discovered
	// tables are the results' shared tables, read-only like Result.Table.
	IntegrationSet []*table.Table
	// ShardErrors is non-empty when the run was partial: some shards of a
	// cluster-mode catalog were unreachable and contributed nothing
	// (RunAll). PerMethod and IntegrationSet then cover the reachable
	// shards only. Always empty for in-process lakes.
	ShardErrors []ShardError
	// Epochs is the target's epoch vector sampled before and after the
	// final fan-out attempt, when the two samples are equal and all even:
	// the answer is the catalog's answer at that vector. Nil when the final
	// attempt was torn (RunAll).
	Epochs []uint64
}

// Partial reports whether the run covered only part of the catalog — see
// ShardErrors.
func (a *Answer) Partial() bool { return len(a.ShardErrors) > 0 }

// DiscoverAnswer is Discover returning an Answer, which also carries the
// epoch vector — what a caller needs to key answers by the catalog state
// they hold under (serve's answer cache).
func DiscoverAnswer(ctx context.Context, r *Registry, t Target, q *table.Table, queryCol, k int, methods []string) (*Answer, error) {
	ds, err := r.resolve(methods)
	if err != nil {
		return nil, err
	}
	all, shardErrs, epochs, err := runAll(ctx, t, q, queryCol, k, ds)
	if err != nil {
		return nil, err
	}
	perMethod := make(map[string][]Result, len(methods))
	for i, m := range methods {
		perMethod[m] = all[i]
	}
	return &Answer{PerMethod: perMethod, IntegrationSet: mergeIntegrationSet(q, all...), ShardErrors: shardErrs, Epochs: epochs}, nil
}
