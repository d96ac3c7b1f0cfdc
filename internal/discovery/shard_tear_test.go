// shard_tear_test provokes the sharded variant of the torn read: a
// mutation landing on ONE shard of a composite mid-fan-out, directly on
// the shard lake rather than through the composite (so the composite's own
// counter never moves — only that shard's element of the epoch vector
// changes). A scalar epoch sampled composite-side would miss this tear
// entirely; the per-shard vector catches it, which is exactly why RunAll's
// sampling generalized from one counter to the full vector. Run under
// -race: the mutation happens on a fan-out worker while others read.
package discovery_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/difftest"
	"repro/internal/discovery"
	"repro/internal/lake"
	"repro/internal/table"
)

// TestRunAllRetriesSingleShardTear removes a table from its owning shard
// directly — after the fan-out worker on that shard has computed its stale
// ranking, before another discoverer reads — and asserts the returned
// slots are mutually consistent because the vector mismatch forced exactly
// one retry.
func TestRunAllRetriesSingleShardTear(t *testing.T) {
	cities := func(name string, vals ...string) *table.Table {
		tbl := table.New(name, "city")
		for _, v := range vals {
			tbl.MustAddRow(table.StringValue(v))
		}
		return tbl
	}
	const shardN = 3
	victim := cities("victim", "berlin", "paris", "tokyo")
	other := cities("other", "berlin", "lyon")
	sh, err := lake.NewSharded([]*table.Table{victim, other}, shardN, lake.Options{Knowledge: difftest.DiffKB()})
	if err != nil {
		t.Fatal(err)
	}
	victimShard := sh.Shards()[lake.ShardIndex("victim", shardN)]
	query := cities("query", "berlin", "paris", "tokyo")

	var (
		josie                   discovery.JosieJoin
		once                    sync.Once
		mutated                 = make(chan struct{})
		mu                      sync.Mutex
		firstTorn               []discovery.Result // the victim shard's stale attempt-1 answer
		firstCalls, secondCalls int
	)
	// first computes its per-shard ranking; on the victim's shard it then
	// (once) removes the victim DIRECTLY from that shard lake — not via the
	// composite — and still returns the stale ranking. Only that shard's
	// epoch element has moved.
	first := funcDiscoverer{name: "shard-mutate-after-read", fn: func(ctx context.Context, sl *lake.Lake, q *table.Table, queryCol, k int) ([]discovery.Result, error) {
		rs, err := josie.Discover(ctx, sl, q, queryCol, k)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		firstCalls++
		mu.Unlock()
		if sl == victimShard {
			mu.Lock()
			if firstTorn == nil {
				firstTorn = rs
			}
			mu.Unlock()
			once.Do(func() {
				if rerr := victimShard.Remove("victim"); rerr != nil {
					err = rerr
				}
				close(mutated)
			})
		}
		return rs, err
	}}
	// second only reads after the shard-local removal has landed, so its
	// torn-attempt answer comes from the post-mutation shard state.
	second := funcDiscoverer{name: "wait-then-read", fn: func(ctx context.Context, sl *lake.Lake, q *table.Table, queryCol, k int) ([]discovery.Result, error) {
		select {
		case <-mutated:
		case <-time.After(10 * time.Second):
			return nil, errors.New("timed out waiting for the mid-fan-out shard mutation")
		}
		mu.Lock()
		secondCalls++
		mu.Unlock()
		return josie.Discover(ctx, sl, q, queryCol, k)
	}}

	out, _, err := discovery.RunAll(context.Background(), sh, query, 0, 0, []discovery.Discoverer{first, second})
	if err != nil {
		t.Fatal(err)
	}

	// The provocation worked: the victim shard's attempt-1 slot was stale.
	if !hasTable(firstTorn, "victim") {
		t.Fatalf("test did not provoke a torn read: attempt 1 on the victim shard never ranked %q (results %+v)", "victim", firstTorn)
	}
	// The vector mismatch forced exactly one retry of the whole fan-out:
	// each discoverer ran once per shard per attempt.
	if firstCalls != 2*shardN || secondCalls != 2*shardN {
		t.Fatalf("fan-out ran %d/%d shard calls per discoverer, want %d/%d (one torn attempt + one retry across %d shards)",
			firstCalls, secondCalls, 2*shardN, 2*shardN, shardN)
	}
	if len(out) != 2 {
		t.Fatalf("RunAll returned %d slots, want 2", len(out))
	}
	for i, rs := range out {
		if hasTable(rs, "victim") {
			t.Errorf("slot %d still ranks the removed table: single-shard tear survived the vector retry\nresults: %+v", i, rs)
		}
		if !hasTable(rs, "other") {
			t.Errorf("slot %d lost surviving table %q: %+v", i, "other", rs)
		}
	}
}
