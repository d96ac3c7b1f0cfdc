// torn_read_test provokes the torn multi-index read that RunAll's epoch
// sampling exists to catch: a Remove landing in the middle of a discovery
// fan-out, so one discoverer answers from the pre-mutation catalog and
// another from the post-mutation one. Before the epoch retry existed this
// deterministically produced an inconsistent result set (the removed table
// present in one method's ranking, absent from another's); with it, RunAll
// detects the perturbed epoch and re-executes once against the settled
// lake. Run under -race: the mutation happens on a fan-out worker while
// the other worker reads.
package discovery_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/difftest"
	"repro/internal/discovery"
	"repro/internal/lake"
	"repro/internal/table"
)

// funcDiscoverer adapts a closure to discovery.Discoverer so the test can
// wrap a real method with side effects at controlled points.
type funcDiscoverer struct {
	name string
	fn   func(ctx context.Context, l *lake.Lake, q *table.Table, queryCol, k int) ([]discovery.Result, error)
}

func (d funcDiscoverer) Name() string { return d.name }
func (d funcDiscoverer) Discover(ctx context.Context, l *lake.Lake, q *table.Table, queryCol, k int) ([]discovery.Result, error) {
	return d.fn(ctx, l, q, queryCol, k)
}

func hasTable(rs []discovery.Result, name string) bool {
	for _, r := range rs {
		if r.Table.Name == name {
			return true
		}
	}
	return false
}

// TestRunAllRetriesTornRead removes a table from inside the fan-out —
// after one discoverer has computed its answer but before the other has
// started — and asserts RunAll's returned slots are nonetheless mutually
// consistent: the removed table appears in neither, because the epoch
// mismatch forced a retry against the settled catalog.
func TestRunAllRetriesTornRead(t *testing.T) {
	cities := func(name string, vals ...string) *table.Table {
		tbl := table.New(name, "city")
		for _, v := range vals {
			tbl.MustAddRow(table.StringValue(v))
		}
		return tbl
	}
	victim := cities("victim", "berlin", "paris", "tokyo")
	other := cities("other", "berlin", "lyon")
	l, err := lake.New([]*table.Table{victim, other}, lake.Options{Knowledge: difftest.DiffKB()})
	if err != nil {
		t.Fatal(err)
	}
	query := cities("query", "berlin", "paris", "tokyo")

	var (
		josie       discovery.JosieJoin
		once        sync.Once
		mutated     = make(chan struct{})
		mu          sync.Mutex
		firstTorn   []discovery.Result // the stale answer attempt 1 returned
		firstCalls  int
		secondCalls int
	)
	// first computes its ranking from the pre-mutation catalog, then (once)
	// removes the victim and releases second — and still returns the stale
	// ranking, exactly what a discoverer racing a Remove would produce.
	first := funcDiscoverer{name: "mutate-after-read", fn: func(ctx context.Context, sl *lake.Lake, q *table.Table, queryCol, k int) ([]discovery.Result, error) {
		rs, err := josie.Discover(ctx, sl, q, queryCol, k)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		firstCalls++
		if firstCalls == 1 {
			firstTorn = rs
		}
		mu.Unlock()
		once.Do(func() {
			if rerr := l.Remove("victim"); rerr != nil {
				err = fmt.Errorf("mid-run Remove: %w", rerr)
			}
			close(mutated)
		})
		return rs, err
	}}
	// second only starts after the removal has landed, so on the torn
	// attempt it answers from the post-mutation catalog.
	second := funcDiscoverer{name: "wait-then-read", fn: func(ctx context.Context, sl *lake.Lake, q *table.Table, queryCol, k int) ([]discovery.Result, error) {
		select {
		case <-mutated:
		case <-time.After(10 * time.Second):
			return nil, errors.New("timed out waiting for the mid-run mutation")
		}
		mu.Lock()
		secondCalls++
		mu.Unlock()
		return josie.Discover(ctx, sl, q, queryCol, k)
	}}

	out, _, err := discovery.RunAll(context.Background(), l, query, 0, 0, []discovery.Discoverer{first, second})
	if err != nil {
		t.Fatal(err)
	}

	// The provocation worked: attempt 1's first slot really was stale.
	if !hasTable(firstTorn, "victim") {
		t.Fatalf("test did not provoke a torn read: attempt 1 never saw %q (results %+v)", "victim", firstTorn)
	}
	// The epoch mismatch forced exactly one retry of the whole fan-out.
	if firstCalls != 2 || secondCalls != 2 {
		t.Fatalf("fan-out ran %d/%d times per discoverer, want 2/2 (one torn attempt + one retry)", firstCalls, secondCalls)
	}
	// And the returned slots are mutually consistent: the removed table is
	// gone from both, not present in one and absent from the other.
	if len(out) != 2 {
		t.Fatalf("RunAll returned %d slots, want 2", len(out))
	}
	for i, rs := range out {
		if hasTable(rs, "victim") {
			t.Errorf("slot %d still ranks removed table %q: torn read survived the retry\nresults: %+v", i, "victim", rs)
		}
		if !hasTable(rs, "other") {
			t.Errorf("slot %d lost surviving table %q: %+v", i, "other", rs)
		}
	}
}

// TestRunAllSteadyLakeSingleAttempt pins the epoch sampling's no-op cost:
// a run with no concurrent mutation must execute each discoverer exactly
// once per shard — no spurious retries.
func TestRunAllSteadyLakeSingleAttempt(t *testing.T) {
	tbl := table.New("steady", "city")
	tbl.MustAddRow(table.StringValue("berlin"))
	l, err := lake.New([]*table.Table{tbl}, lake.Options{Knowledge: difftest.DiffKB()})
	if err != nil {
		t.Fatal(err)
	}
	var calls int
	d := funcDiscoverer{name: "counter", fn: func(ctx context.Context, sl *lake.Lake, q *table.Table, queryCol, k int) ([]discovery.Result, error) {
		calls++
		return nil, nil
	}}
	if _, _, err := discovery.RunAll(context.Background(), l, tbl, 0, 0, []discovery.Discoverer{d}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("steady lake ran the discoverer %d times, want 1", calls)
	}
}
