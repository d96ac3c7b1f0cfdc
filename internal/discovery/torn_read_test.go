// torn_read_test holds the fan-out's test discoverer and the steady-lake
// check: a run with no concurrent mutation executes each discoverer exactly
// once per shard. What a mutation landing mid-run does to an answer is
// pinned in pin_test.go.
package discovery_test

import (
	"context"
	"testing"

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
