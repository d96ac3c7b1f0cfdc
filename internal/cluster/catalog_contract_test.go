package cluster_test

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"testing"

	"repro/internal/difftest"
	"repro/internal/lake"
)

// TestCatalogContract runs lake.Catalog's two reads against every catalog
// shape — a plain lake, an in-process sharded lake, and a coordinator over
// HTTP shard servers — with one table of cases: whichever shape the
// pipeline and the serving layer hold, FetchTables and TableNames answer
// the same way.
func TestCatalogContract(t *testing.T) {
	pool := diffPool(53, 9)
	opts := lake.Options{Knowledge: difftest.DiffKB()}
	plain, err := lake.New(pool, opts)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := lake.NewSharded(pool, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	tc := startCluster(t, pool, 3)
	defer coordClient(tc.coord)

	a, b := pool[0].Name, pool[7].Name
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	fetches := []struct {
		what  string
		ctx   context.Context
		names []string
		want  []string // names expected in the map; nil with a cancelled ctx
	}{
		{"hit", context.Background(), []string{a, b}, []string{a, b}},
		{"miss", context.Background(), []string{"no-such-table"}, []string{}},
		{"mixed", context.Background(), []string{"ghost", b, "phantom"}, []string{b}},
		{"repeated name", context.Background(), []string{a, a}, []string{a}},
		{"empty", context.Background(), nil, []string{}},
		{"cancelled ctx", cancelled, []string{a, b}, nil},
	}
	for name, c := range map[string]lake.Catalog{"lake": plain, "sharded": sharded, "coordinator": tc.coord} {
		for _, f := range fetches {
			got, err := c.FetchTables(f.ctx, f.names)
			if f.want == nil {
				if !errors.Is(err, context.Canceled) {
					t.Errorf("%s: FetchTables %s = (%d tables, %v), want context.Canceled", name, f.what, len(got), err)
				}
				continue
			}
			if err != nil {
				t.Errorf("%s: FetchTables %s: %v", name, f.what, err)
				continue
			}
			if len(got) != len(f.want) {
				t.Errorf("%s: FetchTables %s returned %d tables, want %v", name, f.what, len(got), f.want)
			}
			for _, n := range f.want {
				want, _ := plain.Get(n)
				if tbl := got[n]; tbl == nil || tbl.Name != n || !tbl.EqualUnordered(want) {
					t.Errorf("%s: FetchTables %s: %q came back as %v", name, f.what, n, tbl)
				}
			}
		}

		names, err := c.TableNames(context.Background())
		if err != nil {
			t.Errorf("%s: TableNames: %v", name, err)
		}
		// Order is shape-specific (insertion order in process, shard order in
		// a cluster); the set is not.
		want := make([]string, len(pool))
		for i, tbl := range pool {
			want[i] = tbl.Name
		}
		if name != "coordinator" && !reflect.DeepEqual(names, want) {
			t.Errorf("%s: TableNames = %v, want insertion order %v", name, names, want)
		}
		sort.Strings(names)
		sort.Strings(want)
		if !reflect.DeepEqual(names, want) {
			t.Errorf("%s: TableNames = %v, want the set %v", name, names, want)
		}
		if names, err := c.TableNames(cancelled); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: TableNames under a cancelled ctx = (%v, %v), want context.Canceled", name, names, err)
		}
		if got := c.Size(); got != len(pool) {
			t.Errorf("%s: Size = %d, want %d", name, got, len(pool))
		}
	}
}
