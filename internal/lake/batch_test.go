package lake_test

import (
	"reflect"
	"testing"

	"repro/internal/lake"
	"repro/internal/table"
)

// TestBatchPlannerAdmission pins the one admission rule behind every
// catalog shape, with the exact texts their callers surface: lake.New /
// NewSharded ("lake"), Lake.Add / Sharded.Add / cluster.Coordinator.Add
// ("lake: add") and persist.Store ("persist: add", "persist: remove").
func TestBatchPlannerAdmission(t *testing.T) {
	a, b := table.New("a", "c"), table.New("b", "c")
	inCatalog := func(name string) (*table.Table, bool) { return a, name == "a" }
	for _, tc := range []struct {
		name   string
		op     string
		batch  []*table.Table
		lookup func(string) (*table.Table, bool)
		want   string // "" means admitted
	}{
		{"fresh batch", "lake: add", []*table.Table{b, table.New("c", "c")}, inCatalog, ""},
		{"empty batch", "lake", nil, nil, ""},
		{"build: nil table", "lake", []*table.Table{a, nil}, nil, "lake: nil table"},
		{"build: empty name", "lake", []*table.Table{table.New("", "c")}, nil, "lake: table with empty name"},
		{"build: duplicate within input", "lake", []*table.Table{a, b, table.New("a", "c")}, nil, `lake: duplicate table name "a"`},
		{"add: nil table", "lake: add", []*table.Table{b, nil}, inCatalog, "lake: add: nil table"},
		{"add: empty name", "lake: add", []*table.Table{b, table.New("")}, inCatalog, "lake: add: table with empty name"},
		{"add: duplicate against catalog", "lake: add", []*table.Table{b, a}, inCatalog, `lake: add: duplicate table name "a"`},
		{"add: duplicate within batch", "lake: add", []*table.Table{b, table.New("b", "c")}, inCatalog, `lake: add: duplicate table name "b"`},
		{"coordinator add: batch-only check admits a catalog duplicate", "lake: add", []*table.Table{a}, nil, ""},
		{"store add: nil table", "persist: add", []*table.Table{nil}, inCatalog, "persist: add: nil table"},
		{"store add: empty name", "persist: add", []*table.Table{table.New("", "c")}, inCatalog, "persist: add: table with empty name"},
		{"store add: duplicate", "persist: add", []*table.Table{a}, inCatalog, `persist: add: duplicate table name "a"`},
		{"first failure in batch order wins", "lake: add", []*table.Table{a, nil}, inCatalog, `lake: add: duplicate table name "a"`},
	} {
		err := lake.CheckAdd(tc.op, tc.batch, tc.lookup)
		if got := errText(err); got != tc.want {
			t.Errorf("CheckAdd %s: error %q, want %q", tc.name, got, tc.want)
		}
	}

	has := func(name string) (*table.Table, bool) { return nil, name == "a" || name == "b" }
	for _, tc := range []struct {
		name   string
		op     string
		names  []string
		lookup func(string) (*table.Table, bool)
		unique []string
		want   string
	}{
		{"known names", "lake: remove", []string{"b", "a"}, has, []string{"b", "a"}, ""},
		{"duplicates tolerated, first-seen order kept", "lake: remove", []string{"b", "a", "b", "a"}, has, []string{"b", "a"}, ""},
		{"unknown name", "lake: remove", []string{"a", "zz"}, has, nil, `lake: remove: no table "zz"`},
		{"first unknown in batch order", "lake: remove", []string{"y", "a", "x"}, has, nil, `lake: remove: no table "y"`},
		{"store remove: unknown name", "persist: remove", []string{"zz"}, has, nil, `persist: remove: no table "zz"`},
		{"coordinator remove: dedupe-only pass", "lake: remove", []string{"zz", "a", "zz"}, nil, []string{"zz", "a"}, ""},
	} {
		unique, err := lake.CheckRemove(tc.op, tc.names, tc.lookup)
		if got := errText(err); got != tc.want {
			t.Errorf("CheckRemove %s: error %q, want %q", tc.name, got, tc.want)
		}
		if !reflect.DeepEqual(unique, tc.unique) {
			t.Errorf("CheckRemove %s: unique = %v, want %v", tc.name, unique, tc.unique)
		}
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestBatchPlannerPartition pins the routing half: every item lands on
// ShardIndex(name, n), batch order survives within a shard, and tables and
// bare names route identically (an Add and its rollback Remove must meet on
// the same shard).
func TestBatchPlannerPartition(t *testing.T) {
	names := []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7", "t1"}
	tables := make([]*table.Table, len(names))
	for i, n := range names {
		tables[i] = table.New(n, "c")
	}
	for _, n := range []int{1, 2, 3, 5} {
		byName := lake.PartitionNames(names, n)
		byTable := lake.PartitionTables(tables, n)
		if len(byName) != n || len(byTable) != n {
			t.Fatalf("n=%d: %d/%d parts", n, len(byName), len(byTable))
		}
		want := make([][]string, n)
		for _, name := range names {
			i := lake.ShardIndex(name, n)
			want[i] = append(want[i], name)
		}
		for i := range want {
			if !reflect.DeepEqual(byName[i], want[i]) {
				t.Errorf("n=%d shard %d: names %v, want %v", n, i, byName[i], want[i])
			}
			var got []string
			for _, tbl := range byTable[i] {
				got = append(got, tbl.Name)
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("n=%d shard %d: tables %v, want %v", n, i, got, want[i])
			}
		}
	}
}
