package lake_test

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/difftest"
	"repro/internal/lake"
	"repro/internal/lshensemble"
	"repro/internal/table"
)

func shardedFixture(t *testing.T, n int) (*lake.Sharded, []*table.Table) {
	t.Helper()
	rng := rand.New(rand.NewSource(9))
	tables := make([]*table.Table, 6)
	for i := range tables {
		tables[i] = difftest.DiffTable(rng, string(rune('a'+i))+"_tbl")
	}
	s, err := lake.NewSharded(tables, n, lake.Options{Knowledge: difftest.DiffKB()})
	if err != nil {
		t.Fatal(err)
	}
	return s, tables
}

// TestShardIndexStable pins the routing hash: FNV-1a 64 of the name mod n.
// These values must never change — a future shard-per-process deployment
// routes by recomputing them, so an accidental hash change would strand
// every persisted placement.
func TestShardIndexStable(t *testing.T) {
	// Independent FNV-1a computation (hash/fnv semantics) as the oracle.
	fnv := func(s string) uint64 {
		h := uint64(14695981039346656037)
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * 1099511628211
		}
		return h
	}
	for _, name := range []string{"", "cities", "covid_vaccines", "a", "寿司"} {
		for _, n := range []int{1, 2, 3, 8, 17} {
			want := int(fnv(name) % uint64(n))
			if got := lake.ShardIndex(name, n); got != want {
				t.Fatalf("ShardIndex(%q, %d) = %d, want %d", name, n, got, want)
			}
		}
	}
	// A few literal pins so a hash-function change fails loudly even if the
	// oracle were changed in the same commit.
	if got := lake.ShardIndex("cities", 4); got != 2 {
		t.Errorf("ShardIndex(cities, 4) = %d, want pinned 2", got)
	}
	if got := lake.ShardIndex("covid_vaccines", 3); got != 2 {
		t.Errorf("ShardIndex(covid_vaccines, 3) = %d, want pinned 2", got)
	}
}

func TestNewShardedValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := difftest.DiffTable(rng, "a")
	b := difftest.DiffTable(rng, "b")
	if _, err := lake.NewSharded([]*table.Table{a}, 0, lake.Options{}); err == nil {
		t.Error("shard count 0 accepted")
	}
	if _, err := lake.NewSharded([]*table.Table{a, nil}, 2, lake.Options{}); err == nil || !strings.Contains(err.Error(), "nil table") {
		t.Errorf("nil table: %v", err)
	}
	dup := difftest.DiffTable(rng, "a")
	if _, err := lake.NewSharded([]*table.Table{a, b, dup}, 2, lake.Options{}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate name across input: %v", err)
	}
	if _, err := lake.NewSharded([]*table.Table{a}, 2, lake.Options{LSH: lshensemble.Options{Engine: "bogus"}}); err == nil || !strings.Contains(err.Error(), "unknown sketch engine") {
		t.Errorf("unknown engine: %v", err)
	}
	// n=1 is legal: one shard, still a Sharded.
	s, err := lake.NewSharded([]*table.Table{a, b}, 1, lake.Options{})
	if err != nil {
		t.Fatalf("n=1: %v", err)
	}
	if s.NumShards() != 1 || s.Size() != 2 {
		t.Errorf("n=1: NumShards=%d Size=%d", s.NumShards(), s.Size())
	}
}

func TestShardedAddRemoveAtomicity(t *testing.T) {
	s, tables := shardedFixture(t, 3)
	built := s.Epochs()
	rng := rand.New(rand.NewSource(2))
	fresh := difftest.DiffTable(rng, "fresh")
	// A batch with one duplicate (against the catalog) must reject whole.
	if err := s.Add(fresh, tables[0]); err == nil {
		t.Fatal("Add with duplicate accepted")
	}
	if _, ok := s.Get("fresh"); ok {
		t.Error("failed Add left a batch member indexed")
	}
	if s.Size() != len(tables) {
		t.Errorf("Size after failed Add = %d, want %d", s.Size(), len(tables))
	}
	// A batch duplicating within itself must reject whole.
	f2 := difftest.DiffTable(rng, "fresh")
	if err := s.Add(fresh, f2); err == nil {
		t.Fatal("Add with in-batch duplicate accepted")
	}
	// Remove with one unknown name must reject whole.
	if err := s.Remove(tables[1].Name, "nope"); err == nil {
		t.Fatal("Remove with unknown name accepted")
	}
	if _, ok := s.Get(tables[1].Name); !ok {
		t.Error("failed Remove dropped a batch member")
	}
	// The epoch vector is untouched by the failed mutations and moves with
	// every successful one.
	if e := s.Epochs(); !slices.Equal(e, built) {
		t.Fatalf("epochs after failed mutations = %v, want %v", e, built)
	}
	if err := s.Add(fresh); err != nil {
		t.Fatal(err)
	}
	added := s.Epochs()
	if slices.Equal(added, built) {
		t.Errorf("epochs after Add = %v, unchanged", added)
	}
	if err := s.Remove("fresh"); err != nil {
		t.Fatal(err)
	}
	removed := s.Epochs()
	if slices.Equal(removed, added) || slices.Equal(removed, built) {
		t.Errorf("epochs after Remove = %v, want new (built %v, after Add %v)", removed, built, added)
	}
	if e := s.Epochs(); !slices.Equal(e, removed) { // no mutation: the vector stays
		t.Errorf("epochs resampled = %v, want %v", e, removed)
	}
}

// TestShardedCatchesUpAfterDirectShardMutation removes a table on its shard
// directly, behind the composite's back, so the composite's published state
// still lists it. A routed Remove of that name then fails on the shard, and
// the composite must still catch up: the name is gone from Get, Tables and
// Size, and the epoch vector names the shard's new view.
func TestShardedCatchesUpAfterDirectShardMutation(t *testing.T) {
	s, tables := shardedFixture(t, 3)
	name := tables[1].Name
	owner := s.Shards()[s.ShardFor(name)]
	if err := owner.Remove(name); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(name); !ok {
		t.Fatal("the composite saw the direct Remove at once; the test checks nothing")
	}
	if err := s.Remove(name); err == nil {
		t.Fatal("a routed Remove of a name its shard no longer holds succeeded")
	}
	if _, ok := s.Get(name); ok {
		t.Error("Get still finds the name after the failed routed Remove")
	}
	if slices.Contains(s.Tables(), tables[1]) || s.Size() != len(tables)-1 {
		t.Errorf("Tables still lists the name, or Size = %d, want %d", s.Size(), len(tables)-1)
	}
	if got, want := s.Epochs()[s.ShardFor(name)], owner.Epochs()[0]; got != want {
		t.Errorf("the composite's element for the shard is %d, want the shard's generation %d", got, want)
	}
}

func TestShardedCatalogViews(t *testing.T) {
	s, tables := shardedFixture(t, 3)
	if s.Size() != len(tables) {
		t.Fatalf("Size = %d, want %d", s.Size(), len(tables))
	}
	for i, tbl := range s.Tables() {
		if tbl.Name != tables[i].Name {
			t.Fatalf("Tables()[%d] = %q, want %q (insertion order)", i, tbl.Name, tables[i].Name)
		}
	}
	for _, tbl := range tables {
		got, ok := s.Get(tbl.Name)
		if !ok || got != tbl {
			t.Fatalf("Get(%q) = %v, %v", tbl.Name, got, ok)
		}
		shard := s.Shards()[s.ShardFor(tbl.Name)]
		if _, ok := shard.Get(tbl.Name); !ok {
			t.Fatalf("table %q not on its routed shard %d", tbl.Name, s.ShardFor(tbl.Name))
		}
	}
	if _, ok := s.Get("absent"); ok {
		t.Error("Get(absent) reported present")
	}
}

// TestNewRejectsKMVEngine: MinHash is the only sketch engine, so a lake
// asking for the deleted KMV engine is refused at construction, sharded or
// not, rather than built on a silently substituted engine.
func TestNewRejectsKMVEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tables := []*table.Table{difftest.DiffTable(rng, "k1"), difftest.DiffTable(rng, "k2")}
	opts := lake.Options{Knowledge: difftest.DiffKB(), LSH: lshensemble.Options{Engine: "kmv"}}
	if _, err := lake.New(tables, opts); err == nil || !strings.Contains(err.Error(), `unknown sketch engine "kmv"`) {
		t.Errorf("New with kmv engine = %v, want unknown-engine error", err)
	}
	if _, err := lake.NewSharded(tables, 2, opts); err == nil || !strings.Contains(err.Error(), `unknown sketch engine "kmv"`) {
		t.Errorf("NewSharded with kmv engine = %v, want unknown-engine error", err)
	}
}
