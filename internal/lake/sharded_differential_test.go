// sharded_differential_test.go extends the rebuild-equivalence harness to
// the sharded catalog: the same randomized Add / Remove schedules
// are mirrored into a lake.Sharded and an unsharded lake.New twin, and
// after every mutation the two must answer discovery byte-identically —
// per-method rankings at full float64 bit precision and the merged
// integration set. Combined with differential_test.go (mutated unsharded ≡
// fresh unsharded), this pins the PR 9 invariant: sharded ≡ unsharded,
// regardless of shard count, routing outcome, or mutation history —
// including shards emptied by removals.
package lake_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/difftest"
	"repro/internal/discovery"
	"repro/internal/lake"
	"repro/internal/table"
)

// verifyShardedEquivalence compares discovery answers between the sharded
// catalog and its unsharded twin across several query tables, plus the
// catalog views (size, membership, table order) the serving layer exposes.
func verifyShardedEquivalence(t *testing.T, sh *lake.Sharded, un *lake.Lake, pool []*table.Table, rng *rand.Rand, ctx string) {
	t.Helper()
	reg := discovery.NewRegistry()
	for q := 0; q < 3; q++ {
		query := pool[rng.Intn(len(pool))]
		col := 0
		if rng.Intn(3) == 0 {
			col = rng.Intn(query.NumCols())
		}
		k := rng.Intn(3) * 3 // 0 = all
		got := difftest.DiscoverySig(reg, sh, query, col, k)
		want := difftest.DiscoverySig(reg, un, query, col, k)
		if got != want {
			t.Fatalf("%s: query %q col %d k %d: sharded diverged from unsharded\n got:\n%s\nwant:\n%s", ctx, query.Name, col, k, got, want)
		}
	}
	if got, want := sh.Size(), un.Size(); got != want {
		t.Fatalf("%s: Size: sharded %d, unsharded %d", ctx, got, want)
	}
	shTables, unTables := sh.Tables(), un.Tables()
	if len(shTables) != len(unTables) {
		t.Fatalf("%s: Tables: sharded %d, unsharded %d", ctx, len(shTables), len(unTables))
	}
	for i := range shTables {
		if shTables[i].Name != unTables[i].Name {
			t.Fatalf("%s: Tables[%d]: sharded %q, unsharded %q (catalog order must match)", ctx, i, shTables[i].Name, unTables[i].Name)
		}
	}
}

// TestShardedDifferentialEquivalence drives 200 randomized mutation
// schedules through a sharded catalog and an unsharded twin in lockstep,
// verifying byte-identical discovery after every mutation. Shard counts
// cycle 2-4; some schedules exceed the table count with shards, so empty
// shards occur both at build time and through removals.
func TestShardedDifferentialEquivalence(t *testing.T) {
	schedules := 200
	if testing.Short() {
		schedules = 25
	}
	knowledge := difftest.DiffKB()
	for seed := 0; seed < schedules; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("schedule%03d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + seed)))
			opts := lake.Options{Knowledge: knowledge}
			if seed%5 == 0 {
				// Some schedules synthesize the KB: NewSharded must fold the
				// full table set into one synthesis, exactly as New does.
				opts.SynthesizeKB = true
			}
			shardN := 2 + seed%3
			pool := make([]*table.Table, 12)
			for i := range pool {
				pool[i] = difftest.DiffTable(rng, fmt.Sprintf("s%02d", i))
			}
			inLake := make([]bool, len(pool))
			var initial []*table.Table
			for i := 0; i < 2+rng.Intn(6); i++ {
				initial = append(initial, pool[i])
				inLake[i] = true
			}
			sh, err := lake.NewSharded(initial, shardN, opts)
			if err != nil {
				t.Fatal(err)
			}
			un, err := lake.New(initial, opts)
			if err != nil {
				t.Fatal(err)
			}
			verifyShardedEquivalence(t, sh, un, pool, rand.New(rand.NewSource(int64(seed))), fmt.Sprintf("seed %d build", seed))
			ops := 8
			for op := 0; op < ops; op++ {
				var in, out []int
				for i, ok := range inLake {
					if ok {
						in = append(in, i)
					} else {
						out = append(out, i)
					}
				}
				mutated := false
				switch c := rng.Intn(8); {
				case c <= 2 && len(out) > 0: // add 1-2 tables
					n := 1 + rng.Intn(2)
					var batch []*table.Table
					for _, i := range out[:min(n, len(out))] {
						batch = append(batch, pool[i])
						inLake[i] = true
					}
					if err := sh.Add(batch...); err != nil {
						t.Fatalf("op %d: sharded Add: %v", op, err)
					}
					if err := un.Add(batch...); err != nil {
						t.Fatalf("op %d: unsharded Add: %v", op, err)
					}
					mutated = true
				case c <= 5 && len(in) > 0: // remove one table
					i := in[rng.Intn(len(in))]
					if err := sh.Remove(pool[i].Name); err != nil {
						t.Fatalf("op %d: sharded Remove: %v", op, err)
					}
					if err := un.Remove(pool[i].Name); err != nil {
						t.Fatalf("op %d: unsharded Remove: %v", op, err)
					}
					inLake[i] = false
					mutated = true
				case c == 6: // a checkpoint with no mutation
					mutated = true
				default: // mid-churn query against the sharded catalog only
					reg := discovery.NewRegistry()
					q := pool[rng.Intn(len(pool))]
					_ = difftest.DiscoverySig(reg, sh, q, 0, 5)
				}
				if mutated {
					// Same per-checkpoint query draws on both sides: derive the
					// query rng deterministically from (seed, op).
					qrng := rand.New(rand.NewSource(int64(seed)*100 + int64(op)))
					verifyShardedEquivalence(t, sh, un, pool, qrng, fmt.Sprintf("seed %d op %d", seed, op))
				}
			}
			verifyShardedEquivalence(t, sh, un, pool, rand.New(rand.NewSource(int64(seed)+7777)), fmt.Sprintf("seed %d final", seed))
			// Catalog membership matches the schedule's view on both forms.
			for i, ok := range inLake {
				name := pool[i].Name
				if _, got := sh.Get(name); got != ok {
					t.Errorf("sharded Get(%s) = %v, want %v", name, got, ok)
				}
			}
		})
	}
}

// TestShardedEmptyShard pins the empty-shard cases directly: a shard left
// with zero tables by removals keeps answering (empty rankings merge away),
// equivalence with the unsharded twin holds through emptying and refilling,
// and a build with more shards than tables works.
func TestShardedEmptyShard(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const shardN = 3
	// Generate tables until one shard owns at least two and every shard is
	// populated, so removing one shard's tables empties exactly that shard.
	var pool []*table.Table
	perShard := make([][]string, shardN)
	for i := 0; len(pool) < 9; i++ {
		name := fmt.Sprintf("e%02d", i)
		tbl := difftest.DiffTable(rng, name)
		pool = append(pool, tbl)
		perShard[lake.ShardIndex(name, shardN)] = append(perShard[lake.ShardIndex(name, shardN)], name)
	}
	target := 0
	for s := range perShard {
		if len(perShard[s]) >= 2 && len(perShard[target]) < 2 {
			target = s
		}
	}
	if len(perShard[target]) == 0 {
		t.Fatalf("routing never hit shard %d; per-shard counts %v", target, perShard)
	}
	opts := lake.Options{Knowledge: difftest.DiffKB()}
	sh, err := lake.NewSharded(pool, shardN, opts)
	if err != nil {
		t.Fatal(err)
	}
	un, err := lake.New(pool, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Empty the target shard via the composite.
	if err := sh.Remove(perShard[target]...); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if err := un.Remove(perShard[target]...); err != nil {
		t.Fatalf("unsharded Remove: %v", err)
	}
	if got := sh.Shards()[target].Size(); got != 0 {
		t.Fatalf("shard %d still holds %d tables after removing %v", target, got, perShard[target])
	}
	verifyShardedEquivalence(t, sh, un, pool, rand.New(rand.NewSource(1)), "emptied shard")
	// Refill the emptied shard and verify again.
	var refill []*table.Table
	for _, tbl := range pool {
		for _, n := range perShard[target] {
			if tbl.Name == n {
				refill = append(refill, tbl)
			}
		}
	}
	if err := sh.Add(refill...); err != nil {
		t.Fatalf("Add refill: %v", err)
	}
	if err := un.Add(refill...); err != nil {
		t.Fatalf("unsharded Add refill: %v", err)
	}
	verifyShardedEquivalence(t, sh, un, pool, rand.New(rand.NewSource(2)), "refilled shard")

	// More shards than tables: every surplus shard is empty from birth.
	few := []*table.Table{difftest.DiffTable(rng, "lonely")}
	wide, err := lake.NewSharded(few, 8, opts)
	if err != nil {
		t.Fatal(err)
	}
	unFew, err := lake.New(few, opts)
	if err != nil {
		t.Fatal(err)
	}
	verifyShardedEquivalence(t, wide, unFew, few, rand.New(rand.NewSource(3)), "more shards than tables")
}
