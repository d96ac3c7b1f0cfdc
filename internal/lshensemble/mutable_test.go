package lshensemble

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/table"
)

// mutOpts keeps mutation tests fast while exercising several partitions and
// band configurations.
var mutOpts = Options{NumHashes: 16, NumPartitions: 4, Seed: 7}

// plainDomains returns copies of an index's domains, in slot order.
func plainDomains(ix *Index) []Domain {
	out := make([]Domain, len(ix.domains))
	for slot, d := range ix.domains {
		out[slot] = Domain{Table: d.Table, Column: d.Column, ColumnName: d.ColumnName, Values: d.Values, IDs: d.IDs}
	}
	return out
}

// layoutSig renders an index's layout — its domains in slot order, the
// partition boundaries and size bounds, and for each r the set of domains
// under each band key — as domain keys, so two indexes over the same
// domains compare structurally even when their dictionaries differ. The
// r=1 table's band keys pin every signature row's hash. Entries within a
// bucket may be stored in any order.
func layoutSig(ix *Index) string {
	var b strings.Builder
	for slot := range ix.domains {
		fmt.Fprintf(&b, "slot%d part%d %s %v\n", slot, ix.partOf[slot], ix.domains[slot].Key(), ix.domains[slot].Values)
	}
	for pi, p := range ix.parts {
		keys := make([]string, 0, len(p.members))
		for _, di := range p.members {
			keys = append(keys, ix.domains[di].Key())
		}
		fmt.Fprintf(&b, "part%d upper=%d members=%v\n", pi, p.upper, keys)
	}
	for _, bt := range ix.tables {
		buckets := make(map[uint64][]string)
		for i, key := range bt.keys {
			buckets[key] = append(buckets[key], ix.domains[bt.slots[i]].Key())
		}
		keys := make([]uint64, 0, len(buckets))
		for k := range buckets {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		fmt.Fprintf(&b, "r=%d shift=%d entries=%d\n", bt.r, bt.shift, len(bt.keys))
		for _, k := range keys {
			sort.Strings(buckets[k])
			fmt.Fprintf(&b, "  %x %v\n", k, buckets[k])
		}
	}
	return b.String()
}

func resultSig(rs []Result) string {
	s := ""
	for _, r := range rs {
		s += fmt.Sprintf("%s|%.9f;", r.Domain.Key(), r.Containment)
	}
	return s
}

func randomDomainPool(rng *rand.Rand, n int) []Domain {
	pool := make([]Domain, n)
	for i := range pool {
		size := 2 + rng.Intn(14)
		seen := map[string]bool{}
		var vals []string
		for len(vals) < size {
			v := fmt.Sprintf("city%02d", rng.Intn(50))
			if !seen[v] {
				seen[v] = true
				vals = append(vals, v)
			}
		}
		pool[i] = Domain{Table: fmt.Sprintf("t%02d", i), Column: 0, Values: vals}
	}
	return pool
}

// checkAgainstBuild is the strongest equivalence pin: a derived generation
// must equal a fresh Build over the same domains — slots,
// signatures, partition boundaries, size bounds and band-bucket membership,
// not merely query results — and answer every query identically.
func checkAgainstBuild(t *testing.T, label string, ix *Index, pool []Domain, rng *rand.Rand) {
	t.Helper()
	fresh := Build(plainDomains(ix), ix.opts, ix.dict)
	if got, want := layoutSig(ix), layoutSig(fresh); got != want {
		t.Fatalf("%s: layout diverged from fresh build\n got:\n%s\nwant:\n%s", label, got, want)
	}
	for q := 0; q < 2; q++ {
		query := pool[rng.Intn(len(pool))].Values
		th := 0.3 + 0.4*rng.Float64()
		got, _ := ix.QueryCtx(context.Background(), query, th, 0)
		want, _ := fresh.QueryCtx(context.Background(), query, th, 0)
		if resultSig(got) != resultSig(want) {
			t.Fatalf("%s: query diverged\n got %s\nwant %s", label, resultSig(got), resultSig(want))
		}
	}
}

// withSchedule applies one random With to ix — add one absent pool domain,
// remove one present, or both at once — and checks the receiver's layout
// did not change.
func withSchedule(t *testing.T, ix *Index, pool []Domain, inLake []bool, rng *rand.Rand) *Index {
	t.Helper()
	var in, out []int
	for i, ok := range inLake {
		if ok {
			in = append(in, i)
		} else {
			out = append(out, i)
		}
	}
	var added []Domain
	var removed []string
	c := rng.Intn(4)
	if c != 2 && len(out) > 0 {
		i := out[rng.Intn(len(out))]
		added = append(added, pool[i])
		inLake[i] = true
	}
	if c >= 2 && len(in) > 0 {
		i := in[rng.Intn(len(in))]
		removed = append(removed, pool[i].Table)
		inLake[i] = false
	}
	before := layoutSig(ix)
	next := ix.With(added, removed)
	if layoutSig(ix) != before {
		t.Fatalf("With(%d added, %v) changed its receiver", len(added), removed)
	}
	return next
}

// TestMutationLayoutMatchesFreshBuild runs random With schedules and pins
// every generation to a fresh build over its domains.
func TestMutationLayoutMatchesFreshBuild(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dict := table.NewTokenDict()
		pool := interned(dict, randomDomainPool(rng, 12))
		inLake := make([]bool, len(pool))
		start := 1 + rng.Intn(6)
		for i := 0; i < start; i++ {
			inLake[i] = true
		}
		ix := Build(pool[:start], mutOpts, dict)
		for op := 0; op < 10; op++ {
			ix = withSchedule(t, ix, pool, inLake, rng)
			checkAgainstBuild(t, fmt.Sprintf("seed %d op %d", seed, op), ix, pool, rng)
		}
	}
}

// FuzzWithMatchesBuild drives TestMutationLayoutMatchesFreshBuild's check
// with fuzzed pools and schedules, over partitions large enough to be
// banded as well as scanned ones.
func FuzzWithMatchesBuild(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(3), uint8(8))
	f.Add(int64(2), uint8(200), uint8(150), uint8(20))
	f.Fuzz(func(t *testing.T, seed int64, poolSize, start, ops uint8) {
		rng := rand.New(rand.NewSource(seed))
		dict := table.NewTokenDict()
		pool := interned(dict, randomDomainPool(rng, 1+int(poolSize)))
		inLake := make([]bool, len(pool))
		n := int(start) % (len(pool) + 1)
		for i := 0; i < n; i++ {
			inLake[i] = true
		}
		ix := Build(pool[:n], Options{NumHashes: 16, NumPartitions: 2, Seed: seed}, dict)
		for op := 0; op < int(ops)%24; op++ {
			ix = withSchedule(t, ix, pool, inLake, rng)
			checkAgainstBuild(t, fmt.Sprintf("op %d", op), ix, pool, rng)
		}
	})
}

func TestRemoveExcludesDomain(t *testing.T) {
	domains := []Domain{
		{Table: "A", Column: 0, Values: []string{"berlin", "boston", "tokyo"}},
		{Table: "B", Column: 0, Values: []string{"berlin", "boston", "paris"}},
	}
	dict := table.NewTokenDict()
	ix := Build(interned(dict, domains), mutOpts, dict)
	if got, _ := ix.QueryCtx(context.Background(), []string{"berlin", "boston"}, 0.5, 0); len(got) != 2 {
		t.Fatalf("pre-remove results = %v", got)
	}
	next := ix.With(nil, []string{"A"})
	got, _ := next.QueryCtx(context.Background(), []string{"berlin", "boston"}, 0.5, 0)
	if len(got) != 1 || got[0].Domain.Table != "B" {
		t.Errorf("post-remove results = %v", got)
	}
	if next.NumDomains() != 1 || ix.NumDomains() != 2 {
		t.Errorf("NumDomains = %d, receiver %d", next.NumDomains(), ix.NumDomains())
	}
	if got, _ := ix.QueryCtx(context.Background(), []string{"berlin", "boston"}, 0.5, 0); len(got) != 2 {
		t.Errorf("receiver results after With = %v", got)
	}
}

// TestScratchGrowsWithIndex pins the pooled query scratch, which every
// generation shares, against index growth: a scratch sized by an early
// query must not index out of range on a generation with more than twice
// the slots.
func TestScratchGrowsWithIndex(t *testing.T) {
	dict := table.NewTokenDict()
	ix := Build(interned(dict, []Domain{{Table: "A", Column: 0, Values: []string{"x", "y"}}}), mutOpts, dict)
	ix.QueryCtx(context.Background(), []string{"x"}, 0.1, 0) // size the pooled scratch at 1 slot
	var add []Domain
	for i := 0; i < 30; i++ {
		add = append(add, Domain{Table: fmt.Sprintf("g%02d", i), Column: 0, Values: []string{"x", "y", fmt.Sprintf("z%d", i)}})
	}
	if got, _ := ix.With(interned(dict, add), nil).QueryCtx(context.Background(), []string{"x", "y"}, 0.5, 0); len(got) != 31 {
		t.Errorf("post-growth query found %d domains, want 31", len(got))
	}
}
