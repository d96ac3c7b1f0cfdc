package lshensemble

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// mutOpts keeps mutation tests fast while exercising several partitions and
// band configurations.
var mutOpts = Options{NumHashes: 16, NumPartitions: 4, Seed: 7}

// liveDomains collects the live domains of a mutated index, stripped of
// build artifacts, in slot order.
func liveDomains(ix *Index) []Domain {
	var out []Domain
	for slot := range ix.domains {
		if ix.alive[slot] {
			d := ix.domains[slot]
			out = append(out, Domain{Table: d.Table, Column: d.Column, ColumnName: d.ColumnName, Values: d.Values})
		}
	}
	return out
}

// layoutSig renders the full partition layout — boundaries, size bounds,
// and the bucket membership of every band table — as domain keys, so two
// indexes over the same live domains compare structurally even when their
// slot numbering and dictionaries differ.
func layoutSig(ix *Index) string {
	var b strings.Builder
	for pi := range ix.parts {
		p := &ix.parts[pi]
		keys := make([]string, 0, len(p.domains))
		for _, di := range p.domains {
			keys = append(keys, ix.domains[di].Key())
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, "part%d upper=%d members=%v\n", pi, p.upper, keys)
		for _, bt := range p.tables {
			bucketKeys := make([]uint64, 0, len(bt.buckets))
			for k := range bt.buckets {
				bucketKeys = append(bucketKeys, k)
			}
			sort.Slice(bucketKeys, func(a, c int) bool { return bucketKeys[a] < bucketKeys[c] })
			for _, k := range bucketKeys {
				members := make([]string, 0, len(bt.buckets[k]))
				for _, di := range bt.buckets[k] {
					members = append(members, ix.domains[di].Key())
				}
				sort.Strings(members)
				fmt.Fprintf(&b, "  r=%d %x %v\n", bt.r, k, members)
			}
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

// TestMutationLayoutMatchesFreshBuild is the strongest equivalence pin: the
// incremental re-sharding must leave partition boundaries, size bounds and
// band-bucket membership identical to a from-scratch Build over the live
// domains — not merely return the same query results.
func TestMutationLayoutMatchesFreshBuild(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool := randomDomainPool(rng, 12)
		inLake := make([]bool, len(pool))
		start := 1 + rng.Intn(6)
		var initial []Domain
		for i := 0; i < start; i++ {
			initial = append(initial, pool[i])
			inLake[i] = true
		}
		ix := Build(initial, mutOpts)
		for op := 0; op < 10; op++ {
			var out, in []int
			for i, ok := range inLake {
				if ok {
					in = append(in, i)
				} else {
					out = append(out, i)
				}
			}
			switch c := rng.Intn(4); {
			case c <= 1 && len(out) > 0:
				i := out[rng.Intn(len(out))]
				ix.Add([]Domain{pool[i]})
				inLake[i] = true
			case c == 2 && len(in) > 0:
				i := in[rng.Intn(len(in))]
				if got := ix.Remove([]string{pool[i].Table}); got != 1 {
					t.Fatalf("seed %d: Remove(%s) = %d", seed, pool[i].Table, got)
				}
				inLake[i] = false
			case c == 3:
				ix.Compact()
			}
			fresh := Build(liveDomains(ix), mutOpts)
			if got, want := layoutSig(ix), layoutSig(fresh); got != want {
				t.Fatalf("seed %d op %d: layout diverged from fresh build\n got:\n%s\nwant:\n%s", seed, op, got, want)
			}
			for q := 0; q < 2; q++ {
				query := pool[rng.Intn(len(pool))].Values
				th := 0.3 + 0.4*rng.Float64()
				got, want := ix.Query(query, th, 0), fresh.Query(query, th, 0)
				if resultSig(got) != resultSig(want) {
					t.Fatalf("seed %d op %d: query diverged\n got %s\nwant %s", seed, op, resultSig(got), resultSig(want))
				}
			}
		}
	}
}

func TestRemoveExcludesDomain(t *testing.T) {
	domains := []Domain{
		{Table: "A", Column: 0, Values: []string{"berlin", "boston", "tokyo"}},
		{Table: "B", Column: 0, Values: []string{"berlin", "boston", "paris"}},
	}
	ix := Build(domains, mutOpts)
	if got := ix.Query([]string{"berlin", "boston"}, 0.5, 0); len(got) != 2 {
		t.Fatalf("pre-remove results = %v", got)
	}
	if n := ix.Remove([]string{"A"}); n != 1 {
		t.Fatalf("Remove = %d", n)
	}
	got := ix.Query([]string{"berlin", "boston"}, 0.5, 0)
	if len(got) != 1 || got[0].Domain.Table != "B" {
		t.Errorf("post-remove results = %v", got)
	}
	if ix.NumDomains() != 1 {
		t.Errorf("NumDomains = %d", ix.NumDomains())
	}
}

// TestScratchGrowsWithIndex pins the pooled query scratch against index
// growth: a scratch sized by an early query must not index out of range
// after Add more than doubles the slot count.
func TestScratchGrowsWithIndex(t *testing.T) {
	ix := Build([]Domain{{Table: "A", Column: 0, Values: []string{"x", "y"}}}, mutOpts)
	ix.Query([]string{"x"}, 0.1, 0) // size the pooled scratch at 1 slot
	var add []Domain
	for i := 0; i < 30; i++ {
		add = append(add, Domain{Table: fmt.Sprintf("g%02d", i), Column: 0, Values: []string{"x", "y", fmt.Sprintf("z%d", i)}})
	}
	ix.Add(add)
	if got := ix.Query([]string{"x", "y"}, 0.5, 0); len(got) != 31 {
		t.Errorf("post-growth query found %d domains, want 31", len(got))
	}
}

// TestCompactReleasesDeadSlots verifies explicit and automatic compaction
// drop tombstoned slots without changing answers.
func TestCompactReleasesDeadSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	pool := randomDomainPool(rng, 40)
	ix := Build(pool, mutOpts)
	var names []string
	for i := 0; i < 30; i++ {
		names = append(names, pool[i].Table)
	}
	ix.Remove(names) // 30 dead > 16 and > 10 live: auto-compaction fires
	if len(ix.domains) != 10 || ix.liveCount != 10 {
		t.Errorf("auto-compaction left %d slots / %d live", len(ix.domains), ix.liveCount)
	}
	fresh := Build(liveDomains(ix), mutOpts)
	if layoutSig(ix) != layoutSig(fresh) {
		t.Error("compacted layout diverged from fresh build")
	}
}
