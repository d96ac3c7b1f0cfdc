package josie

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/table"
	"repro/internal/tokenize"
)

// interned gives every set its values' IDs in one fresh dictionary, as
// lake extraction gives its domains (values normalized and deduplicated
// first), and returns the sets and that dictionary for Build.
func interned(sets []Set) ([]Set, *table.TokenDict) {
	dict := table.NewTokenDict()
	for i := range sets {
		sets[i].Values = tokenize.ValueSet(sets[i].Values)
		sets[i].IDs = dict.InternAll(sets[i].Values, nil)
	}
	return sets, dict
}

func mkSet(table string, n, offset int) Set {
	vals := make([]string, n)
	for i := range vals {
		vals[i] = fmt.Sprintf("v%05d", i+offset)
	}
	return Set{Table: table, Column: 0, Values: vals}
}

func TestSetKey(t *testing.T) {
	s := Set{Table: "x", Column: 2}
	if s.Key() != "x[2]" {
		t.Errorf("Key = %q", s.Key())
	}
}

func TestEmptyCases(t *testing.T) {
	ix := Build(interned(nil))
	if ix.NumSets() != 0 {
		t.Error("empty index")
	}
	if got, _ := ix.TopKCtx(context.Background(), []string{"a"}, 5); got != nil {
		t.Error("query on empty index must be nil")
	}
	ix = Build(interned([]Set{mkSet("a", 5, 0)}))
	if got, _ := ix.TopKCtx(context.Background(), nil, 5); got != nil {
		t.Error("empty query must be nil")
	}
}

func TestExactOverlapRanking(t *testing.T) {
	sets := []Set{
		{Table: "A", Values: []string{"berlin", "barcelona", "boston"}},
		{Table: "B", Values: []string{"berlin", "boston", "tokyo"}},
		{Table: "C", Values: []string{"tokyo", "lyon"}},
	}
	ix := Build(interned(sets))
	got, _ := ix.TopKCtx(context.Background(), []string{"Berlin", "Barcelona", "Boston", "New Delhi"}, 10)
	if len(got) != 2 {
		t.Fatalf("got %d results: %+v", len(got), got)
	}
	if got[0].Set.Table != "A" || got[0].Overlap != 3 {
		t.Errorf("first = %s/%d, want A/3", got[0].Set.Table, got[0].Overlap)
	}
	if got[1].Set.Table != "B" || got[1].Overlap != 2 {
		t.Errorf("second = %s/%d, want B/2", got[1].Set.Table, got[1].Overlap)
	}
}

func TestZeroOverlapExcluded(t *testing.T) {
	ix := Build(interned([]Set{{Table: "C", Values: []string{"x"}}}))
	if got, _ := ix.TopKCtx(context.Background(), []string{"y"}, 5); got != nil {
		t.Errorf("zero-overlap result returned: %+v", got)
	}
}

func TestTieBreakDeterministic(t *testing.T) {
	sets := []Set{
		{Table: "B", Values: []string{"a", "b"}},
		{Table: "A", Values: []string{"a", "b"}},
	}
	got, _ := Build(interned(sets)).TopKCtx(context.Background(), []string{"a", "b"}, 0)
	if len(got) != 2 || got[0].Set.Table != "A" {
		t.Errorf("tie break: %+v", got)
	}
}

func TestTopKMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var sets []Set
	for i := 0; i < 120; i++ {
		sets = append(sets, mkSet(fmt.Sprintf("t%03d", i), 10+rng.Intn(150), rng.Intn(300)))
	}
	ix := Build(interned(sets))
	query := make([]string, 70)
	for i := range query {
		query[i] = fmt.Sprintf("v%05d", 150+i)
	}
	for _, k := range []int{1, 5, 20} {
		got, _ := ix.TopKCtx(context.Background(), query, k)
		want := bruteForce(sets, query, k)
		if len(got) != len(want) {
			t.Fatalf("k=%d: got %d results, want %d", k, len(got), len(want))
		}
		for i := range got {
			if got[i].Overlap != want[i].Overlap {
				t.Errorf("k=%d rank %d: overlap %d, want %d", k, i, got[i].Overlap, want[i].Overlap)
			}
		}
		// The returned set of overlaps must be exact, and when overlaps are
		// unique the identities must match too.
		for i := range got {
			if got[i].Overlap == want[i].Overlap && got[i].Set.Key() != want[i].Set.Key() {
				// same overlap, different key is fine only if a tie exists
				tie := false
				for j := range want {
					if want[j].Overlap == got[i].Overlap && want[j].Set.Key() == got[i].Set.Key() {
						tie = true
					}
				}
				if !tie {
					t.Errorf("k=%d rank %d: key %s not in brute-force ties", k, i, got[i].Set.Key())
				}
			}
		}
	}
}

func bruteForce(sets []Set, query []string, k int) []Result {
	var out []Result
	for i := range sets {
		ov := tokenize.Overlap(tokenize.ValueSet(query), sets[i].Values)
		if ov > 0 {
			out = append(out, Result{Set: &sets[i], Overlap: ov})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Overlap != out[b].Overlap {
			return out[a].Overlap > out[b].Overlap
		}
		return out[a].Set.Key() < out[b].Set.Key()
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

func TestKthFromHist(t *testing.T) {
	// Candidates with running overlaps {5, 3, 8} as a count histogram.
	hist := make([]int32, 10)
	hist[5], hist[3], hist[8] = 1, 1, 1
	if kthFromHist(hist, 8, 1) != 8 || kthFromHist(hist, 8, 2) != 5 || kthFromHist(hist, 8, 3) != 3 {
		t.Error("kthFromHist ordering broken")
	}
	if kthFromHist(hist, 8, 4) != 0 {
		t.Error("kth beyond candidate count must be 0")
	}
	// Multiple candidates sharing a count occupy one bucket.
	hist = make([]int32, 10)
	hist[4] = 3
	if kthFromHist(hist, 4, 2) != 4 {
		t.Error("shared counts must satisfy k within one bucket")
	}
}
