package josie

// crosscheck_test pins the token-interned index to the pre-refactor
// string-based implementation: on randomized lakes, TopKCtx (and the
// TopKIDsCtx fast path) must return exactly the same ranked results — same
// sets, same overlaps, same order — as the reference below, which is a
// faithful copy of the old map[string][]int32 postings walk with kthLargest
// admission.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/tokenize"
)

// refResult is a reference answer, identified by key (the sets aren't
// shared between implementations).
type refResult struct {
	key     string
	overlap int
}

// referenceTopK is the string-based pre-refactor TopK, verbatim except for
// operating on its own postings map.
func referenceTopK(sets []Set, rawQuery []string, k int) []refResult {
	postings := make(map[string][]int32)
	for i := range sets {
		seen := make(map[string]bool, len(sets[i].Values))
		for _, v := range sets[i].Values {
			if v == "" || seen[v] {
				continue
			}
			seen[v] = true
			postings[v] = append(postings[v], int32(i))
		}
	}
	query := tokenize.ValueSet(rawQuery)
	if len(query) == 0 || len(sets) == 0 {
		return nil
	}
	tokens := query[:0:0]
	for _, tok := range query {
		if len(postings[tok]) > 0 {
			tokens = append(tokens, tok)
		}
	}
	sort.SliceStable(tokens, func(a, b int) bool {
		la, lb := len(postings[tokens[a]]), len(postings[tokens[b]])
		if la != lb {
			return la < lb
		}
		return tokens[a] < tokens[b]
	})
	counts := make(map[int32]int)
	for i, tok := range tokens {
		remaining := len(tokens) - i
		admitNew := true
		if k > 0 && len(counts) >= k {
			if refKthLargest(counts, k) >= remaining {
				admitNew = false
			}
		}
		for _, si := range postings[tok] {
			if _, seen := counts[si]; seen {
				counts[si]++
			} else if admitNew {
				counts[si] = 1
			}
		}
	}
	var results []refResult
	for si, c := range counts {
		if c > 0 {
			results = append(results, refResult{key: sets[si].Key(), overlap: c})
		}
	}
	sort.Slice(results, func(a, b int) bool {
		if results[a].overlap != results[b].overlap {
			return results[a].overlap > results[b].overlap
		}
		return results[a].key < results[b].key
	})
	if k > 0 && len(results) > k {
		results = results[:k]
	}
	return results
}

func refKthLargest(counts map[int32]int, k int) int {
	if len(counts) < k {
		return 0
	}
	vals := make([]int, 0, len(counts))
	for _, c := range counts {
		vals = append(vals, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(vals)))
	return vals[k-1]
}

func assertSameResults(t *testing.T, label string, got []Result, want []refResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d\ngot: %+v\nwant: %+v", label, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i].Set.Key() != want[i].key || got[i].Overlap != want[i].overlap {
			t.Fatalf("%s: rank %d: got %s/%d, want %s/%d", label, i,
				got[i].Set.Key(), got[i].Overlap, want[i].key, want[i].overlap)
		}
	}
}

// TestCrossCheckRandomizedLakes fans hundreds of randomized queries across
// randomized lakes and asserts the ID-based index is byte-identical to the
// string-based reference for every k.
func TestCrossCheckRandomizedLakes(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		rng := rand.New(rand.NewSource(seed))
		nsets := 40 + rng.Intn(120)
		vocab := 200 + rng.Intn(600)
		var sets []Set
		for i := 0; i < nsets; i++ {
			n := 1 + rng.Intn(80)
			vals := make([]string, n)
			for j := range vals {
				vals[j] = fmt.Sprintf("v%05d", rng.Intn(vocab))
			}
			sets = append(sets, Set{Table: fmt.Sprintf("t%03d", i), Column: rng.Intn(3), Values: vals})
		}
		ix := Build(interned(sets))
		for qi := 0; qi < 25; qi++ {
			qn := 1 + rng.Intn(60)
			query := make([]string, qn)
			for j := range query {
				if rng.Intn(10) == 0 {
					// ~10% tokens outside the lake vocabulary.
					query[j] = fmt.Sprintf("unknown%04d", rng.Intn(1000))
				} else {
					query[j] = fmt.Sprintf("v%05d", rng.Intn(vocab))
				}
			}
			for _, k := range []int{0, 1, 3, 10, nsets * 2} {
				label := fmt.Sprintf("seed=%d query=%d k=%d", seed, qi, k)
				got, _ := ix.TopKCtx(context.Background(), query, k)
				assertSameResults(t, label, got, referenceTopK(sets, query, k))
			}
		}
	}
}

// TestCrossCheckTopKIDsFastPath verifies the lake-domain fast path — a
// query given as pre-interned token IDs — matches both the string TopKCtx
// and the reference.
func TestCrossCheckTopKIDsFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var sets []Set
	for i := 0; i < 60; i++ {
		n := 5 + rng.Intn(50)
		vals := make([]string, n)
		for j := range vals {
			vals[j] = fmt.Sprintf("v%05d", rng.Intn(400))
		}
		sets = append(sets, Set{Table: fmt.Sprintf("t%03d", i), Values: vals})
	}
	ix := Build(interned(sets))
	for i := 0; i < len(ix.sets); i += 7 {
		s := &ix.sets[i]
		for _, k := range []int{0, 1, 5} {
			label := fmt.Sprintf("set=%d k=%d", i, k)
			want := referenceTopK(sets, s.Values, k)
			byIDs, _ := ix.TopKIDsCtx(context.Background(), s.IDs, k)
			assertSameResults(t, label+" ids", byIDs, want)
			byStrings, _ := ix.TopKCtx(context.Background(), s.Values, k)
			assertSameResults(t, label+" strings", byStrings, want)
		}
	}
}
