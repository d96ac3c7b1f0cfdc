package fd

import (
	"fmt"
	"math/bits"

	"repro/internal/table"
)

// NaiveLimit is the maximum number of (deduplicated) input tuples Naive
// accepts: subset enumeration is Θ(2^n) and exists as a ground truth, not
// a production path.
const NaiveLimit = 22

// Naive computes the Full Disjunction directly from the definition: it
// enumerates every subset of input tuples, keeps those that are
// join-consistent (no two members conflict on a non-null position) and
// connected (the graph with edges between members sharing a non-null equal
// value is connected), merges each surviving subset into one tuple, and
// finally removes subsumed tuples.
//
// When several subsets merge to the same values, the smallest subset (then
// lexicographically-smallest provenance) wins, matching the minimal-witness
// provenance of the paper's figures.
func Naive(in Input) ([]Tuple, error) {
	ts := DedupeTuples(in.Tuples)
	n := len(ts)
	if n > NaiveLimit {
		return nil, fmt.Errorf("fd: naive enumeration over %d tuples exceeds limit %d", n, NaiveLimit)
	}
	if n == 0 {
		return nil, nil
	}
	// Precompute pairwise relations.
	shares := make([][]bool, n)
	conflicts := make([][]bool, n)
	for i := 0; i < n; i++ {
		shares[i] = make([]bool, n)
		conflicts[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			s, c := pairRelation(ts[i].Values, ts[j].Values)
			shares[i][j], shares[j][i] = s, s
			conflicts[i][j], conflicts[j][i] = c, c
		}
	}
	type witness struct {
		tuple Tuple
		size  int
	}
	best := make(map[string]witness)
	var members []int
	for mask := 1; mask < 1<<n; mask++ {
		members = members[:0]
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				members = append(members, i)
			}
		}
		if !consistent(members, conflicts) || !connected(members, shares) {
			continue
		}
		merged := ts[members[0]].Clone()
		for _, m := range members[1:] {
			merged = Merge(merged, ts[m])
		}
		k := merged.Key()
		size := bits.OnesCount(uint(mask))
		if w, ok := best[k]; ok {
			if size > w.size {
				continue
			}
			if size == w.size && !provLess(merged.Prov, w.tuple.Prov) {
				continue
			}
		}
		best[k] = witness{tuple: merged, size: size}
	}
	out := make([]Tuple, 0, len(best))
	for _, w := range best {
		out = append(out, w.tuple)
	}
	return finalize(out), nil
}

// pairRelation reports whether two tuples share a non-null equal value and
// whether they conflict (both non-null, unequal) anywhere.
func pairRelation(a, b []table.Value) (shares, conflicts bool) {
	for i := range a {
		if a[i].IsNull() || b[i].IsNull() {
			continue
		}
		if a[i].Equal(b[i]) {
			shares = true
		} else {
			conflicts = true
		}
	}
	return
}

// consistent reports whether no two members conflict.
func consistent(members []int, conflicts [][]bool) bool {
	for x := 0; x < len(members); x++ {
		for y := x + 1; y < len(members); y++ {
			if conflicts[members[x]][members[y]] {
				return false
			}
		}
	}
	return true
}

// connected reports whether the members form one component in the
// share-graph.
func connected(members []int, shares [][]bool) bool {
	if len(members) <= 1 {
		return true
	}
	visited := map[int]bool{members[0]: true}
	queue := []int{members[0]}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, m := range members {
			if !visited[m] && shares[cur][m] {
				visited[m] = true
				queue = append(queue, m)
			}
		}
	}
	return len(visited) == len(members)
}

// provLess orders provenance sets lexicographically.
func provLess(a, b []string) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}
