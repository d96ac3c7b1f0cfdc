package schemamatch

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// refClusterConstrained is clusterConstrained as it was before it kept a
// linkage matrix and table bitsets, kept verbatim as the reference: it
// recomputes each candidate pair's complete linkage, and builds a table
// set for each cannot-link check, at every merge step.
func refClusterConstrained(refs []ColumnRef, sim [][]float64, minSim float64, merged func(labels []int)) []int {
	n := len(refs)
	members := make(map[int][]int, n)
	for i := 0; i < n; i++ {
		members[i] = []int{i}
	}
	labels := func() []int {
		out := make([]int, n)
		for id, ms := range members {
			for _, x := range ms {
				out[x] = id
			}
		}
		return out
	}
	// linkSim computes complete-linkage similarity between two clusters:
	// the MINIMUM pairwise similarity (every member pair must be similar).
	linkSim := func(a, b int) float64 {
		m := 1.0
		for _, x := range members[a] {
			for _, y := range members[b] {
				if s := sim[x][y]; s < m {
					m = s
				}
			}
		}
		return m
	}
	conflict := func(a, b int) bool {
		tablesSeen := make(map[int]bool)
		for _, x := range members[a] {
			tablesSeen[refs[x].Table] = true
		}
		for _, y := range members[b] {
			if tablesSeen[refs[y].Table] {
				return true
			}
		}
		return false
	}
	for {
		bestA, bestB, bestS := -1, -1, minSim
		ids := make([]int, 0, len(members))
		for id := range members {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for ai := 0; ai < len(ids); ai++ {
			for bi := ai + 1; bi < len(ids); bi++ {
				a, b := ids[ai], ids[bi]
				if conflict(a, b) {
					continue
				}
				if s := linkSim(a, b); s > bestS || (s == bestS && bestA == -1) {
					if s >= minSim {
						bestA, bestB, bestS = a, b, s
					}
				}
			}
		}
		if bestA < 0 {
			break
		}
		members[bestA] = append(members[bestA], members[bestB]...)
		sort.Ints(members[bestA])
		delete(members, bestB)
		if merged != nil {
			merged(labels())
		}
	}
	return labels()
}

// TestQuickClusterConstrainedMatchesReference pins clusterConstrained to
// the recomputing reference: the final labels and the labels of every
// merged callback agree, on random similarity matrices (symmetric or not)
// drawn from a few levels so that linkages tie exactly, with NaN, −0 and
// values above 1 among them, over columns spread across up to 70 tables
// (past one bitset word) so that cannot-links bind.
func TestQuickClusterConstrainedMatchesReference(t *testing.T) {
	levels := []float64{0, math.Copysign(0, -1), 0.2, 0.42, 0.5, 0.5, 0.8, 0.8, 1, 1.25, math.NaN()}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(14)
		tables := 1 + rng.Intn(n+1)
		if rng.Intn(4) == 0 {
			tables = 70
		}
		refs := make([]ColumnRef, n)
		for i := range refs {
			refs[i] = ColumnRef{Table: rng.Intn(tables), Col: i}
		}
		symmetric := rng.Intn(2) == 0
		sim := make([][]float64, n)
		for i := range sim {
			sim[i] = make([]float64, n)
			for j := range sim[i] {
				sim[i][j] = levels[rng.Intn(len(levels))]
				if symmetric && j < i {
					sim[i][j] = sim[j][i]
				}
			}
		}
		minSim := []float64{0.05, 0.42, 0.8}[rng.Intn(3)]
		var got, want [][]int
		gl := clusterConstrained(refs, sim, minSim, func(l []int) { got = append(got, l) })
		wl := refClusterConstrained(refs, sim, minSim, func(l []int) { want = append(want, l) })
		if !reflect.DeepEqual(gl, wl) || !reflect.DeepEqual(got, want) {
			t.Logf("seed %d: labels %v, want %v; steps %v, want %v", seed, gl, wl, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
