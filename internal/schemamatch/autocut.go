package schemamatch

import (
	"sort"

	"repro/internal/kb"
	"repro/internal/table"
)

// AutoHolistic is the holistic matcher with automatic cut selection: the
// constrained agglomerative merge sequence is scored by average silhouette
// at every step, and the best-scoring clustering wins. It needs no
// similarity floor (the fixed-threshold matcher's minSimilarity), at the
// cost of an extra O(n²) scoring pass per merge — the trade the ALITE paper
// makes when selecting the number of integration IDs data-driven.
type AutoHolistic struct {
	// Knowledge supplies semantic-type features (may be nil).
	Knowledge *kb.KB
}

// Align implements Matcher.
func (h AutoHolistic) Align(tables []*table.Table) (Alignment, error) {
	refs, sim, err := similarities(tables, h.Knowledge)
	if err != nil {
		return Alignment{}, err
	}
	return buildAlignment(tables, refs, clusterAutoCut(refs, sim)), nil
}

// snapshotFloor is the merge-sequence floor for auto-cut: merges below
// this similarity are never candidates, which bounds the sequence without
// influencing cut selection in practice.
const snapshotFloor = 0.05

// clusterAutoCut builds the constrained merge sequence down to
// snapshotFloor, scores every intermediate clustering by average
// silhouette (distance = 1 - cosine), and returns the best. Ties prefer
// fewer clusters (the later snapshot).
func clusterAutoCut(refs []ColumnRef, sim [][]float64) []int {
	n := len(refs)
	members := make(map[int][]int, n)
	for i := 0; i < n; i++ {
		members[i] = []int{i}
	}
	snapshot := func() []int {
		out := make([]int, n)
		for id, ms := range members {
			for _, x := range ms {
				out[x] = id
			}
		}
		return out
	}
	best := snapshot()
	bestScore := avgSilhouette(best, sim)
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
		seen := make(map[int]bool)
		for _, x := range members[a] {
			seen[refs[x].Table] = true
		}
		for _, y := range members[b] {
			if seen[refs[y].Table] {
				return true
			}
		}
		return false
	}
	for {
		bestA, bestB, bestS := -1, -1, snapshotFloor
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
					if s >= snapshotFloor {
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
		labels := snapshot()
		if score := avgSilhouette(labels, sim); score >= bestScore {
			bestScore = score
			best = labels
		}
	}
	return best
}

// avgSilhouette computes the mean silhouette coefficient of a clustering
// under distance 1 - sim. Singleton points contribute 0 (the standard
// convention); a clustering that is all singletons scores 0.
func avgSilhouette(labels []int, sim [][]float64) float64 {
	n := len(labels)
	if n == 0 {
		return 0
	}
	clusters := make(map[int][]int)
	for i, l := range labels {
		clusters[l] = append(clusters[l], i)
	}
	if len(clusters) <= 1 {
		return 0
	}
	dist := func(a, b int) float64 { return 1 - sim[a][b] }
	total := 0.0
	for i := 0; i < n; i++ {
		own := clusters[labels[i]]
		if len(own) == 1 {
			continue // silhouette of a singleton is 0
		}
		var a float64
		for _, j := range own {
			if j != i {
				a += dist(i, j)
			}
		}
		a /= float64(len(own) - 1)
		b := -1.0
		for l, ms := range clusters {
			if l == labels[i] {
				continue
			}
			var d float64
			for _, j := range ms {
				d += dist(i, j)
			}
			d /= float64(len(ms))
			if b < 0 || d < b {
				b = d
			}
		}
		if b < 0 {
			continue
		}
		den := a
		if b > den {
			den = b
		}
		if den > 0 {
			total += (b - a) / den
		}
	}
	return total / float64(n)
}
