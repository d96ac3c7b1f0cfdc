package schemamatch

import (
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

// Align implements Matcher. It runs the constrained merge sequence down to
// snapshotFloor, scores the all-singletons start and every clustering
// after a merge by average silhouette (distance = 1 - cosine), and keeps
// the best. Ties prefer fewer clusters (the later merge).
func (h AutoHolistic) Align(tables []*table.Table) (Alignment, error) {
	refs, sim, err := similarities(tables, h.Knowledge)
	if err != nil {
		return Alignment{}, err
	}
	best := make([]int, len(refs))
	for i := range best {
		best[i] = i
	}
	bestScore := avgSilhouette(best, sim)
	clusterConstrained(refs, sim, snapshotFloor, func(labels []int) {
		if score := avgSilhouette(labels, sim); score >= bestScore {
			best, bestScore = labels, score
		}
	})
	return buildAlignment(tables, refs, best), nil
}

// snapshotFloor is the merge-sequence floor for auto-cut: merges below
// this similarity are never candidates, which bounds the sequence without
// influencing cut selection in practice.
const snapshotFloor = 0.05

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
