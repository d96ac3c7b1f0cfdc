// Package schemamatch implements ALITE's holistic schema matching: given an
// integration set of tables with unreliable headers, it assigns every
// column an integration ID such that columns holding the same real-world
// attribute share an ID. The ALITE paper clusters column embeddings under
// the constraint that two columns of one table never co-cluster; this
// package does the same with complete-linkage agglomerative clustering
// over the embeddings of package embed, plus two baselines (header
// equality, and an oracle for tests/experiments).
package schemamatch

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"repro/internal/embed"
	"repro/internal/kb"
	"repro/internal/table"
	"repro/internal/tokenize"
)

// ColumnRef identifies a column within an integration set: table index
// (into the slice given to Align) and column index.
type ColumnRef struct {
	Table int
	Col   int
}

// Alignment maps every column of an integration set onto an integration
// schema. Positions index Schema.
type Alignment struct {
	// Schema holds the integration IDs in canonical order (clusters ordered
	// by first occurrence).
	Schema []string
	// Pos maps each column to its schema position.
	Pos map[ColumnRef]int
}

// PositionOf returns the schema position of a column.
func (a Alignment) PositionOf(tableIdx, col int) (int, bool) {
	p, ok := a.Pos[ColumnRef{tableIdx, col}]
	return p, ok
}

// Matcher aligns an integration set onto one integration schema.
type Matcher interface {
	Align(tables []*table.Table) (Alignment, error)
}

// Holistic is the ALITE-style matcher: constrained complete-linkage
// clustering over column embeddings.
type Holistic struct {
	// Knowledge supplies semantic-type features to the embeddings; nil
	// disables them (ablation X5 measures the difference).
	Knowledge *kb.KB
}

const (
	// headerWeight blends header embeddings into content embeddings.
	// Headers in data lakes are unreliable, so the weight is a light 0.25.
	headerWeight = 0.25
	// minSimilarity is the complete-linkage floor: two clusters merge only
	// while every cross pair has cosine at least this. 0.42 is above the
	// ~0.36 cosine two numeric columns of different magnitudes share
	// through their common kind feature alone, so unrelated measure
	// columns do not collapse.
	minSimilarity = 0.42
)

// Align implements Matcher.
func (h Holistic) Align(tables []*table.Table) (Alignment, error) {
	refs, sim, err := similarities(tables, h.Knowledge)
	if err != nil {
		return Alignment{}, err
	}
	return buildAlignment(tables, refs, clusterConstrained(refs, sim, minSimilarity, nil)), nil
}

// similarities is the one embedding path of the holistic matchers: it
// embeds every column of the integration set (embed.Columns), blends in
// its header embedding at headerWeight, and returns the column
// refs with their pairwise cosine matrix. Cosine is symmetric to the bit,
// so each pair is computed once.
func similarities(tables []*table.Table, knowledge *kb.KB) ([]ColumnRef, [][]float64, error) {
	if len(tables) == 0 {
		return nil, nil, fmt.Errorf("schemamatch: empty integration set")
	}
	vecs := embed.Columns(tables, knowledge)
	if len(vecs) == 0 {
		return nil, nil, fmt.Errorf("schemamatch: integration set has no columns")
	}
	refs := make([]ColumnRef, 0, len(vecs))
	for ti, t := range tables {
		for c, name := range t.Columns {
			vecs[len(refs)] = embed.Combine(vecs[len(refs)], embed.Header(name), headerWeight)
			refs = append(refs, ColumnRef{ti, c})
		}
	}
	sim := make([][]float64, len(vecs))
	for i := range sim {
		sim[i] = make([]float64, len(vecs))
		sim[i][i] = 1
		for j := range i {
			sim[i][j] = embed.Cosine(vecs[i], vecs[j])
			sim[j][i] = sim[i][j]
		}
	}
	return refs, sim, nil
}

// clusterConstrained performs complete-linkage agglomerative clustering
// with same-table cannot-link constraints, merging the most similar pair
// of clusters while its similarity is at least minSim; among equally
// similar pairs the first in (smaller id, larger id) order wins, a
// cluster's id being its smallest member. It returns a cluster label (that
// id) per ref. When merged is non-nil it is called after every merge with
// the labels of the clustering at that step (a fresh slice each call).
//
// The linkage is kept in a matrix: link[a*n+b] is the minimum of sim[x][y]
// over x in cluster a and y in cluster b, capped at 1, and a merge
// updates it by min, which equals recomputing the minimum over the merged
// members. Each cluster's tables are a bitset, so a cannot-link check is a
// few word ANDs.
func clusterConstrained(refs []ColumnRef, sim [][]float64, minSim float64, merged func(labels []int)) []int {
	n := len(refs)
	link := make([]float64, n*n)
	for x := range n {
		for y := range n {
			link[x*n+y] = 1
			if s := sim[x][y]; s < 1 {
				link[x*n+y] = s
			}
		}
	}
	tables := 0
	for _, r := range refs {
		tables = max(tables, r.Table+1)
	}
	words := (tables + 63) / 64
	bits := make([]uint64, n*words)
	for x, r := range refs {
		bits[x*words+r.Table/64] |= 1 << (r.Table % 64)
	}
	conflict := func(a, b int) bool {
		for w := range words {
			if bits[a*words+w]&bits[b*words+w] != 0 {
				return true
			}
		}
		return false
	}
	labels := make([]int, n)
	live := make([]int, n) // the live cluster ids, ascending
	for i := range n {
		labels[i], live[i] = i, i
	}
	for {
		bestA, bestB, bestS := -1, -1, minSim
		for ai, a := range live {
			for _, b := range live[ai+1:] {
				if conflict(a, b) {
					continue
				}
				if s := link[a*n+b]; s > bestS || (s == bestS && bestA == -1) {
					if s >= minSim {
						bestA, bestB, bestS = a, b, s
					}
				}
			}
		}
		if bestA < 0 {
			break
		}
		a, b := bestA, bestB
		for _, c := range live {
			link[a*n+c] = min(link[a*n+c], link[b*n+c])
			link[c*n+a] = min(link[c*n+a], link[c*n+b])
		}
		for w := range words {
			bits[a*words+w] |= bits[b*words+w]
		}
		for x, l := range labels {
			if l == b {
				labels[x] = a
			}
		}
		live = slices.DeleteFunc(live, func(c int) bool { return c == b })
		if merged != nil {
			merged(slices.Clone(labels))
		}
	}
	return labels
}

// buildAlignment turns cluster labels into an Alignment with
// deterministically ordered, uniquely named integration IDs.
func buildAlignment(tables []*table.Table, refs []ColumnRef, labels []int) Alignment {
	clusters := make(map[int][]int)
	for i, l := range labels {
		clusters[l] = append(clusters[l], i)
	}
	type clusterInfo struct {
		label   int
		first   ColumnRef
		members []int
	}
	var infos []clusterInfo
	for l, ms := range clusters {
		sort.Slice(ms, func(a, b int) bool {
			ra, rb := refs[ms[a]], refs[ms[b]]
			if ra.Table != rb.Table {
				return ra.Table < rb.Table
			}
			return ra.Col < rb.Col
		})
		infos = append(infos, clusterInfo{label: l, first: refs[ms[0]], members: ms})
	}
	sort.Slice(infos, func(a, b int) bool {
		if infos[a].first.Table != infos[b].first.Table {
			return infos[a].first.Table < infos[b].first.Table
		}
		return infos[a].first.Col < infos[b].first.Col
	})
	align := Alignment{Pos: make(map[ColumnRef]int)}
	used := make(map[string]bool)
	for pos, info := range infos {
		base := clusterName(tables, refs, info.members, pos)
		name := base
		for k := 2; used[name]; k++ {
			name = base + "_" + strconv.Itoa(k)
		}
		used[name] = true
		align.Schema = append(align.Schema, name)
		for _, m := range info.members {
			align.Pos[refs[m]] = pos
		}
	}
	return align
}

// clusterName picks the most frequent non-empty header among cluster
// members (original spelling of its first bearer), falling back to
// "col<pos>". Headers are compared in normalized form.
func clusterName(tables []*table.Table, refs []ColumnRef, members []int, pos int) string {
	counts := make(map[string]int)
	firstSpelling := make(map[string]string)
	for _, m := range members {
		r := refs[m]
		raw := tables[r.Table].Columns[r.Col]
		norm := tokenize.Normalize(raw)
		if norm == "" {
			continue
		}
		counts[norm]++
		if _, ok := firstSpelling[norm]; !ok {
			firstSpelling[norm] = raw
		}
	}
	best, bestCount := "", 0
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if counts[k] > bestCount {
			best, bestCount = k, counts[k]
		}
	}
	if best == "" {
		return "col" + strconv.Itoa(pos)
	}
	return firstSpelling[best]
}

// HeaderMatcher is the baseline that trusts headers: columns with equal
// normalized headers share an integration ID. Columns with empty headers
// each form their own cluster. It fails exactly where the paper says data
// lakes fail — inconsistent or missing headers.
type HeaderMatcher struct{}

// Align implements Matcher.
func (HeaderMatcher) Align(tables []*table.Table) (Alignment, error) {
	return alignByKey(tables, func(t *table.Table, c int) string { return tokenize.Normalize(t.Columns[c]) })
}

// alignByKey clusters columns by a string key: columns with equal non-empty
// keys share a label, numbered by first occurrence, and every column with
// an empty key is a singleton.
func alignByKey(tables []*table.Table, key func(t *table.Table, col int) string) (Alignment, error) {
	if len(tables) == 0 {
		return Alignment{}, fmt.Errorf("schemamatch: empty integration set")
	}
	var refs []ColumnRef
	var labels []int
	byKey := make(map[string]int)
	next := 0
	for ti, t := range tables {
		for c := 0; c < t.NumCols(); c++ {
			refs = append(refs, ColumnRef{ti, c})
			k := key(t, c)
			l, ok := byKey[k]
			if !ok {
				l = next
				next++
				if k != "" {
					byKey[k] = l
				}
			}
			labels = append(labels, l)
		}
	}
	return buildAlignment(tables, refs, labels), nil
}

// Oracle clusters columns by a caller-provided truth label; it is the
// perfect matcher used to isolate integration behaviour from matching
// behaviour in tests and experiments.
type Oracle struct {
	// Label returns the ground-truth attribute label of a column; columns
	// with equal labels co-cluster. Empty labels form singletons.
	Label func(tableName string, col int) string
}

// Align implements Matcher.
func (o Oracle) Align(tables []*table.Table) (Alignment, error) {
	if o.Label == nil {
		return Alignment{}, fmt.Errorf("schemamatch: oracle needs a Label function")
	}
	return alignByKey(tables, func(t *table.Table, c int) string { return o.Label(t.Name, c) })
}

// PairwiseScores compares a predicted alignment against a truth alignment
// by column-pair co-clustering decisions, returning precision, recall and
// F1. Only columns present in both alignments are considered.
func PairwiseScores(pred, truth Alignment) (precision, recall, f1 float64) {
	var refs []ColumnRef
	for r := range truth.Pos {
		if _, ok := pred.Pos[r]; ok {
			refs = append(refs, r)
		}
	}
	sort.Slice(refs, func(a, b int) bool {
		if refs[a].Table != refs[b].Table {
			return refs[a].Table < refs[b].Table
		}
		return refs[a].Col < refs[b].Col
	})
	var tp, fp, fn float64
	for i := 0; i < len(refs); i++ {
		for j := i + 1; j < len(refs); j++ {
			p := pred.Pos[refs[i]] == pred.Pos[refs[j]]
			tr := truth.Pos[refs[i]] == truth.Pos[refs[j]]
			switch {
			case p && tr:
				tp++
			case p && !tr:
				fp++
			case !p && tr:
				fn++
			}
		}
	}
	if tp+fp > 0 {
		precision = tp / (tp + fp)
	}
	if tp+fn > 0 {
		recall = tp / (tp + fn)
	}
	if precision+recall > 0 {
		f1 = 2 * precision * recall / (precision + recall)
	}
	return
}
