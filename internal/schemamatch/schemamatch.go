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
// of clusters while its similarity is at least minSim. It returns a cluster
// label per ref. When merged is non-nil it is called after every merge
// with the labels of the clustering at that step (a fresh slice each call).
func clusterConstrained(refs []ColumnRef, sim [][]float64, minSim float64, merged func(labels []int)) []int {
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
