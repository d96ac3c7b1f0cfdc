package er

// crosscheck_test pins the annotation-code resolution path (cellCodes,
// blockPairsCodes, similarityCodes, featuresCodes) to the retained string
// reference (blockPairs, Similarity, Features): on randomized tables mixing
// alias spellings, numerics whose canonical forms collide ("-5" vs "5"),
// floats, bools, both null kinds and punctuation-only strings, Resolve and
// ResolveLearned must return byte-identical resolutions — same candidate
// pairs, same bit-exact scores, same clusters, same merged table — for nil
// and non-nil knowledge bases.

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/kb"
	"repro/internal/table"
	"repro/internal/tokenize"
)

// refResolve is the pre-refactor Resolve: string-keyed blocking and
// per-comparison canonicalization through the exported reference API.
func refResolve(t *table.Table, opts Options) (*Resolution, error) {
	if t == nil || t.NumCols() == 0 {
		return nil, fmt.Errorf("er: nil or zero-column table")
	}
	opts = opts.withDefaults()
	candidates := blockPairs(t, opts.Knowledge)
	parent := make([]int, t.NumRows())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	res := &Resolution{Input: t}
	for _, p := range candidates {
		score, comparable := Similarity(t.Rows[p[0]], t.Rows[p[1]], opts)
		if !comparable {
			continue
		}
		pair := Pair{A: p[0], B: p[1], Score: score, Matched: score >= opts.Threshold}
		res.Pairs = append(res.Pairs, pair)
		if pair.Matched {
			ra, rb := find(p[0]), find(p[1])
			if ra != rb {
				if ra > rb {
					ra, rb = rb, ra
				}
				parent[rb] = ra
			}
		}
	}
	byRoot := make(map[int][]int)
	for i := 0; i < t.NumRows(); i++ {
		r := find(i)
		byRoot[r] = append(byRoot[r], i)
	}
	roots := make([]int, 0, len(byRoot))
	for r := range byRoot {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	for _, r := range roots {
		sort.Ints(byRoot[r])
		res.Clusters = append(res.Clusters, byRoot[r])
	}
	res.Resolved = mergeClusters(t, res.Clusters, opts.Knowledge)
	return res, nil
}

// refResolveLearned is the pre-refactor ResolveLearned over string-keyed
// blocking and reference Features.
func refResolveLearned(t *table.Table, model *LogisticModel, knowledge *kb.KB, threshold float64) (*Resolution, error) {
	if threshold <= 0 {
		threshold = 0.5
	}
	candidates := blockPairs(t, knowledge)
	parent := make([]int, t.NumRows())
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	res := &Resolution{Input: t}
	for _, p := range candidates {
		x, ok := Features(t.Rows[p[0]], t.Rows[p[1]], knowledge)
		if !ok {
			continue
		}
		score := model.Predict(x)
		pair := Pair{A: p[0], B: p[1], Score: score, Matched: score >= threshold}
		res.Pairs = append(res.Pairs, pair)
		if pair.Matched {
			ra, rb := find(p[0]), find(p[1])
			if ra != rb {
				if ra > rb {
					ra, rb = rb, ra
				}
				parent[rb] = ra
			}
		}
	}
	byRoot := make(map[int][]int)
	for i := 0; i < t.NumRows(); i++ {
		byRoot[find(i)] = append(byRoot[find(i)], i)
	}
	roots := make([]int, 0, len(byRoot))
	for r := range byRoot {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	for _, r := range roots {
		sort.Ints(byRoot[r])
		res.Clusters = append(res.Clusters, byRoot[r])
	}
	res.Resolved = mergeClusters(t, res.Clusters, knowledge)
	return res, nil
}

func assertSameResolution(t *testing.T, label string, got, want *Resolution) {
	t.Helper()
	if len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("%s: %d pairs, want %d\ngot:  %+v\nwant: %+v", label, len(got.Pairs), len(want.Pairs), got.Pairs, want.Pairs)
	}
	for i := range got.Pairs {
		if got.Pairs[i] != want.Pairs[i] {
			t.Fatalf("%s: pair %d: got %+v, want %+v", label, i, got.Pairs[i], want.Pairs[i])
		}
	}
	if len(got.Clusters) != len(want.Clusters) {
		t.Fatalf("%s: %d clusters, want %d", label, len(got.Clusters), len(want.Clusters))
	}
	for i := range got.Clusters {
		if len(got.Clusters[i]) != len(want.Clusters[i]) {
			t.Fatalf("%s: cluster %d: got %v, want %v", label, i, got.Clusters[i], want.Clusters[i])
		}
		for j := range got.Clusters[i] {
			if got.Clusters[i][j] != want.Clusters[i][j] {
				t.Fatalf("%s: cluster %d: got %v, want %v", label, i, got.Clusters[i], want.Clusters[i])
			}
		}
	}
	if !got.Resolved.Equal(want.Resolved) {
		t.Fatalf("%s: resolved tables differ\ngot:\n%s\nwant:\n%s", label, got.Resolved, want.Resolved)
	}
}

// randomERTable builds a table whose cells stress every code path: alias
// pairs, canonical-colliding numerics, near-miss strings, and nulls.
func randomERTable(rng *rand.Rand, name string) *table.Table {
	cells := []table.Value{
		table.StringValue("JnJ"), table.StringValue("J&J"), table.StringValue("Janssen"),
		table.StringValue("Pfizer"), table.StringValue("pfizer biontech"),
		table.StringValue("USA"), table.StringValue("U.S.A."), table.StringValue("United States"),
		table.StringValue("Berlin"), table.StringValue("berlin!"), table.StringValue("Berlinn"),
		table.StringValue("FDA"), table.StringValue("EMA"),
		table.StringValue("##"), table.StringValue("stranger"),
		table.StringValue("5"), table.StringValue("-5"),
		table.IntValue(5), table.IntValue(-5), table.IntValue(100), table.IntValue(90),
		table.FloatValue(8.2), table.FloatValue(5), table.BoolValue(true),
		table.NullValue(), table.ProducedNull(),
	}
	cols := 3 + rng.Intn(3)
	headers := make([]string, cols)
	for c := range headers {
		headers[c] = fmt.Sprintf("c%d", c)
	}
	tb := table.New(name, headers...)
	rows := 6 + rng.Intn(10)
	for r := 0; r < rows; r++ {
		row := make([]table.Value, cols)
		for c := range row {
			row[c] = cells[rng.Intn(len(cells))]
		}
		tb.Rows = append(tb.Rows, row)
	}
	return tb
}

func TestCrossCheckResolve(t *testing.T) {
	// The reference reads an unfrozen twin (kb.FromDump of a Dump taken
	// before Resolve freezes the KB), so its string methods read the string
	// form, not the compiled one under test.
	demo := kb.Demo()
	knows := map[string][2]*kb.KB{"demo": {demo, kb.FromDump(demo.Dump())}, "nil": {nil, nil}}
	for kname, kbs := range knows {
		for _, seed := range []int64{21, 22, 23, 24, 25} {
			rng := rand.New(rand.NewSource(seed))
			tb := randomERTable(rng, fmt.Sprintf("t%d", seed))
			got, gerr := Resolve(context.Background(), tb, Options{Knowledge: kbs[0]})
			want, werr := refResolve(tb, Options{Knowledge: kbs[1]})
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("kb=%s seed=%d: error mismatch: %v vs %v", kname, seed, gerr, werr)
			}
			if gerr != nil {
				continue
			}
			assertSameResolution(t, fmt.Sprintf("kb=%s seed=%d", kname, seed), got, want)
		}
	}
}

func TestCrossCheckResolveLearned(t *testing.T) {
	know := kb.Demo()
	ref := kb.FromDump(know.Dump()) // the reference's unfrozen twin
	model := &LogisticModel{Weights: []float64{3, 1, 0.5, -0.5, 2}, Bias: -2}
	for _, seed := range []int64{31, 32, 33} {
		rng := rand.New(rand.NewSource(seed))
		tb := randomERTable(rng, fmt.Sprintf("t%d", seed))
		got, gerr := ResolveLearned(context.Background(), tb, model, know, 0)
		want, werr := refResolveLearned(tb, model, ref, 0)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("seed=%d: error mismatch: %v vs %v", seed, gerr, werr)
		}
		if gerr != nil {
			continue
		}
		assertSameResolution(t, fmt.Sprintf("seed=%d", seed), got, want)
	}
}

// blockPairs generates candidate pairs: rows sharing a canonicalized cell
// value in the same column. Each pair is emitted once (a<b), ordered. It is
// the string reference for blockPairsCodes, which Resolve uses.
func blockPairs(t *table.Table, knowledge *kb.KB) [][2]int {
	blocks := make(map[string][]int)
	for r, row := range t.Rows {
		for c, v := range row {
			if v.IsNull() {
				continue
			}
			key := tokenize.Normalize(v.String())
			if knowledge != nil {
				key = knowledge.Canonical(v.String())
			}
			if key == "" {
				continue
			}
			blocks[fmt.Sprintf("%d\x1f%s", c, key)] = append(blocks[fmt.Sprintf("%d\x1f%s", c, key)], r)
		}
	}
	seen := make(map[[2]int]bool)
	var out [][2]int
	keys := make([]string, 0, len(blocks))
	for k := range blocks {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		rows := blocks[k]
		for i := 0; i < len(rows); i++ {
			for j := i + 1; j < len(rows); j++ {
				p := [2]int{rows[i], rows[j]}
				if p[0] == p[1] || seen[p] {
					continue
				}
				seen[p] = true
				out = append(out, p)
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a][0] != out[b][0] {
			return out[a][0] < out[b][0]
		}
		return out[a][1] < out[b][1]
	})
	return out
}
