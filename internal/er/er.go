// Package er implements entity resolution over integrated tables, the
// downstream application of the paper's Example 5 (where the Python
// prototype calls py_entitymatching). The same block → score → match →
// cluster → merge flow is implemented natively:
//
//   - blocking on knowledge-base-canonicalized cell values, so alias pairs
//     (J&J ≈ JnJ, USA ≈ United States) land in one block;
//   - per-column similarity features: alias-aware equality, numeric
//     closeness, Levenshtein ratio and token Jaccard;
//   - a rule matcher with a conflict veto: a pair is rejected outright when
//     any column both sides fill disagrees strongly, and otherwise matches
//     when the average similarity — counting one-sided nulls as 0, the
//     incompleteness penalty that makes ER fail on outer-join output
//     (Fig. 8(c)) and succeed on FD output (Fig. 8(d)) — clears the
//     threshold;
//   - transitive clustering of matches and canonical-tuple merging.
package er

import (
	"cmp"
	"context"
	"fmt"
	"iter"
	"slices"

	"repro/internal/kb"
	"repro/internal/table"
	"repro/internal/tokenize"
)

// Options configures Resolve.
type Options struct {
	// Knowledge supplies aliases for equality features and blocking; nil
	// disables alias awareness.
	Knowledge *kb.KB
	// Threshold is the minimum average similarity for a match. Default 0.6.
	Threshold float64
	// Veto rejects a pair outright when a column filled on both sides has
	// similarity below it. Default 0.25.
	Veto float64
}

func (o Options) withDefaults() Options {
	if o.Threshold == 0 {
		o.Threshold = 0.6
	}
	if o.Veto == 0 {
		o.Veto = 0.25
	}
	return o
}

// Pair is one scored candidate row pair (A < B).
type Pair struct {
	A, B  int
	Score float64
	// Matched reports whether the pair cleared the threshold.
	Matched bool
}

// Resolution is the output of Resolve.
type Resolution struct {
	// Input is the table that was resolved.
	Input *table.Table
	// Clusters groups row indices of resolved entities (singletons
	// included), each sorted, ordered by first member.
	Clusters [][]int
	// Pairs lists every compared candidate pair with its score.
	Pairs []Pair
	// Resolved holds one canonical merged tuple per cluster.
	Resolved *table.Table
}

// similarityWith is the shared row-scoring core: sim(i) scores column i's
// two (non-null) cells.
func similarityWith(a, b []table.Value, opts Options, sim func(i int) float64) (score float64, comparable bool) {
	considered := 0
	bothFilled := 0
	total := 0.0
	for i := range a {
		an, bn := !a[i].IsNull(), !b[i].IsNull()
		switch {
		case an && bn:
			s := sim(i)
			if s < opts.Veto {
				return 0, false // conflicting values: hard reject
			}
			considered++
			bothFilled++
			total += s
		case an != bn:
			// One-sided null: the pair stays comparable but pays an
			// uncertainty penalty (a 0 contribution).
			considered++
		default:
			// Both null: the column says nothing.
		}
	}
	if bothFilled == 0 || considered == 0 {
		return 0, false
	}
	return total / float64(considered), true
}

// valueTable is the one table of the distinct cells a resolution or
// training call compares. A cell is keyed by its exact value
// (table.Value.Exact: kind and payload bits) and gets a dense id; its entry
// holds the value, its annotation code and, from its first text
// comparison on, its text features. Text scores are memoized per ordered
// pair of ids, so blocking's repeated comparisons of the same two values
// pay for one Levenshtein and one Jaccard.
//
// Everything an entry holds is a function of kind and payload bits, and a
// text score is a function of two renderings, so the table answers exactly
// as canonicalizing every compared cell afresh would. The key is exact, not
// Equal's: Int 10^15 equals Float 10^15, but their renderings
// ("1000000000000000", "1e+15") and so their codes differ. The table lives
// and dies with one call; nothing is shared.
type valueTable struct {
	ann    *kb.Annotator
	ids    map[table.ExactKey]uint32
	cells  []cell
	scores map[uint64]float64
}

type cell struct {
	v    table.Value
	code uint32    // kb.CodeEmpty for nulls and empty-canonical values
	text *textFeat // nil until the cell first reaches the text fallback
}

// newValueTable starts an empty table annotating through a fresh annotator
// over knowledge's compiled form (normalization alone when knowledge is
// nil, the knowledge-free semantics).
func newValueTable(knowledge *kb.KB) *valueTable {
	return &valueTable{
		ann:    kb.NewAnnotator(knowledge.Compiled()),
		ids:    make(map[table.ExactKey]uint32),
		scores: make(map[uint64]float64),
	}
}

// id returns v's dense id, annotating v on first sight.
func (vt *valueTable) id(v table.Value) uint32 {
	i, ok := vt.ids[v.Exact()]
	if !ok {
		i = uint32(len(vt.cells))
		vt.ids[v.Exact()] = i
		vt.cells = append(vt.cells, cell{v: v, code: vt.ann.Code(v)})
	}
	return i
}

// index enters every cell of t: ids[r*cols+c] and codes[r*cols+c] are row
// r, column c's id and annotation code.
func (vt *valueTable) index(t *table.Table) (ids, codes []uint32) {
	cols := t.NumCols()
	ids, codes = make([]uint32, len(t.Rows)*cols), make([]uint32, len(t.Rows)*cols)
	for r, row := range t.Rows {
		for c, v := range row {
			id := vt.id(v)
			ids[r*cols+c], codes[r*cols+c] = id, vt.cells[id].code
		}
	}
	return ids, codes
}

// similarity scores two non-null cells in [0,1] by id. Equal values score
// 1, two numbers their relative closeness, and equal non-empty codes 1:
// equal codes mean equal canonical forms, which score 1 both with
// knowledge (KB.SameEntity) and without (equal normalized strings make the
// Levenshtein ratio exactly 1). The numeric check stays ahead of the code
// check, because distinct numbers may share a canonical form ("-5" and "5"
// both normalize to "5") and must keep their numeric score. Everything
// else falls back to text, memoized per ordered pair.
func (vt *valueTable) similarity(i, j uint32) float64 {
	a, b := &vt.cells[i], &vt.cells[j]
	if a.v.Equal(b.v) {
		return 1
	}
	af, aok := a.v.AsFloat()
	bf, bok := b.v.AsFloat()
	if aok && bok {
		return numericSimilarity(af, bf)
	}
	if kb.SameCode(a.code, b.code) {
		return 1
	}
	key := uint64(i)<<32 | uint64(j)
	s, ok := vt.scores[key]
	if !ok {
		s = vt.text(i).similarity(vt.text(j))
		vt.scores[key] = s
	}
	return s
}

func (vt *valueTable) text(i uint32) *textFeat {
	c := &vt.cells[i]
	if c.text == nil {
		f := newTextFeat(c.v.String())
		c.text = &f
	}
	return c.text
}

// textFeat is the text-fallback view of one cell rendering: its normalized
// form (Levenshtein input) and word set (Jaccard input).
type textFeat struct {
	norm  string
	words []string
}

func newTextFeat(raw string) textFeat {
	return textFeat{norm: tokenize.Normalize(raw), words: tokenize.Words(raw)}
}

// similarity is the string fallback: the better of the Levenshtein ratio
// over normalized forms and the token Jaccard.
func (f *textFeat) similarity(o *textFeat) float64 {
	lev := levenshteinRatio(f.norm, o.norm)
	jac := tokenize.Jaccard(f.words, o.words)
	if jac > lev {
		return jac
	}
	return lev
}

// numericSimilarity scores two numeric cells by relative closeness.
func numericSimilarity(af, bf float64) float64 {
	den := maxAbs(af, bf)
	if den == 0 {
		return 1
	}
	d := af - bf
	if d < 0 {
		d = -d
	}
	if d >= den {
		return 0
	}
	return 1 - d/den
}

func maxAbs(a, b float64) float64 {
	if a < 0 {
		a = -a
	}
	if b < 0 {
		b = -b
	}
	if a > b {
		return a
	}
	return b
}

// levenshteinRatio returns 1 - dist/maxLen in [0,1].
func levenshteinRatio(a, b string) float64 {
	ar, br := []rune(a), []rune(b)
	if len(ar) == 0 && len(br) == 0 {
		return 1
	}
	la, lb := len(ar), len(br)
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if ar[i-1] == br[j-1] {
				cost = 0
			}
			m := prev[j] + 1 // deletion
			if x := cur[j-1] + 1; x < m {
				m = x // insertion
			}
			if x := prev[j-1] + cost; x < m {
				m = x // substitution
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	dist := prev[lb]
	maxLen := la
	if lb > maxLen {
		maxLen = lb
	}
	return 1 - float64(dist)/float64(maxLen)
}

// pairCancelStride bounds how many blocking-generated candidate pairs are
// compared between two context checks in resolveWith — the
// comparison loop is the quadratic-in-the-worst-case part of ER.
const pairCancelStride = 256

// Resolve performs entity resolution over the rows of t. Every distinct
// cell is entered once into a value table built for this call and dropped
// with it (see valueTable): its annotation code comes from a fresh
// annotator over the knowledge base's compiled form (see kb.Annotator), so
// blocking and the alias-aware similarity shortcut run on integer codes.
// With nil Knowledge the annotator canonicalizes by normalization alone,
// which is exactly the knowledge-free semantics. Output is byte-identical
// to the string reference kept in the package's tests (pinned by
// crosscheck_test.go and FuzzResolveMatchesReference).
//
// ctx is observed cooperatively across the blocking-pair comparison loop:
// once cancelled, Resolve returns (nil, ctx.Err()) promptly.
func Resolve(ctx context.Context, t *table.Table, opts Options) (*Resolution, error) {
	opts = opts.withDefaults()
	return resolveWith(ctx, t, opts.Knowledge, opts.Threshold,
		func(a, b []table.Value, sim func(i int) float64) (float64, bool) {
			return similarityWith(a, b, opts, sim)
		})
}

// resolveWith is the shared resolution flow around a pair scorer: enter
// every cell of t into one value table, block on its codes, score each
// candidate pair (sim(i) scores column i's two non-null cells through the
// table; score reports ok=false for pairs that cannot be compared, which
// are dropped), union matched pairs (score >= threshold) transitively, and
// merge each cluster into its canonical tuple.
func resolveWith(ctx context.Context, t *table.Table, knowledge *kb.KB, threshold float64,
	score func(a, b []table.Value, sim func(i int) float64) (float64, bool)) (*Resolution, error) {
	if t == nil || t.NumCols() == 0 {
		return nil, fmt.Errorf("er: nil or zero-column table")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	vt := newValueTable(knowledge)
	ids, codes := vt.index(t)
	cols := t.NumCols()
	var ia, ib []uint32
	sim := func(i int) float64 { return vt.similarity(ia[i], ib[i]) }
	done := ctx.Done()
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
	pi := 0
	for a, b := range candidatePairs(codes, cols) {
		if done != nil && pi%pairCancelStride == 0 {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		pi++
		ia, ib = ids[a*cols:(a+1)*cols], ids[b*cols:(b+1)*cols]
		sc, comparable := score(t.Rows[a], t.Rows[b], sim)
		if !comparable {
			continue
		}
		pair := Pair{A: a, B: b, Score: sc, Matched: sc >= threshold}
		res.Pairs = append(res.Pairs, pair)
		if pair.Matched {
			ra, rb := find(a), find(b)
			if ra != rb {
				if ra > rb {
					ra, rb = rb, ra
				}
				parent[rb] = ra
			}
		}
	}
	// A root is the smallest row of its cluster (unions keep the smaller
	// root), so one ascending pass lists clusters by first member, each
	// sorted.
	cluster := make([]int, t.NumRows())
	for i := range cluster {
		r := find(i)
		if r == i {
			cluster[i] = len(res.Clusters)
			res.Clusters = append(res.Clusters, nil)
		}
		res.Clusters[cluster[r]] = append(res.Clusters[cluster[r]], i)
	}
	res.Resolved = mergeClusters(t, res.Clusters, knowledge)
	return res, nil
}

// candidatePairs yields the blocking candidates from the flat annotation
// codes of a cols-column table (codes[r*cols+c] is row r, column c's): rows
// sharing a non-empty code in the same column block together. Each pair
// comes out once (a<b), in ascending (a, b) order — the sequence of the
// string-keyed reference blockPairs in crosscheck_test.go — without a pair
// set or a global sort: rows are walked in ascending order, a row's
// partners are the rows after it in each of its blocks (block rows ascend),
// marked with the row's stamp so a pair sharing several blocks is taken
// once, then sorted.
func candidatePairs(codes []uint32, cols int) iter.Seq2[int, int] {
	return func(yield func(int, int) bool) {
		rows := len(codes) / cols
		blocks := make(map[uint64][]int32)
		for k, code := range codes {
			if code > kb.CodeEmpty {
				key := uint64(k%cols)<<32 | uint64(code)
				blocks[key] = append(blocks[key], int32(k/cols))
			}
		}
		stamp := make([]int32, rows)
		var partners []int32
		for r := 0; r < rows; r++ {
			partners = partners[:0]
			for c, code := range codes[r*cols : (r+1)*cols] {
				if code <= kb.CodeEmpty {
					continue
				}
				block := blocks[uint64(c)<<32|uint64(code)]
				i, _ := slices.BinarySearch(block, int32(r))
				for _, p := range block[i+1:] {
					if stamp[p] != int32(r)+1 {
						stamp[p] = int32(r) + 1
						partners = append(partners, p)
					}
				}
			}
			slices.Sort(partners)
			for _, p := range partners {
				if !yield(r, int(p)) {
					return
				}
			}
		}
	}
}

// mergeClusters builds the canonical table: per cluster and column, the
// most frequent non-null value wins; ties prefer the longest rendering,
// then the lexicographically smallest (which selects "J&J" over "JnJ" and
// "United States" over "USA", as in Fig. 8(d)). All-null columns keep a
// missing null if any member had one, else a produced null.
func mergeClusters(t *table.Table, clusters [][]int, knowledge *kb.KB) *table.Table {
	out := table.New("ER("+t.Name+")", t.Columns...)
	for _, cluster := range clusters {
		row := make([]table.Value, t.NumCols())
		for c := 0; c < t.NumCols(); c++ {
			row[c] = canonicalValue(t, cluster, c)
		}
		out.Rows = append(out.Rows, row)
	}
	return out
}

// canonicalValue picks the merged value of column c over one cluster. A
// singleton's non-null cell is its own answer. Otherwise every distinct
// value (by Key) is counted and rendered once, and the best wins; distinct
// values that tie on count and rendering ("5" and 5) go to the first in
// row order.
func canonicalValue(t *table.Table, cluster []int, c int) table.Value {
	if len(cluster) == 1 {
		if v := t.Rows[cluster[0]][c]; !v.IsNull() {
			return v
		}
	}
	type candidate struct {
		v     table.Value
		s     string
		count int
	}
	var cands []candidate
	index := make(map[string]int)
	anyMissing := false
	for _, r := range cluster {
		v := t.Rows[r][c]
		if v.IsNull() {
			anyMissing = anyMissing || v.Kind() == table.Null
			continue
		}
		k := v.Key()
		i, ok := index[k]
		if !ok {
			i = len(cands)
			index[k] = i
			cands = append(cands, candidate{v: v, s: v.String()})
		}
		cands[i].count++
	}
	if len(cands) == 0 {
		if anyMissing {
			return table.NullValue()
		}
		return table.ProducedNull()
	}
	best := cands[0]
	for _, x := range cands[1:] {
		if cmp.Or(cmp.Compare(best.count, x.count), cmp.Compare(len(best.s), len(x.s)), cmp.Compare(x.s, best.s)) < 0 {
			best = x
		}
	}
	return best.v
}
