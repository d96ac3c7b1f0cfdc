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
	"context"
	"fmt"
	"sort"

	"repro/internal/kb"
	"repro/internal/table"
	"repro/internal/tokenize"
)

// Options configures Resolve.
type Options struct {
	// Knowledge supplies aliases for equality features and blocking; nil
	// disables alias awareness.
	Knowledge *kb.KB
	// Annotator optionally supplies a prebuilt entity-resolution cache over
	// Knowledge's compiled form (e.g. the lake's dict-backed cache, so lake
	// values resolve without re-canonicalization). Nil builds a transient
	// cache from Knowledge.
	Annotator *kb.Annotator
	// Threshold is the minimum average similarity for a match. Default 0.6.
	Threshold float64
	// Veto rejects a pair outright when a column filled on both sides has
	// similarity below it. Default 0.25.
	Veto float64
}

// annotator returns the entity-resolution cache to resolve through: the
// supplied one, or a transient cache over the (memoized) compiled KB. With
// nil Knowledge the cache still canonicalizes by normalization alone, which
// is exactly the knowledge-free blocking and similarity semantics.
func (o Options) annotator() *kb.Annotator {
	if o.Annotator != nil {
		return o.Annotator
	}
	return kb.NewAnnotator(o.Knowledge.Compiled(), nil)
}

// cellCodes resolves every cell of t through the cache once; codes[r][c] is
// the annotation code of row r, column c (kb.CodeEmpty for nulls and
// empty-canonical values).
func cellCodes(t *table.Table, ann *kb.Annotator) [][]uint32 {
	codes := make([][]uint32, len(t.Rows))
	flat := make([]uint32, len(t.Rows)*t.NumCols())
	for r, row := range t.Rows {
		cr := flat[r*t.NumCols() : (r+1)*t.NumCols() : (r+1)*t.NumCols()]
		for c, v := range row {
			cr[c] = ann.Code(v)
		}
		codes[r] = cr
	}
	return codes
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

// Similarity scores two aligned rows. comparable is false when the rows
// share no column filled on both sides (such rows can never be resolved —
// the fate of the outer join's f9/f10) or when a shared column triggers
// the conflict veto.
func Similarity(a, b []table.Value, opts Options) (score float64, comparable bool) {
	opts = opts.withDefaults()
	return similarityWith(a, b, opts, func(i int) float64 {
		return cellSimilarity(a[i], b[i], opts.Knowledge)
	})
}

// similarityCodes is Similarity over pre-resolved annotation codes: the
// entity-identity shortcut is an integer comparison instead of two
// canonicalizations per compared cell. opts must already have defaults.
func similarityCodes(a, b []table.Value, ca, cb []uint32, opts Options, tc *textCache) (float64, bool) {
	return similarityWith(a, b, opts, func(i int) float64 {
		return cellSimilarityCodes(a[i], b[i], ca[i], cb[i], tc)
	})
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

// cellSimilarity scores two non-null cells in [0,1]. Reference
// implementation; the resolution hot path uses cellSimilarityCodes.
func cellSimilarity(a, b table.Value, knowledge *kb.KB) float64 {
	if a.Equal(b) {
		return 1
	}
	af, aok := a.AsFloat()
	bf, bok := b.AsFloat()
	if aok && bok {
		return numericSimilarity(af, bf)
	}
	as, bs := a.String(), b.String()
	if knowledge != nil && knowledge.SameEntity(as, bs) {
		return 1
	}
	return textSimilarity(as, bs)
}

// cellSimilarityCodes is cellSimilarity with the entity-identity check over
// annotation codes. Equal non-empty codes mean equal canonical forms, which
// scores 1 both with knowledge (SameEntity) and without (equal normalized
// strings make the Levenshtein ratio exactly 1). The numeric comparison
// stays ahead of the code check, exactly as in the reference — distinct
// numbers may share a canonical form ("-5" and "5" both normalize to "5")
// and must keep their numeric score.
func cellSimilarityCodes(a, b table.Value, ca, cb uint32, tc *textCache) float64 {
	if a.Equal(b) {
		return 1
	}
	af, aok := a.AsFloat()
	bf, bok := b.AsFloat()
	if aok && bok {
		return numericSimilarity(af, bf)
	}
	if kb.SameCode(ca, cb) {
		return 1
	}
	fa, fb := tc.get(ca, a.String()), tc.get(cb, b.String())
	lev := levenshteinRatio(fa.norm, fb.norm)
	jac := tokenize.Jaccard(fa.words, fb.words)
	if jac > lev {
		return jac
	}
	return lev
}

// textFeat is the memoized text-fallback view of one cell rendering: its
// normalized form (Levenshtein input) and word set (Jaccard input).
type textFeat struct {
	raw   string
	norm  string
	words []string
}

// textCache memoizes textFeat per (annotation code, raw rendering) for one
// resolution run. A cell value reaching the text fallback is re-compared
// against every blocking partner, so without the cache Normalize and Words
// re-derive the same strings once per candidate pair instead of once per
// distinct rendering. Keying by code alone would be unsound — alias
// renderings ("USA", "United States") share a code but have different word
// sets — so each code holds a small list keyed by the raw string (almost
// always length 1; aliases rarely reach the fallback at all, since equal
// codes already scored 1).
type textCache struct {
	feats map[uint32][]textFeat
}

func newTextCache() *textCache {
	return &textCache{feats: make(map[uint32][]textFeat)}
}

func (tc *textCache) get(code uint32, raw string) *textFeat {
	l := tc.feats[code]
	for i := range l {
		if l[i].raw == raw {
			return &l[i]
		}
	}
	l = append(l, textFeat{raw: raw, norm: tokenize.Normalize(raw), words: tokenize.Words(raw)})
	tc.feats[code] = l
	return &l[len(l)-1]
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

// textSimilarity is the string fallback: the better of the Levenshtein
// ratio over normalized forms and the token Jaccard.
func textSimilarity(as, bs string) float64 {
	lev := levenshteinRatio(tokenize.Normalize(as), tokenize.Normalize(bs))
	jac := tokenize.Jaccard(tokenize.Words(as), tokenize.Words(bs))
	if jac > lev {
		return jac
	}
	return lev
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

// Resolve performs entity resolution over the rows of t. Every cell is
// canonicalized once through the knowledge base's compiled annotation cache
// (see kb.Annotator); blocking, the alias-aware similarity shortcut, and
// clustering then run on integer annotation codes. Output is byte-identical
// to the retained string reference path (pinned by crosscheck_test.go).
//
// ctx is observed cooperatively across the blocking-pair comparison loop:
// once cancelled, Resolve returns (nil, ctx.Err()) promptly. For
// request-scoped resolution against a shared lake annotator, pass
// Options.Annotator = annotator.ERScope().
func Resolve(ctx context.Context, t *table.Table, opts Options) (*Resolution, error) {
	opts = opts.withDefaults()
	return resolveWith(ctx, t, opts.annotator(), opts.Knowledge, opts.Threshold,
		func(a, b []table.Value, ca, cb []uint32, tc *textCache) (float64, bool) {
			return similarityCodes(a, b, ca, cb, opts, tc)
		})
}

// resolveWith is the shared resolution flow around a pair scorer: resolve
// every cell to its annotation code once, block on the codes, score each
// candidate pair (score reports ok=false for pairs that cannot be compared,
// which are dropped), union matched pairs (score >= threshold) transitively,
// and merge each cluster into its canonical tuple.
func resolveWith(ctx context.Context, t *table.Table, ann *kb.Annotator, knowledge *kb.KB, threshold float64,
	score func(a, b []table.Value, ca, cb []uint32, tc *textCache) (float64, bool)) (*Resolution, error) {
	if t == nil || t.NumCols() == 0 {
		return nil, fmt.Errorf("er: nil or zero-column table")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	codes := cellCodes(t, ann)
	candidates := blockPairsCodes(codes)
	tc := newTextCache()
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
	for pi, p := range candidates {
		if done != nil && pi%pairCancelStride == 0 {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		sc, comparable := score(t.Rows[p[0]], t.Rows[p[1]], codes[p[0]], codes[p[1]], tc)
		if !comparable {
			continue
		}
		pair := Pair{A: p[0], B: p[1], Score: sc, Matched: sc >= threshold}
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
	res.Resolved = mergeClusters(t, res.Clusters, knowledge)
	return res, nil
}

// blockPairsCodes generates candidate pairs from annotation codes: rows
// sharing a non-empty code in the same column block together. Each pair is
// emitted once (a<b) and the output is sorted by (A,B) — identical to the
// string-keyed reference blockPairs in crosscheck_test.go, whose sorted-key
// iteration the final pair sort already canonicalizes away.
func blockPairsCodes(codes [][]uint32) [][2]int {
	blocks := make(map[uint64][]int32)
	for r, row := range codes {
		for c, code := range row {
			if code <= kb.CodeEmpty {
				continue
			}
			key := uint64(c)<<32 | uint64(code)
			blocks[key] = append(blocks[key], int32(r))
		}
	}
	seen := make(map[[2]int]bool)
	var out [][2]int
	for _, rows := range blocks {
		for i := 0; i < len(rows); i++ {
			for j := i + 1; j < len(rows); j++ {
				p := [2]int{int(rows[i]), int(rows[j])}
				if seen[p] {
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

func canonicalValue(t *table.Table, cluster []int, c int) table.Value {
	counts := make(map[string]int)
	byKey := make(map[string]table.Value)
	anyMissing := false
	for _, r := range cluster {
		v := t.Rows[r][c]
		if v.IsNull() {
			if v.Kind() == table.Null {
				anyMissing = true
			}
			continue
		}
		k := v.Key()
		counts[k]++
		if _, ok := byKey[k]; !ok {
			byKey[k] = v
		}
	}
	if len(counts) == 0 {
		if anyMissing {
			return table.NullValue()
		}
		return table.ProducedNull()
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		ka, kb2 := keys[a], keys[b]
		if counts[ka] != counts[kb2] {
			return counts[ka] > counts[kb2]
		}
		sa, sb := byKey[ka].String(), byKey[kb2].String()
		if len(sa) != len(sb) {
			return len(sa) > len(sb)
		}
		return sa < sb
	})
	return byKey[keys[0]]
}
