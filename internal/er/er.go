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
	"math"
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

// cellCodes resolves every cell of t through the cache once; codes[r][c] is
// the annotation code of row r, column c (kb.CodeEmpty for nulls and
// empty-canonical values). A numeric cell's code is a function of its
// rendering, which is a function of its kind and bits, so each distinct
// (kind, bits) is rendered and resolved once per table.
func cellCodes(t *table.Table, ann *kb.Annotator) [][]uint32 {
	type number struct {
		kind table.Kind
		bits uint64
	}
	numbers := make(map[number]uint32)
	codes := make([][]uint32, len(t.Rows))
	flat := make([]uint32, len(t.Rows)*t.NumCols())
	for r, row := range t.Rows {
		cr := flat[r*t.NumCols() : (r+1)*t.NumCols() : (r+1)*t.NumCols()]
		for c, v := range row {
			var n number
			switch v.Kind() {
			case table.Int:
				n = number{table.Int, uint64(v.IntVal())}
			case table.Float:
				n = number{table.Float, math.Float64bits(v.FloatVal())}
			default:
				cr[c] = ann.Code(v)
				continue
			}
			code, ok := numbers[n]
			if !ok {
				code = ann.Code(v)
				numbers[n] = code
			}
			cr[c] = code
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

// similarityCodes scores two aligned rows over pre-resolved annotation
// codes: the entity-identity shortcut is an integer comparison instead of
// two canonicalizations per compared cell. comparable is false when the
// rows share no column filled on both sides (such rows can never be
// resolved — the fate of the outer join's f9/f10) or when a shared column
// triggers the conflict veto. opts must already have defaults.
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
	fa, fb := newTextFeat(as), newTextFeat(bs)
	return fa.similarity(&fb)
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
	return tc.score(tc.get(ca, a.String()), tc.get(cb, b.String()))
}

// textFeat is the text-fallback view of one cell rendering: its normalized
// form (Levenshtein input) and word set (Jaccard input), plus its dense id
// within a textCache.
type textFeat struct {
	raw   string
	norm  string
	words []string
	id    uint32
}

func newTextFeat(raw string) textFeat {
	return textFeat{raw: raw, norm: tokenize.Normalize(raw), words: tokenize.Words(raw)}
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

// textCache memoizes the text fallback for one resolution run. Blocking
// re-compares a cell value against every partner, and the same value pairs
// recur across rows and columns, so it keeps:
//
//   - one textFeat per (annotation code, raw rendering). Keying by code
//     alone would be unsound — alias renderings ("USA", "United States")
//     share a code but have different word sets — so each code holds a
//     small list keyed by the raw string (almost always length 1; aliases
//     rarely reach the fallback at all, since equal codes already scored 1);
//   - one score per ordered pair of textFeat ids, so each distinct pair of
//     renderings pays for one Levenshtein and one Jaccard.
//
// The memo lives and dies with one request; nothing is shared.
type textCache struct {
	feats  map[uint32][]textFeat
	n      uint32
	scores map[uint64]float64
}

func newTextCache() *textCache {
	return &textCache{feats: make(map[uint32][]textFeat), scores: make(map[uint64]float64)}
}

func (tc *textCache) get(code uint32, raw string) *textFeat {
	l := tc.feats[code]
	for i := range l {
		if l[i].raw == raw {
			return &l[i]
		}
	}
	f := newTextFeat(raw)
	f.id = tc.n
	tc.n++
	l = append(l, f)
	tc.feats[code] = l
	return &l[len(l)-1]
}

// score returns a.similarity(b), computed once per ordered pair.
func (tc *textCache) score(a, b *textFeat) float64 {
	key := uint64(a.id)<<32 | uint64(b.id)
	s, ok := tc.scores[key]
	if !ok {
		s = a.similarity(b)
		tc.scores[key] = s
	}
	return s
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

// Resolve performs entity resolution over the rows of t. Every cell is
// canonicalized once through an annotation cache over the knowledge base's
// compiled form (see kb.Annotator), built for this call and dropped with
// it; blocking, the alias-aware similarity shortcut, and clustering then
// run on integer annotation codes. With nil Knowledge the cache
// canonicalizes by normalization alone, which is exactly the knowledge-free
// semantics. Output is byte-identical to the retained string reference
// path (pinned by crosscheck_test.go).
//
// ctx is observed cooperatively across the blocking-pair comparison loop:
// once cancelled, Resolve returns (nil, ctx.Err()) promptly.
func Resolve(ctx context.Context, t *table.Table, opts Options) (*Resolution, error) {
	opts = opts.withDefaults()
	return resolveWith(ctx, t, opts.Knowledge, opts.Threshold,
		func(a, b []table.Value, ca, cb []uint32, tc *textCache) (float64, bool) {
			return similarityCodes(a, b, ca, cb, opts, tc)
		})
}

// resolveWith is the shared resolution flow around a pair scorer: resolve
// every cell to its annotation code once, through a fresh annotator over
// knowledge's compiled form, block on the codes, score each
// candidate pair (score reports ok=false for pairs that cannot be compared,
// which are dropped), union matched pairs (score >= threshold) transitively,
// and merge each cluster into its canonical tuple.
func resolveWith(ctx context.Context, t *table.Table, knowledge *kb.KB, threshold float64,
	score func(a, b []table.Value, ca, cb []uint32, tc *textCache) (float64, bool)) (*Resolution, error) {
	ann := kb.NewAnnotator(knowledge.Compiled())
	if t == nil || t.NumCols() == 0 {
		return nil, fmt.Errorf("er: nil or zero-column table")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	codes := cellCodes(t, ann)
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
	pi := 0
	for a, b := range candidatePairs(codes) {
		if done != nil && pi%pairCancelStride == 0 {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		pi++
		sc, comparable := score(t.Rows[a], t.Rows[b], codes[a], codes[b], tc)
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

// candidatePairs yields the blocking candidates from annotation codes: rows
// sharing a non-empty code in the same column block together. Each pair
// comes out once (a<b), in ascending (a, b) order — the sequence of the
// string-keyed reference blockPairs in crosscheck_test.go — without a pair
// set or a global sort: rows are walked in ascending order, a row's
// partners are the rows after it in each of its blocks (block rows ascend),
// marked with the row's stamp so a pair sharing several blocks is taken
// once, then sorted.
func candidatePairs(codes [][]uint32) iter.Seq2[int, int] {
	return func(yield func(int, int) bool) {
		blocks := make(map[uint64][]int32)
		for r, row := range codes {
			for c, code := range row {
				if code > kb.CodeEmpty {
					key := uint64(c)<<32 | uint64(code)
					blocks[key] = append(blocks[key], int32(r))
				}
			}
		}
		stamp := make([]int32, len(codes))
		var partners []int32
		for r, row := range codes {
			partners = partners[:0]
			for c, code := range row {
				if code <= kb.CodeEmpty {
					continue
				}
				rows := blocks[uint64(c)<<32|uint64(code)]
				i, _ := slices.BinarySearch(rows, int32(r))
				for _, p := range rows[i+1:] {
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
