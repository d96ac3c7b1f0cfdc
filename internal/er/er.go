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
	"strings"

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
// training call compares. A cell is keyed by its exact value (kind and
// payload bits, as table.Value.Exact) and gets a dense id. The key is kept
// per kind: strings by their string, Ints by their payload and Floats by
// their bits, in three maps, and the two nulls and the two bools in fixed
// slots, so no key hashes a generic struct. An entry is derived once, on
// entry: the value, its rendering, the rendering's normal form and its
// identity code. Its text features follow on its first text comparison,
// and a number's Equal class on the first merge where it meets another
// number. Text scores are memoized per pair of ids, so
// blocking's repeated comparisons of the same two values pay for one
// Levenshtein and one Jaccard.
//
// Everything an entry holds is a function of kind and payload bits, and a
// text score is a function of two renderings, so the table answers exactly
// as canonicalizing every compared cell afresh would. The key is exact, not
// Equal's: Int 10^15 equals Float 10^15, but their renderings
// ("1000000000000000", "1e+15") and so their codes differ. The table lives
// and dies with one call; nothing is shared.
type valueTable struct {
	codes  *kb.Numbering
	strs   map[string]uint32
	ints   map[int64]uint32
	floats map[uint64]uint32
	fixed  [4]uint32 // id+1 of Null, PNull, false, true; 0 until entered
	cells  []cell
	texts  []textForm // texts[id], grown on demand
	scores map[uint64]float64

	// classes interns numbers by Equal (table.Dict IDs are exactly Key's
	// classes); mark (id or class → candidate) and cands are the merge's
	// scratch.
	classes *table.Dict
	mark    []int32
	cands   []mergeCand
	// lev holds the Levenshtein rows every text comparison reuses.
	lev [2][]int
}

type cell struct {
	v     table.Value
	s     string // v.String(), rendered once
	norm  string // tokenize.Normalize(s), normalized once
	code  uint32 // kb.CodeEmpty for nulls and empty-canonical values
	class uint32 // a number's Equal class, 0 until the merge first asks
}

// textForm is a cell's text-fallback view, derived on its first text
// comparison: the normalized rendering's runes (Levenshtein input) and its
// sorted, distinct words (Jaccard input).
type textForm struct {
	done  bool
	runes []rune
	words []string
}

// newValueTable starts an empty table numbering its values over
// knowledge's compiled form (normalization alone when knowledge is nil, the
// knowledge-free semantics).
func newValueTable(knowledge *kb.KB) *valueTable {
	return &valueTable{
		codes:   kb.NewNumbering(knowledge.Compiled()),
		strs:    make(map[string]uint32),
		ints:    make(map[int64]uint32),
		floats:  make(map[uint64]uint32),
		scores:  make(map[uint64]float64),
		classes: table.NewDict(),
	}
}

// id returns v's dense id, entering and annotating v on first sight.
func (vt *valueTable) id(v table.Value) uint32 {
	switch v.Kind() {
	case table.String:
		return idIn(vt, vt.strs, v.Str(), v)
	case table.Int:
		return idIn(vt, vt.ints, v.IntVal(), v)
	case table.Float:
		return idIn(vt, vt.floats, math.Float64bits(v.FloatVal()), v)
	}
	var slot *uint32
	switch {
	case v.Kind() != table.Bool:
		slot = &vt.fixed[v.Kind()] // Null or PNull
	case v.BoolVal():
		slot = &vt.fixed[3]
	default:
		slot = &vt.fixed[2]
	}
	if *slot == 0 {
		*slot = vt.enter(v) + 1
	}
	return *slot - 1
}

// idIn returns the id of v, whose key in its kind's map is k.
func idIn[K comparable](vt *valueTable, ids map[K]uint32, k K, v table.Value) uint32 {
	i, ok := ids[k]
	if !ok {
		i = vt.enter(v)
		ids[k] = i
	}
	return i
}

// enter appends a new entry for v. Its code is its normal form's identity
// code in the table's numbering.
func (vt *valueTable) enter(v table.Value) uint32 {
	c := cell{v: v, s: v.String(), code: kb.CodeEmpty}
	c.norm = tokenize.Normalize(c.s)
	if !v.IsNull() {
		c.code = vt.codes.CodeNormalized(c.norm)
	}
	vt.cells = append(vt.cells, c)
	return uint32(len(vt.cells) - 1)
}

// index enters every cell of t: ids[r*cols+c] and codes[r*cols+c] are row
// r, column c's id and identity code. An empty table's maps are first
// sized by t's cell count per kind, a bound on its distinct values, so
// entering never regrows them.
func (vt *valueTable) index(t *table.Table) (ids, codes []uint32) {
	if len(vt.cells) == 0 {
		var kinds [table.Bool + 1]int
		for _, row := range t.Rows {
			for _, v := range row {
				kinds[v.Kind()]++
			}
		}
		vt.strs = make(map[string]uint32, kinds[table.String])
		vt.ints = make(map[int64]uint32, kinds[table.Int])
		vt.floats = make(map[uint64]uint32, kinds[table.Float])
	}
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
// else falls back to text, memoized per pair (the text score is symmetric).
func (vt *valueTable) similarity(i, j uint32) float64 {
	if i == j {
		return 1 // one exact value; Equal to itself
	}
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
	key := uint64(min(i, j))<<32 | uint64(max(i, j))
	s, ok := vt.scores[key]
	if !ok {
		ti := *vt.text(i) // a copy: text(j) may grow vt.texts
		s = vt.textScore(ti, *vt.text(j))
		vt.scores[key] = s
	}
	return s
}

// text returns cell i's text form, deriving it on first use. The pointer
// is valid until the next call.
func (vt *valueTable) text(i uint32) *textForm {
	if int(i) >= len(vt.texts) {
		vt.texts = append(vt.texts, make([]textForm, len(vt.cells)-len(vt.texts))...)
	}
	f := &vt.texts[i]
	if !f.done {
		f.done = true
		n := vt.cells[i].norm
		f.runes = []rune(n)
		if n != "" {
			f.words = strings.Split(n, " ")
			slices.Sort(f.words)
			f.words = slices.Compact(f.words)
		}
	}
	return f
}

// textScore is the string fallback: the better of the Levenshtein ratio
// over normalized forms and the token Jaccard.
func (vt *valueTable) textScore(a, b textForm) float64 {
	lev := vt.levenshteinRatio(a.runes, b.runes)
	jac := jaccardSorted(a.words, b.words)
	if jac > lev {
		return jac
	}
	return lev
}

// levenshteinRatio returns 1 - dist/maxLen in [0,1], on the table's two
// reused rows.
func (vt *valueTable) levenshteinRatio(ar, br []rune) float64 {
	la, lb := len(ar), len(br)
	if la == 0 && lb == 0 {
		return 1
	}
	if len(vt.lev[0]) < lb+1 {
		vt.lev = [2][]int{make([]int, lb+1), make([]int, lb+1)}
	}
	prev, cur := vt.lev[0][:lb+1], vt.lev[1][:lb+1]
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
	return 1 - float64(prev[lb])/float64(max(la, lb))
}

// jaccardSorted is tokenize.Jaccard over two sorted, distinct word lists,
// counting the intersection by a merge.
func jaccardSorted(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch c := strings.Compare(a[i], b[j]); {
		case c < 0:
			i++
		case c > 0:
			j++
		default:
			inter++
			i, j = i+1, j+1
		}
	}
	return float64(inter) / float64(len(a)+len(b)-inter)
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

// pairCancelStride bounds how many blocking-generated candidate pairs are
// compared between two context checks in resolveWith — the
// comparison loop is the quadratic-in-the-worst-case part of ER.
const pairCancelStride = 256

// Resolve performs entity resolution over the rows of t. Every distinct
// cell is entered once into a value table built for this call and dropped
// with it (see valueTable): its identity code comes from the table's own
// numbering over the knowledge base's compiled form (see kb.Numbering), so
// blocking and the alias-aware similarity shortcut run on integer codes.
// With nil Knowledge the numbering canonicalizes by normalization alone,
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
	// The block count is near the distinct value count: a value rarely
	// spans columns.
	for a, b := range candidatePairs(codes, cols, len(vt.cells)) {
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
	res.Resolved = vt.merge(t, ids, res.Clusters)
	return res, nil
}

// candidatePairs yields the blocking candidates from the flat annotation
// codes of a cols-column table (codes[r*cols+c] is row r, column c's): rows
// sharing a non-empty code in the same column block together. Each pair
// comes out once (a<b), in ascending (a, b) order — the sequence of the
// string-keyed reference blockPairs in crosscheck_test.go — without a pair
// set or a global sort. blocksHint sizes the block map.
//
// The blocks are laid out by a counting sort: one map numbers each
// (column, code) block and counts its cells, prefix sums give each block a
// span of one flat member array, and filling it in row-major order leaves
// every span's rows ascending, with each cell knowing its slot. Rows are
// then walked in ascending order: a row's partners in a block are the
// slots after its own, marked with the row's stamp so a pair sharing
// several blocks is taken once, then sorted.
func candidatePairs(codes []uint32, cols, blocksHint int) iter.Seq2[int, int] {
	return func(yield func(int, int) bool) {
		rows := len(codes) / cols
		blockOf := make(map[uint64]int32, blocksHint)
		// blk[k] is cell k's block (-1 for none); end[b+1] counts block b's
		// cells, then the prefix sums make end[b+1] the end of its span.
		blk := make([]int32, len(codes))
		end := []int32{0}
		for k, code := range codes {
			if code <= kb.CodeEmpty {
				blk[k] = -1
				continue
			}
			key := uint64(k%cols)<<32 | uint64(code)
			b, ok := blockOf[key]
			if !ok {
				b = int32(len(end) - 1)
				blockOf[key] = b
				end = append(end, 0)
			}
			blk[k] = b
			end[b+1]++
		}
		for b := 1; b < len(end); b++ {
			end[b] += end[b-1]
		}
		next := slices.Clone(end[:len(end)-1]) // next[b]: block b's next free slot
		members := make([]int32, end[len(end)-1])
		slot := make([]int32, len(codes))
		for k, b := range blk {
			if b >= 0 {
				slot[k] = next[b]
				members[next[b]] = int32(k / cols)
				next[b]++
			}
		}
		stamp := make([]int32, rows)
		var partners []int32
		for r := 0; r < rows; r++ {
			partners = partners[:0]
			for k := r * cols; k < (r+1)*cols; k++ {
				if blk[k] < 0 {
					continue
				}
				for _, p := range members[slot[k]+1 : end[blk[k]+1]] {
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

// merge builds the canonical table from the table's ids (ids[r*cols+c] is
// row r, column c's): per cluster and column, the most frequent non-null
// value wins; ties prefer the longest rendering, then the lexicographically
// smallest (which selects "J&J" over "JnJ" and "United States" over "USA",
// as in Fig. 8(d)). All-null columns keep a missing null if any member had
// one, else a produced null. The rows are cut from one backing array.
func (vt *valueTable) merge(t *table.Table, ids []uint32, clusters [][]int) *table.Table {
	out := table.New("ER("+t.Name+")", t.Columns...)
	cols := t.NumCols()
	if len(clusters) == 0 {
		return out
	}
	flat := make([]table.Value, len(clusters)*cols)
	out.Rows = make([][]table.Value, len(clusters))
	for i, cluster := range clusters {
		row := flat[i*cols : (i+1)*cols : (i+1)*cols]
		for c := range row {
			row[c] = vt.canonical(ids, cols, cluster, c)
		}
		out.Rows[i] = row
	}
	return out
}

// mergeCand is one candidate among a cluster's cells in one column: the
// id of its first cell in row order, and how many cells it counts (those
// with its id, and after foldEqual those of its whole Equal class).
type mergeCand struct {
	id    uint32
	count int
}

// canonical picks the merged value of column c over one cluster. A
// singleton's non-null cell is its own answer. Otherwise the cells are
// counted per id, then per Equal class (foldEqual), and the best class
// wins by count, then rendering; classes that tie on both ("5" and 5
// render alike but are not Equal) go to the first in row order.
func (vt *valueTable) canonical(ids []uint32, cols int, cluster []int, c int) table.Value {
	if len(cluster) == 1 {
		if v := vt.cells[ids[cluster[0]*cols+c]].v; !v.IsNull() {
			return v
		}
	}
	cands := vt.cands[:0]
	anyMissing := false
	for _, r := range cluster {
		id := ids[r*cols+c]
		v := vt.cells[id].v
		if v.IsNull() {
			anyMissing = anyMissing || v.Kind() == table.Null
			continue
		}
		vt.growMark(id)
		if vt.mark[id] == 0 {
			cands = append(cands, mergeCand{id: id})
			vt.mark[id] = int32(len(cands))
		}
		cands[vt.mark[id]-1].count++
	}
	for _, x := range cands {
		vt.mark[x.id] = 0
	}
	if len(cands) == 0 {
		if anyMissing {
			return table.NullValue()
		}
		return table.ProducedNull()
	}
	cands = vt.foldEqual(cands)
	vt.cands = cands
	best := cands[0]
	for _, x := range cands[1:] {
		bs, xs := vt.cells[best.id].s, vt.cells[x.id].s
		if cmp.Or(cmp.Compare(best.count, x.count), cmp.Compare(len(bs), len(xs)), cmp.Compare(xs, bs)) < 0 {
			best = x
		}
	}
	return vt.cells[best.id].v
}

// foldEqual merges candidates whose exact values differ but are Equal
// into their class's first candidate, keeping first-occurrence order.
// Only numbers can be (Int 5 and Float 5, −0 and +0, NaN payloads), so
// only numbers are interned into classes, and only when two of them meet.
func (vt *valueTable) foldEqual(cands []mergeCand) []mergeCand {
	numbers := 0
	for _, x := range cands {
		if _, ok := vt.cells[x.id].v.AsFloat(); ok {
			numbers++
		}
	}
	if numbers < 2 {
		return cands
	}
	out := cands[:0]
	for _, x := range cands {
		if _, ok := vt.cells[x.id].v.AsFloat(); !ok {
			out = append(out, x)
			continue
		}
		k := vt.class(x.id)
		vt.growMark(k)
		if vt.mark[k] == 0 {
			out = append(out, x)
			vt.mark[k] = int32(len(out))
		} else {
			out[vt.mark[k]-1].count += x.count
		}
	}
	for _, x := range out {
		if k := vt.cells[x.id].class; k != 0 {
			vt.mark[k] = 0
		}
	}
	return out
}

// growMark extends the merge's mark array to cover index i.
func (vt *valueTable) growMark(i uint32) {
	if int(i) >= len(vt.mark) {
		vt.mark = append(vt.mark, make([]int32, int(i)+1-len(vt.mark))...)
	}
}

// class returns cell id's Equal class, interning it on first use.
func (vt *valueTable) class(id uint32) uint32 {
	c := &vt.cells[id]
	if c.class == 0 {
		c.class = vt.classes.Intern(c.v)
	}
	return c.class
}
