package er

// The merge and text-fallback references: Resolve's merge and text scorer
// as they were before they ran on value-table ids, kept verbatim. refResolve
// and refResolveLearned (crosscheck_test.go) merge through mergeClusters,
// cellSimilarity (string_reference_test.go) scores through textFeat, and
// TestTextScoreMatchesReference pins the value table's text kernels to
// them.

import (
	"cmp"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/kb"
	"repro/internal/table"
	"repro/internal/tokenize"
)

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

// TestTextScoreMatchesReference pins the value table's text fallback (the
// rune form and sorted word list derived once per value, Levenshtein on two
// reused rows, Jaccard by sorted merge) to textFeat.similarity, in float64
// bits, over strings drawn from words that repeat, near-miss spellings,
// punctuation, case and multi-byte runes — including the empty and
// punctuation-only strings whose normal form is empty.
func TestTextScoreMatchesReference(t *testing.T) {
	parts := []string{"berlin", "Berlin", "berlinn", "new", "york", "New-York", "ümlaut", "日本", "##", "", " ", "a", "A.", "j&j", "5", "-5"}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		draw := func() string {
			var b strings.Builder
			for n := rng.Intn(5); n > 0; n-- {
				b.WriteString(parts[rng.Intn(len(parts))])
				if rng.Intn(2) == 0 {
					b.WriteByte(' ')
				}
			}
			return b.String()
		}
		vt := newValueTable(nil)
		for k := 0; k < 20; k++ {
			as, bs := draw(), draw()
			i, j := vt.id(table.StringValue(as)), vt.id(table.StringValue(bs))
			fa, fb := newTextFeat(as), newTextFeat(bs)
			ta := *vt.text(i) // a copy: text(j) may grow vt.texts
			got, want := vt.textScore(ta, *vt.text(j)), fa.similarity(&fb)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Logf("%q vs %q: %v, want %v", as, bs, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
