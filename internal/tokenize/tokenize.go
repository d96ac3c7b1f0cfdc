// Package tokenize provides the text normalization and tokenization
// primitives shared by the discovery indexes (LSH Ensemble, JOSIE, SANTOS)
// and the column-embedding and entity-resolution components. Open-data cell
// values are noisy; every consumer works over the same canonical token view
// so that the pipeline stages agree on what a "value" is.
package tokenize

import (
	"strings"
	"unicode"
	"unicode/utf8"
	"unsafe"
)

// Normalize lowercases s, maps punctuation to spaces, and collapses runs of
// whitespace, yielding the canonical form used throughout discovery and ER.
// "J&J" normalizes to "j j", "United  States" to "united states". It is
// AppendNormalize into one buffer that becomes the string, so it allocates
// once.
func Normalize(s string) string {
	b := AppendNormalize(make([]byte, 0, len(s)), s)
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// AppendNormalize appends the canonical form of s (see Normalize) to dst
// and returns the extended buffer, leaving dst's own bytes as they were. A
// caller that reuses one buffer normalizes without allocating. Runes are
// lowered one at a time (the same per-rune mapping strings.ToLower
// applies), so no intermediate lowered string is built.
func AppendNormalize(dst []byte, s string) []byte {
	start := len(dst)
	lastSpace := true
	for _, r := range s {
		r = unicode.ToLower(r)
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			dst = utf8.AppendRune(dst, r)
			lastSpace = false
			continue
		}
		if !lastSpace {
			dst = append(dst, ' ')
			lastSpace = true
		}
	}
	if lastSpace && len(dst) > start {
		dst = dst[:len(dst)-1] // the one trailing space
	}
	return dst
}

// Words splits s into normalized word tokens.
func Words(s string) []string {
	n := Normalize(s)
	if n == "" {
		return nil
	}
	return strings.Split(n, " ")
}

// stopwords is a minimal English stopword list; discovery scoring drops
// these so that e.g. "rate of vaccination" and "vaccination rate" agree.
var stopwords = map[string]bool{
	"a": true, "an": true, "and": true, "are": true, "as": true, "at": true,
	"be": true, "by": true, "for": true, "from": true, "in": true, "is": true,
	"it": true, "of": true, "on": true, "or": true, "per": true, "the": true,
	"to": true, "with": true,
}

// IsStopword reports whether the normalized token is a stopword.
func IsStopword(tok string) bool { return stopwords[tok] }

// ContentWords returns Words(s) with stopwords removed.
func ContentWords(s string) []string {
	ws := Words(s)
	out := ws[:0]
	for _, w := range ws {
		if !IsStopword(w) {
			out = append(out, w)
		}
	}
	return out
}

// QGrams returns the q-grams of the normalized form of s, padded with '_'
// so that short strings still produce grams ("ab" with q=3 yields "__a",
// "_ab", "ab_", "b__"). Used by the character-level column embeddings and
// the ER similarity features.
func QGrams(s string, q int) []string {
	if q <= 0 {
		return nil
	}
	n := Normalize(s)
	if n == "" {
		return nil
	}
	pad := strings.Repeat("_", q-1)
	padded := pad + n + pad
	runes := []rune(padded)
	if len(runes) < q {
		return nil
	}
	out := make([]string, 0, len(runes)-q+1)
	for i := 0; i+q <= len(runes); i++ {
		out = append(out, string(runes[i:i+q]))
	}
	return out
}

// ValueSet normalizes each input as a whole value (not word-split) and
// deduplicates, in first-seen order. Joinable search over key-like columns
// uses whole-value sets: "new york" is one domain member, not two tokens.
func ValueSet(values []string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, v := range values {
		n := Normalize(v)
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		out = append(out, n)
	}
	return out
}

// Jaccard computes |a∩b| / |a∪b| over string sets (inputs may contain
// duplicates; they are deduplicated). Returns 0 for two empty sets.
func Jaccard(a, b []string) float64 {
	as := toSet(a)
	bs := toSet(b)
	if len(as) == 0 && len(bs) == 0 {
		return 0
	}
	inter := 0
	for x := range as {
		if bs[x] {
			inter++
		}
	}
	return float64(inter) / float64(len(as)+len(bs)-inter)
}

// Overlap computes |a∩b| over string sets.
func Overlap(a, b []string) int {
	as := toSet(a)
	bs := toSet(b)
	inter := 0
	for x := range as {
		if bs[x] {
			inter++
		}
	}
	return inter
}

func toSet(xs []string) map[string]bool {
	m := make(map[string]bool, len(xs))
	for _, x := range xs {
		m[x] = true
	}
	return m
}
