// Package embed computes deterministic column embeddings for holistic
// schema matching. The ALITE paper embeds columns with pretrained language
// models (fastText/TURL); no such model is available to a stdlib-only Go
// build, so this package substitutes a feature-hashing embedding whose
// coordinates aggregate:
//
//   - knowledge-base semantic types of cell values (the strongest signal —
//     it plays the role distributional semantics plays for fastText);
//   - word tokens and character trigrams of textual values;
//   - magnitude/shape features of numeric values;
//   - coarse kind features (textual vs numeric vs boolean).
//
// Columns drawn from the same domain land close in cosine space, which is
// the only property the downstream constrained clustering needs. The
// embedding is deterministic, so alignment results are reproducible: a
// feature's coordinate is the 32-bit FNV-1a hash of its namespaced string
// ("tok:berlin", "3g:_be"), and a numeric cell's magnitude is fixed for
// ±Inf and NaN, whose int conversion Go leaves to the platform.
//
// Columns hashes a namespace prefix's bytes and then a token's or
// trigram's bytes where they lie in the normalized value, which equals
// hashing the concatenated feature string bit for bit, so it builds no
// feature string, []byte conversion or q-gram slice.
package embed

import (
	"math"
	"strconv"
	"strings"
	"unicode/utf8"

	"repro/internal/kb"
	"repro/internal/table"
	"repro/internal/tokenize"
)

// Dim is the embedding dimensionality. 256 buckets keep hash collisions
// rare at open-data vocabulary sizes while staying cache-friendly.
const Dim = 256

// feature weights; semantic types dominate, then tokens, then trigrams.
const (
	wKBType  = 3.0
	wToken   = 2.0
	wTrigram = 1.0
	wNumeric = 2.0
	wKind    = 1.5
)

// bucket hashes a feature string into a coordinate: FNV-1a, 32-bit, as
// hash/fnv's New32a computes it (TestBucketIsFNV1a), modulo Dim.
func bucket(feature string) int {
	return bucketAfter(fnvOffset32, feature)
}

// bucketAfter finishes a feature's hash, given prefix — the FNV-1a state
// after the feature's namespace prefix — and the feature's remaining
// bytes: bucketAfter(fnvAdd(fnvOffset32, "tok:"), tok) is bucket("tok:" +
// tok), bit for bit, without the concatenation.
func bucketAfter[S string | []byte](prefix uint32, rest S) int {
	return int(fnvAdd(prefix, rest) % uint32(Dim))
}

// FNV-1a, 32-bit, as a state that can be resumed.
const (
	fnvOffset32 = 2166136261
	fnvPrime32  = 16777619
)

// fnvAdd feeds the bytes of s into the FNV-1a state h.
func fnvAdd[S string | []byte](h uint32, s S) uint32 {
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= fnvPrime32
	}
	return h
}

// The hash states after each feature namespace's prefix, and the buckets
// of the fixed features.
var (
	kbtypePrefix    = fnvAdd(fnvOffset32, "kbtype:")
	tokPrefix       = fnvAdd(fnvOffset32, "tok:")
	tokdigitsPrefix = fnvAdd(fnvOffset32, "tokdigits:")
	trigramPrefix   = fnvAdd(fnvOffset32, "3g:")
	magPrefix       = fnvAdd(fnvOffset32, "mag:")

	kindTextBucket = bucket("kind:text")
	kindNumBucket  = bucket("kind:num")
	kindBoolBucket = bucket("kind:bool")
	negBucket      = bucket("neg")
	fracBucket     = bucket("frac")
)

// addFeature accumulates weight into the feature's coordinate.
func addFeature(vec []float64, feature string, weight float64) {
	vec[bucket(feature)] += weight
}

// feature is one hashed feature occurrence: a coordinate and its weight.
type feature struct {
	bucket int
	weight float64
}

// span is a run of features in an embedder's flat feature list.
type span struct{ start, end int32 }

// embedder derives string features once per distinct value (and KB type
// features once per type) for one Columns call, into one flat list. KB
// types are compiled type IDs.
type embedder struct {
	knowledge *kb.Compiled
	feats     []feature
	byValue   map[string]span
	byType    map[uint32]span
	types     []uint32 // a value's declared type IDs
	padded    []byte   // trigram scratch: "__" + normalized value + "__"
}

// Columns embeds every column of an integration set: one vector per
// column, tables in order and columns in order within each. knowledge may
// be nil, in which case no semantic-type features are produced (the X5
// ablation measures exactly this). Each vector is L2-normalized; an
// all-null column embeds to the zero vector. The vectors are cut from one
// backing array. Columns reads the compiled KB, so it freezes knowledge
// (kb.KB.Compiled).
//
// A string value's features depend on the value alone, so they are derived
// once per distinct value across the set — hashed in place and KB types
// looked up — and replayed, in their emission order, into every column
// holding the value. Each coordinate receives the same additions in the
// same order as embedding the column on its own, so the float64 sums are
// bit-identical to it.
func Columns(tables []*table.Table, knowledge *kb.KB) [][]float64 {
	n := 0
	for _, t := range tables {
		n += t.NumCols()
	}
	if n == 0 {
		return nil
	}
	e := &embedder{knowledge: knowledge.Compiled(), byValue: make(map[string]span), byType: make(map[uint32]span)}
	flat := make([]float64, n*Dim)
	out := make([][]float64, 0, n)
	for _, t := range tables {
		for c := range t.Columns {
			k := len(out)
			vec := flat[k*Dim : (k+1)*Dim : (k+1)*Dim]
			for _, row := range t.Rows {
				v := row[c]
				switch v.Kind() {
				case table.String:
					sp := e.stringFeatures(v.Str())
					for _, f := range e.feats[sp.start:sp.end] {
						vec[f.bucket] += f.weight
					}
				case table.Int, table.Float:
					vec[kindNumBucket] += wKind
					f, _ := v.AsFloat()
					vec[bucketAfter(magPrefix, strconv.Itoa(magnitude(f)))] += wNumeric
					if f < 0 {
						vec[negBucket] += wNumeric
					}
					if v.Kind() == table.Float && f != math.Trunc(f) {
						vec[fracBucket] += wNumeric
					}
				case table.Bool:
					vec[kindBoolBucket] += wKind
				}
			}
			normalize(vec)
			out = append(out, vec)
		}
	}
	return out
}

// stringFeatures returns the span of a string value's features, in
// emission order: its kind, its KB types (each followed by its decayed
// ancestors), its word tokens (with a digit-count feature for numeric
// ones) and its trigrams. Tokens and trigrams are hashed where they lie in
// the normalized value; no feature string is built.
func (e *embedder) stringFeatures(s string) span {
	if sp, ok := e.byValue[s]; ok {
		return sp
	}
	start := int32(len(e.feats))
	e.feats = append(e.feats, feature{kindTextBucket, wKind})
	if e.knowledge != nil {
		e.types = e.knowledge.DeclaredTypeIDs(s, e.types[:0])
		for _, t := range e.types {
			// A type seen first here was derived in place; a known one is
			// replayed.
			before := int32(len(e.feats))
			if sp := e.typeFeatures(t); sp.start < before {
				e.feats = append(e.feats, e.feats[sp.start:sp.end]...)
			}
		}
	}
	n := tokenize.Normalize(s)
	if n != "" {
		// tokenize.Words: the normalized form's space-separated words.
		for rest, more := n, true; more; {
			var tok string
			tok, rest, more = strings.Cut(rest, " ")
			e.feats = append(e.feats, feature{bucketAfter(tokPrefix, tok), wToken})
			if isNumericToken(tok) {
				e.feats = append(e.feats, feature{bucketAfter(tokdigitsPrefix, strconv.Itoa(len(tok))), wNumeric})
			}
		}
		// tokenize.QGrams(s, 3): every run of three runes of the padded
		// normalized form. The form is valid UTF-8, so a gram's string is
		// exactly its bytes here.
		p := append(append(append(e.padded[:0], "__"...), n...), "__"...)
		e.padded = p
		var at [3]int // byte offsets of the window's three runes
		for i, k := 0, 0; i < len(p); k++ {
			at[k%3] = i
			_, size := utf8.DecodeRune(p[i:])
			i += size
			if k >= 2 {
				e.feats = append(e.feats, feature{bucketAfter(trigramPrefix, p[at[(k-2)%3]:i]), wTrigram})
			}
		}
	}
	sp := span{start, int32(len(e.feats))}
	e.byValue[s] = sp
	return sp
}

// typeFeatures returns the span of a KB type's features: the type, then
// its ancestors at half weight.
func (e *embedder) typeFeatures(t uint32) span {
	if sp, ok := e.byType[t]; ok {
		return sp
	}
	start := int32(len(e.feats))
	e.feats = append(e.feats, feature{bucketAfter(kbtypePrefix, e.knowledge.TypeName(t)), wKBType})
	for _, anc := range e.knowledge.AncestorIDs(t) {
		e.feats = append(e.feats, feature{bucketAfter(kbtypePrefix, e.knowledge.TypeName(anc)), wKBType / 2})
	}
	sp := span{start, int32(len(e.feats))}
	e.byType[t] = sp
	return sp
}

// Header embeds a column header (tokens and trigrams under a separate
// namespace so header features never collide with content features by
// construction of the feature strings).
func Header(name string) []float64 {
	vec := make([]float64, Dim)
	for _, tok := range tokenize.ContentWords(name) {
		addFeature(vec, "hdr:"+tok, wToken)
	}
	for _, g := range tokenize.QGrams(name, 3) {
		addFeature(vec, "hdr3g:"+g, wTrigram)
	}
	normalize(vec)
	return vec
}

// Combine returns normalize(a + w·b) without mutating its inputs. It is
// how schema matching blends content and (down-weighted, unreliable)
// header embeddings.
func Combine(a, b []float64, w float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + w*b[i]
	}
	normalize(out)
	return out
}

// Cosine returns the cosine similarity of two vectors; zero vectors yield
// 0.
func Cosine(a, b []float64) float64 {
	if len(a) != len(b) {
		return 0
	}
	var dot, na, nb float64
	for i := range a {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// magnitude buckets |f| by order of magnitude (0 for |f|<1). ±Inf and NaN
// get nonFiniteMagnitude: Go leaves int() of a non-finite float
// implementation-defined (amd64 yields MinInt64, arm64 saturates), which
// would make the embedding platform-dependent.
func magnitude(f float64) int {
	a := math.Abs(f)
	if a < 1 {
		return 0
	}
	if a > math.MaxFloat64 || a != a {
		return nonFiniteMagnitude
	}
	return int(math.Floor(math.Log10(a))) + 1
}

// nonFiniteMagnitude is the one magnitude of ±Inf and NaN; no finite value
// has a negative magnitude.
const nonFiniteMagnitude = -1

func isNumericToken(tok string) bool {
	if tok == "" {
		return false
	}
	for _, r := range tok {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

func normalize(vec []float64) {
	var n float64
	for _, x := range vec {
		n += x * x
	}
	if n == 0 {
		return
	}
	n = math.Sqrt(n)
	for i := range vec {
		vec[i] /= n
	}
}
