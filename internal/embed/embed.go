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
// embedding is deterministic, so alignment results are reproducible.
package embed

import (
	"hash/fnv"
	"math"
	"strconv"

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

// bucket hashes a feature string into a coordinate.
func bucket(feature string) int {
	h := fnv.New32a()
	h.Write([]byte(feature))
	return int(h.Sum32() % uint32(Dim))
}

// addFeature accumulates weight into the feature's coordinate.
func addFeature(vec []float64, feature string, weight float64) {
	vec[bucket(feature)] += weight
}

// feature is one hashed feature occurrence: a coordinate and its weight.
type feature struct {
	bucket int
	weight float64
}

// Columns embeds every column of an integration set: one vector per
// column, tables in order and columns in order within each. knowledge may
// be nil, in which case no semantic-type features are produced (the X5
// ablation measures exactly this). Each vector is L2-normalized; an
// all-null column embeds to the zero vector.
//
// A string value's features depend on the value alone, so they are derived
// once per distinct value across the set — feature strings built, hashed
// and KB types looked up — and replayed, in their emission order, into
// every column holding the value. Each coordinate receives the same
// additions in the same order as embedding the column on its own, so the
// float64 sums are bit-identical to it.
func Columns(tables []*table.Table, knowledge *kb.KB) [][]float64 {
	memo := make(map[string][]feature)
	var out [][]float64
	for _, t := range tables {
		for c := range t.Columns {
			vec := make([]float64, Dim)
			for _, row := range t.Rows {
				v := row[c]
				switch v.Kind() {
				case table.String:
					fs, ok := memo[v.Str()]
					if !ok {
						fs = stringFeatures(v.Str(), knowledge)
						memo[v.Str()] = fs
					}
					for _, f := range fs {
						vec[f.bucket] += f.weight
					}
				case table.Int, table.Float:
					addFeature(vec, "kind:num", wKind)
					f, _ := v.AsFloat()
					addFeature(vec, "mag:"+strconv.Itoa(magnitude(f)), wNumeric)
					if f < 0 {
						addFeature(vec, "neg", wNumeric)
					}
					if v.Kind() == table.Float && f != math.Trunc(f) {
						addFeature(vec, "frac", wNumeric)
					}
				case table.Bool:
					addFeature(vec, "kind:bool", wKind)
				}
			}
			normalize(vec)
			out = append(out, vec)
		}
	}
	return out
}

// stringFeatures lists a string value's features in emission order: its
// kind, its KB types (each followed by its decayed ancestors), its word
// tokens (with a digit-count feature for numeric ones) and its trigrams.
func stringFeatures(s string, knowledge *kb.KB) []feature {
	fs := []feature{{bucket("kind:text"), wKind}}
	if knowledge != nil {
		for _, t := range knowledge.TypesOf(s) {
			fs = append(fs, feature{bucket("kbtype:" + t), wKBType})
			for _, anc := range knowledge.Ancestors(t) {
				fs = append(fs, feature{bucket("kbtype:" + anc), wKBType / 2})
			}
		}
	}
	for _, tok := range tokenize.Words(s) {
		fs = append(fs, feature{bucket("tok:" + tok), wToken})
		if isNumericToken(tok) {
			fs = append(fs, feature{bucket("tokdigits:" + strconv.Itoa(len(tok))), wNumeric})
		}
	}
	for _, g := range tokenize.QGrams(s, 3) {
		fs = append(fs, feature{bucket("3g:" + g), wTrigram})
	}
	return fs
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

// magnitude buckets |f| by order of magnitude (0 for |f|<1).
func magnitude(f float64) int {
	a := math.Abs(f)
	if a < 1 {
		return 0
	}
	return int(math.Floor(math.Log10(a))) + 1
}

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
