package embed

import (
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/kb"
	"repro/internal/table"
)

func strCol(vals ...string) []table.Value {
	out := make([]table.Value, len(vals))
	for i, v := range vals {
		out[i] = table.StringValue(v)
	}
	return out
}

func TestColumnDeterministic(t *testing.T) {
	k := kb.Demo()
	a := Column(strCol("Berlin", "Barcelona"), k)
	b := Column(strCol("Berlin", "Barcelona"), k)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("embedding is not deterministic")
		}
	}
}

func TestColumnNormalized(t *testing.T) {
	v := Column(strCol("Berlin", "Boston", "Toronto"), kb.Demo())
	var n float64
	for _, x := range v {
		n += x * x
	}
	if math.Abs(n-1) > 1e-9 {
		t.Errorf("norm² = %v, want 1", n)
	}
}

func TestAllNullColumnIsZero(t *testing.T) {
	v := Column([]table.Value{table.NullValue(), table.ProducedNull()}, nil)
	for _, x := range v {
		if x != 0 {
			t.Fatal("all-null column must embed to zero vector")
		}
	}
	if Cosine(v, v) != 0 {
		t.Error("cosine of zero vectors must be 0")
	}
}

func TestSemanticTypesDominateAcrossDisjointValues(t *testing.T) {
	// Two country columns with entirely disjoint values must still be more
	// similar than a country column and a city column — exactly the signal
	// the KB-type features substitute for fastText semantics.
	k := kb.Demo()
	countriesA := Column(strCol("Germany", "England", "Spain"), k)
	countriesB := Column(strCol("Canada", "Mexico", "USA"), k)
	cities := Column(strCol("Toronto", "Boston", "Berlin"), k)
	same := Cosine(countriesA, countriesB)
	cross := Cosine(countriesA, cities)
	if same <= cross {
		t.Errorf("country/country cosine %v must exceed country/city %v", same, cross)
	}
	if same < 0.4 {
		t.Errorf("disjoint same-type columns cosine = %v, too low", same)
	}
}

func TestWithoutKBSharedValuesStillMatch(t *testing.T) {
	a := Column(strCol("berlin", "barcelona", "boston"), nil)
	b := Column(strCol("berlin", "barcelona", "new delhi"), nil)
	c := Column(strCol("widget", "gadget", "sprocket"), nil)
	if Cosine(a, b) <= Cosine(a, c) {
		t.Error("value overlap must drive similarity when no KB is given")
	}
}

func TestNumericColumnsClusterByMagnitude(t *testing.T) {
	rates1 := Column([]table.Value{table.IntValue(63), table.IntValue(78), table.IntValue(82)}, nil)
	rates2 := Column([]table.Value{table.IntValue(83), table.IntValue(62)}, nil)
	cases := Column([]table.Value{table.IntValue(1400000), table.IntValue(2680000)}, nil)
	if Cosine(rates1, rates2) <= Cosine(rates1, cases) {
		t.Error("same-magnitude numeric columns must be closer than cross-magnitude")
	}
}

func TestMagnitude(t *testing.T) {
	cases := map[float64]int{0: 0, 0.5: 0, 1: 1, 9: 1, 10: 2, 147: 3, 1.4e6: 7, -147: 3,
		math.MaxFloat64: 309, -math.MaxFloat64: 309,
		// Non-finite values share one fixed magnitude on every platform.
		math.Inf(1): -1, math.Inf(-1): -1,
	}
	for f, want := range cases {
		if got := magnitude(f); got != want {
			t.Errorf("magnitude(%v) = %d, want %d", f, got, want)
		}
	}
	if got := magnitude(math.NaN()); got != -1 {
		t.Errorf("magnitude(NaN) = %d, want -1", got)
	}
}

// TestBucketIsFNV1a pins the resumable in-place hash to hash/fnv: bucket
// of any string, and bucketAfter of any split of it into a prefix and the
// rest (as string or bytes), equal New32a's sum modulo Dim.
func TestBucketIsFNV1a(t *testing.T) {
	f := func(s string, cut uint8) bool {
		h := fnv.New32a()
		h.Write([]byte(s))
		want := int(h.Sum32() % uint32(Dim))
		i := int(cut) % (len(s) + 1)
		prefix := fnvAdd(fnvOffset32, s[:i])
		return bucket(s) == want && bucketAfter(prefix, s[i:]) == want && bucketAfter(prefix, []byte(s[i:])) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
	for _, s := range []string{"", "kind:text", "tok:berlin", "3g:_日本", "\xff"} {
		if !f(s, 3) {
			t.Errorf("bucket(%q) differs from hash/fnv", s)
		}
	}
}

func TestHeaderEmbedding(t *testing.T) {
	a := Header("Vaccination Rate (1+ dose)")
	b := Header("vaccination rate")
	c := Header("Total Cases")
	if Cosine(a, b) <= Cosine(a, c) {
		t.Error("similar headers must be closer than dissimilar ones")
	}
	z := Header("")
	for _, x := range z {
		if x != 0 {
			t.Fatal("empty header must embed to zero")
		}
	}
}

func TestCombine(t *testing.T) {
	content := Column(strCol("berlin"), nil)
	header := Header("city")
	mixed := Combine(content, header, 0.25)
	var n float64
	for _, x := range mixed {
		n += x * x
	}
	if math.Abs(n-1) > 1e-9 {
		t.Errorf("combined norm² = %v", n)
	}
	// Combine with weight 0 equals the (already normalized) content vector.
	same := Combine(content, header, 0)
	if c := Cosine(same, content); math.Abs(c-1) > 1e-9 {
		t.Errorf("Combine(w=0) cosine = %v, want 1", c)
	}
	// Inputs must not be mutated.
	before := Column(strCol("berlin"), nil)
	Combine(content, header, 5)
	if Cosine(before, content) < 1-1e-9 {
		t.Error("Combine mutated its input")
	}
}

func TestCosineProperties(t *testing.T) {
	f := func(seed int64) bool {
		a := Column(strCol("x", "y", string(rune('a'+seed%26))), nil)
		b := Column(strCol("p", "q", string(rune('a'+(seed+5)%26))), nil)
		c1 := Cosine(a, b)
		c2 := Cosine(b, a)
		return math.Abs(c1-c2) < 1e-12 && c1 >= -1e-12 && c1 <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	if Cosine([]float64{1}, []float64{1, 2}) != 0 {
		t.Error("mismatched lengths must yield 0")
	}
}

func TestBooleanKindFeature(t *testing.T) {
	boolCol := Column([]table.Value{table.BoolValue(true), table.BoolValue(false)}, nil)
	numCol := Column([]table.Value{table.IntValue(1), table.IntValue(0)}, nil)
	if Cosine(boolCol, numCol) > 0.5 {
		t.Error("boolean and numeric columns must not look alike")
	}
}
