package tokenize

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestNormalize(t *testing.T) {
	cases := map[string]string{
		"J&J":                           "j j",
		"United  States":                "united states",
		"  Vaccination-Rate (1+ dose) ": "vaccination rate 1 dose",
		"":                              "",
		"---":                           "",
		"Berlin":                        "berlin",
		"CASES!!":                       "cases",
	}
	for in, want := range cases {
		if got := Normalize(in); got != want {
			t.Errorf("Normalize(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestWords(t *testing.T) {
	got := Words("Total Cases per 100k")
	want := []string{"total", "cases", "per", "100k"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Words = %v, want %v", got, want)
	}
	if Words("") != nil {
		t.Error("Words(\"\") must be nil")
	}
}

func TestContentWords(t *testing.T) {
	got := ContentWords("rate of vaccination per 100k")
	want := []string{"rate", "vaccination", "100k"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ContentWords = %v, want %v", got, want)
	}
}

func TestIsStopword(t *testing.T) {
	if !IsStopword("the") || IsStopword("vaccine") {
		t.Error("stopword detection broken")
	}
}

func TestQGrams(t *testing.T) {
	got := QGrams("ab", 3)
	want := []string{"__a", "_ab", "ab_", "b__"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("QGrams = %v, want %v", got, want)
	}
	if QGrams("", 3) != nil {
		t.Error("QGrams of empty must be nil")
	}
	if QGrams("abc", 0) != nil {
		t.Error("QGrams with q<=0 must be nil")
	}
	if g := QGrams("x", 1); !reflect.DeepEqual(g, []string{"x"}) {
		t.Errorf("QGrams q=1 = %v", g)
	}
}

func TestQGramsCountProperty(t *testing.T) {
	// For nonempty normalized input of rune length n and q>=1:
	// count == n + q - 1 (with padding).
	f := func(s string, qRaw uint8) bool {
		q := int(qRaw%4) + 1
		n := Normalize(s)
		grams := QGrams(s, q)
		if n == "" {
			return grams == nil
		}
		return len(grams) == len([]rune(n))+q-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTokenSetAndValueSet(t *testing.T) {
	vals := []string{"New York", "new  york", "Boston", ""}
	vs := ValueSet(vals)
	if !reflect.DeepEqual(vs, []string{"new york", "boston"}) {
		t.Errorf("ValueSet = %v", vs)
	}
}

func TestJaccard(t *testing.T) {
	a := []string{"a", "b", "c"}
	b := []string{"b", "c", "d"}
	if got := Jaccard(a, b); got != 0.5 {
		t.Errorf("Jaccard = %v, want 0.5", got)
	}
	if Jaccard(nil, nil) != 0 {
		t.Error("Jaccard of empties must be 0")
	}
	if Jaccard(a, a) != 1 {
		t.Error("Jaccard self must be 1")
	}
	// Duplicates must not change the result.
	if Jaccard([]string{"a", "a", "b", "c"}, b) != 0.5 {
		t.Error("Jaccard must deduplicate")
	}
}

func TestContainmentAndOverlap(t *testing.T) {
	q := []string{"berlin", "barcelona", "boston"}
	d := []string{"berlin", "barcelona", "boston", "new delhi"}
	if Overlap(q, d) != 3 {
		t.Errorf("Overlap = %d, want 3", Overlap(q, d))
	}
}

func TestJaccardSymmetryProperty(t *testing.T) {
	f := func(a, b []string) bool {
		j1 := Jaccard(a, b)
		j2 := Jaccard(b, a)
		return j1 == j2 && j1 >= 0 && j1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNormalizeIdempotentProperty(t *testing.T) {
	f := func(s string) bool {
		n := Normalize(s)
		return Normalize(n) == n && !strings.HasSuffix(n, " ") && !strings.HasPrefix(n, " ")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
