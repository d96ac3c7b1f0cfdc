package tokenize

import (
	"strings"
	"testing"
	"unicode"
)

// normalizeReference is the strings.Builder loop Normalize used before it
// wrapped AppendNormalize, kept as the reference both must match.
func normalizeReference(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	lastSpace := true
	for _, r := range s {
		r = unicode.ToLower(r)
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(r)
			lastSpace = false
			continue
		}
		if !lastSpace {
			b.WriteByte(' ')
			lastSpace = true
		}
	}
	return strings.TrimRight(b.String(), " ")
}

// FuzzAppendNormalize pins AppendNormalize and Normalize to the reference
// on any input, invalid UTF-8 included: appending to a prefix leaves the
// prefix as it was (a trailing space in it too) and adds exactly the
// reference form.
func FuzzAppendNormalize(f *testing.F) {
	for _, seed := range []struct{ prefix, s string }{
		{"", ""}, {"x ", " "}, {"", "J&J"}, {"ab ", "United  States "},
		{"", "ümläut ÉÉ"}, {"q", "\x00\xff invalid \xc3\x28 utf8"},
		{"", "Ⱥ grows when lowered"}, {"İ", "İstanbul"}, {"  ", "##"},
	} {
		f.Add(seed.prefix, seed.s)
	}
	f.Fuzz(func(t *testing.T, prefix, s string) {
		want := normalizeReference(s)
		if got := Normalize(s); got != want {
			t.Fatalf("Normalize(%q) = %q, reference %q", s, got, want)
		}
		if got := string(AppendNormalize([]byte(prefix), s)); got != prefix+want {
			t.Fatalf("AppendNormalize(%q, %q) = %q, want %q", prefix, s, got, prefix+want)
		}
	})
}
