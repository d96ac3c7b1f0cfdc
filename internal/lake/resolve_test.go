package lake

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/minhash"
	"repro/internal/table"
	"repro/internal/tokenize"
)

// FuzzColumnValueSet pins the one extractor both sides of a query share:
// table.ValueSet — what the lake indexes and KB synthesis are built from
// and, through QueryDomain, what every query column is resolved with — is
// tokenize.ValueSet(t.DistinctStrings(c)), same members, same order, for
// any mix of cell kinds. The fuzz input is one column, cells separated by
// newlines and parsed like CSV cells (so empty cells are nulls and numerals
// are numbers).
func FuzzColumnValueSet(f *testing.F) {
	for _, seed := range []string{
		"", "\n\n", "Berlin\nberlin\n BERLIN ", "42\n42.0\n4.2e1\n042", "J&J\nj j\nJ-J",
		"!!!\n--\n...", "a\n\nb\n\na", "true\nTRUE\n1", "ümläut\nÜMLÄUT", "\x00\xff\n\xc3\x28",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, column string) {
		q := table.New("q", "ignored", "c")
		for _, cell := range strings.Split(column, "\n") {
			q.MustAddRow(table.StringValue("x"), table.Parse(cell))
		}
		want := tokenize.ValueSet(q.DistinctStrings(1))
		if got := q.ValueSet(1); !reflect.DeepEqual(got, want) {
			t.Fatalf("table.ValueSet = %q, ValueSet(DistinctStrings) = %q", got, want)
		}
		got, err := QueryDomain(q, 1)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("QueryDomain = %q, %v; want %q", got, err, want)
		}
		for _, col := range []int{-1, 2} {
			if _, err := QueryDomain(q, col); err == nil {
				t.Fatalf("QueryDomain accepted column %d of a 2-column table", col)
			}
		}
	})
}

// TestResolveQuery: the lake's own table pointer gets the cached domain;
// anything else — a copy, a foreign table — gets a transient domain with
// the same members whose tokens were looked up, not interned.
func TestResolveQuery(t *testing.T) {
	l := demoLake(t)
	own := l.Tables()[0]
	col := -1
	for c := 0; c < own.NumCols(); c++ {
		if l.DomainFor(own.Name, c) != nil {
			col = c
			break
		}
	}
	if col < 0 {
		t.Fatalf("fixture: %s has no indexed column", own.Name)
	}
	cached, err := l.ResolveQuery(own, col)
	if err != nil || cached != l.DomainFor(own.Name, col) {
		t.Fatalf("own pointer resolved to %p, %v; want the cached domain %p", cached, err, l.DomainFor(own.Name, col))
	}
	copied, err := l.ResolveQuery(own.Clone(), col)
	if err != nil {
		t.Fatal(err)
	}
	if copied == cached {
		t.Fatal("a copy of a lake table was served the cached domain")
	}
	fps := l.Tokens().Fingerprints(cached.IDs, nil)
	// A lake domain is its IDs; its tokens are read through the dictionary.
	cachedValues := make([]string, len(cached.IDs))
	for i, id := range cached.IDs {
		cachedValues[i], _ = l.Tokens().Token(id)
	}
	if !reflect.DeepEqual(copied.Values, cachedValues) || !reflect.DeepEqual(copied.IDs, cached.IDs) || !reflect.DeepEqual(copied.Fingerprints, fps) {
		t.Errorf("copy resolved to %+v, want the cached domain's values, IDs and fingerprints %+v", copied, cached)
	}

	// Tokens outside the vocabulary keep ID 0, are hashed on the fly, and
	// still count toward |Q|.
	foreign := table.New("foreign", "c")
	foreign.MustAddRow(table.StringValue(cachedValues[0]))
	foreign.MustAddRow(table.StringValue("No Lake Table Says This"))
	before := l.Tokens().Len()
	d, err := l.ResolveQuery(foreign, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := []uint32{cached.IDs[0], 0}
	wantFps := []uint64{fps[0], minhash.Fingerprint("no lake table says this")}
	if !reflect.DeepEqual(d.IDs, wantIDs) || !reflect.DeepEqual(d.Fingerprints, wantFps) || len(d.Values) != 2 {
		t.Errorf("foreign column resolved to %+v, want IDs %v fingerprints %v", d, wantIDs, wantFps)
	}
	if l.Tokens().Len() != before {
		t.Error("resolving a foreign column interned its tokens")
	}
	if _, err := l.ResolveQuery(foreign, 3); err == nil {
		t.Error("out-of-range query column must error")
	}
	if _, err := l.ResolveQuery(own, own.NumCols()); err == nil {
		t.Error("out-of-range column of the lake's own table must error")
	}
}
