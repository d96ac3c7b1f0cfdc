package kb

// lookup_test pins the compiled lookup index: every canonical string and
// alias source is found and resolved as the string form resolves it, every
// other string misses, a lookup allocates nothing, and compiling keeps no
// relation key alive.

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/table"
	"repro/internal/tokenize"
)

// mentioned returns the canonical strings a Dump mentions, sorted: entity
// keys, relation endpoints and alias targets. A string's rank in it is its
// compiled canonical-string ID.
func mentioned(d Dump) []string {
	var out []string
	for _, e := range d.Entities {
		out = append(out, e.Entity)
	}
	for _, r := range d.Relations {
		out = append(out, r.Subject, r.Object)
	}
	for _, a := range d.Aliases {
		out = append(out, a.Canonical)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// checkLookups freezes k and requires every query's code, canonical form
// and entity answer to equal the string form's on an unfrozen twin: a
// query whose twin canonical the KB mentions codes to codeBase plus that
// canonical's rank, any other non-empty one to CodeOutside. The byte form
// of each normalized query must code as its string form.
func checkLookups(t *testing.T, label string, k *KB, queries []string) {
	t.Helper()
	dump := k.Dump()
	twin := FromDump(dump)
	strs := mentioned(dump)
	ck := k.Compiled()
	for _, q := range queries {
		want := CodeEmpty
		if canon := twin.Canonical(q); canon != "" {
			want = CodeOutside
			if id, ok := slices.BinarySearch(strs, canon); ok {
				want = codeBase + uint32(id)
			}
		}
		if got := ck.Code(q); got != want {
			t.Fatalf("%s: Code(%q) = %d, want %d", label, q, got, want)
		}
		if got := codeOf(ck, []byte(tokenize.Normalize(q))); got != want {
			t.Fatalf("%s: byte code of %q = %d, want %d", label, q, got, want)
		}
		if got, want := k.Canonical(q), twin.Canonical(q); got != want {
			t.Fatalf("%s: Canonical(%q) = %q, want %q", label, q, got, want)
		}
		if got, want := k.HasEntity(q), twin.HasEntity(q); got != want {
			t.Fatalf("%s: HasEntity(%q) = %v, want %v", label, q, got, want)
		}
	}
}

// TestLookupEdgeCases checks the lookup index on an empty KB, on a KB
// built around the one-hop alias rule, and on random KBs large enough for
// long probe runs: every canonical string and alias source is found, and
// 10 000 random non-members miss.
func TestLookupEdgeCases(t *testing.T) {
	checkLookups(t, "empty", New(), []string{"", "x", "##", longEntity})

	k := New()
	k.AddEntity("Paris", "city")
	k.AddEntity("Lutetia", "city")
	k.AddAlias("Paris", "Lutetia")           // shadows the entity "paris"
	k.AddAlias("USA", "United States")       // source is not canonical
	k.AddAlias("a", "b")                     // a chain: a resolves to b,
	k.AddAlias("b", "c")                     // never to c
	k.AddRelation("Berlin", "in", "Germany") // endpoints that are no entities
	checkLookups(t, "aliases", k, []string{
		"paris", "PARIS!", "lutetia", "usa", "united states", "a", "b", "c",
		"berlin", "germany", "nowhere", "", "##",
	})

	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 7, 300, 5000} {
		k := New()
		var keys []string
		for i := 0; i < n; i++ {
			e := fmt.Sprintf("e%x", rng.Uint32())
			k.AddEntity(e, "t")
			keys = append(keys, e)
			switch rng.Intn(4) {
			case 0:
				a := fmt.Sprintf("a%x", rng.Uint32())
				k.AddAlias(a, e)
				keys = append(keys, a)
			case 1:
				o := fmt.Sprintf("o%x", rng.Uint32())
				k.AddRelation(e, "r", o)
				keys = append(keys, o)
			}
		}
		queries := slices.Clone(keys)
		for i := 0; i < 10000; i++ {
			queries = append(queries, fmt.Sprintf("%c%x", "aeoz"[rng.Intn(4)], rng.Uint64()))
		}
		checkLookups(t, fmt.Sprintf("random n=%d", n), k, queries)
		ck := k.Compiled()
		for _, key := range keys {
			if ck.Code(key) == CodeOutside {
				t.Fatalf("random n=%d: key %q not found", n, key)
			}
		}
	}
}

// TestLookupAllocatesNothing pins that a lookup allocates nothing for
// renderings longer than the 32 bytes a string conversion may keep on the
// stack, hit or miss: Compiled.Code allocates only what normalizing its
// argument does, and Scratch.ColumnCodes over a column of one repeated
// rendering only its two output slices.
func TestLookupAllocatesNothing(t *testing.T) {
	k := Demo()
	k.AddEntity(longEntity, "t0")
	k.AddAlias("an alias that is also well past thirty two bytes", longEntity)
	ck := k.Compiled()
	s := ck.NewScratch()
	for _, v := range []string{
		longEntity,
		"A Rather Long Entity-Name, well past THIRTY two bytes!",
		"an alias that is also well past thirty two bytes",
		"an outsider that is also well past thirty two bytes",
	} {
		norm := testing.AllocsPerRun(50, func() { _ = tokenize.Normalize(v) })
		if got := testing.AllocsPerRun(50, func() { _ = ck.Code(v) }); got != norm {
			t.Errorf("Code(%q) allocates %v times, normalizing it %v", v, got, norm)
		}
		tb := table.New("t", "c")
		for r := 0; r < 5; r++ {
			tb.MustAddRow(table.StringValue(v))
		}
		if got := testing.AllocsPerRun(50, func() { _ = s.ColumnCodes(tb, 0) }); got != 2 {
			t.Errorf("ColumnCodes over %q allocates %v times, want 2 (its outputs)", v, got)
		}
	}
}

// TestCompileKeepsNoRelationKeys pins that no compiled canonical string
// shares bytes with a relation key of the string form: a substring would
// keep the whole "subj\x1fobj" key alive after the string form is dropped.
// Relation endpoints here are entities, alias targets and strings that are
// neither.
func TestCompileKeepsNoRelationKeys(t *testing.T) {
	k := New()
	k.AddEntity("Berlin", "city")
	k.AddEntity("Germany", "country")
	k.AddAlias("Deutschland", "Germany")
	k.AddRelation("Berlin", "capital of", "Germany")
	k.AddRelation("Bonn", "in", "Deutschland")
	k.AddRelation("Germany", "borders", "France")
	var keys []string
	for key := range k.decls.Load().relations {
		keys = append(keys, key)
	}
	ck := k.Compiled()
	for _, s := range ck.strs {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		for _, key := range keys {
			kp := uintptr(unsafe.Pointer(unsafe.StringData(key)))
			if len(s) > 0 && p >= kp && p < kp+uintptr(len(key)) {
				t.Errorf("canonical %q lies inside relation key %q", s, key)
			}
		}
	}
}
