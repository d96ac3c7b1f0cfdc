package kb

// crosscheck_test pins the compiled annotation engine (compile.go,
// codes.go) to the string reference implementations in kb.go: on
// randomized knowledge bases — including alias chains, aliases shadowing
// entities, delimiter-bearing labels and type names, undeclared types, and
// type-hierarchy cycles — AnnotateColumnCodes and AnnotatePairCodes over
// Compiled.Code, and SameCode over a Numbering, must agree byte-for-byte
// with AnnotateColumn, AnnotateColumnPair and SameEntity. The string methods run on an unfrozen twin (unfrozenTwin):
// a frozen KB answers them through the compiled engine under test.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/table"
	"repro/internal/tokenize"
)

// codesOf returns Compiled.Code of every value: the codes SANTOS votes on.
func codesOf(ck *Compiled, vals []string) []uint32 {
	out := make([]uint32, len(vals))
	for i, s := range vals {
		out[i] = ck.Code(s)
	}
	return out
}

// numbered returns nb's identity code of a rendered value, as entity
// resolution computes it.
func numbered(nb *Numbering, s string) uint32 {
	return nb.CodeNormalized(tokenize.Normalize(s))
}

// unfrozenTwin returns a mutable copy of k for a string reference to run
// on, from a Dump of k's string form: k must not be frozen yet, since a
// frozen KB's Dump reads the compiled engine.
func unfrozenTwin(k *KB) *KB {
	k.mutable()
	return FromDump(k.Dump())
}

// randomKB builds a deliberately hostile knowledge base.
func randomKB(rng *rand.Rand) *KB {
	k := New()
	types := []string{"t0", "t1", "t2", "t3", "t4", "ty\x1fpe", "syn:a->b"}
	for i, t := range types {
		switch rng.Intn(3) {
		case 0:
			k.AddType(t, "")
		case 1:
			k.AddType(t, types[rng.Intn(len(types))]) // may self-parent or chain
		default:
			if i > 0 {
				k.AddType(t, types[rng.Intn(i)])
			} else {
				k.AddType(t, "")
			}
		}
	}
	// Guaranteed cycle.
	k.AddType("cycA", "cycB")
	k.AddType("cycB", "cycA")
	types = append(types, "cycA", "cycB")

	var entities []string
	for i := 0; i < 20; i++ {
		e := fmt.Sprintf("ent%02d", i)
		entities = append(entities, e)
		n := 1 + rng.Intn(3)
		ts := make([]string, n)
		for j := range ts {
			if rng.Intn(8) == 0 {
				ts[j] = "ghost" // type never declared in the hierarchy
			} else {
				ts[j] = types[rng.Intn(len(types))]
			}
		}
		k.AddEntity(e, ts...)
	}

	// Aliases: to entities, to other aliases (chains are NOT chased — one
	// hop only), to unknown strings; plus an alias shadowing an entity.
	aliases := []string{"al0", "al1", "al2", "al3", "al4"}
	for i, a := range aliases {
		switch rng.Intn(3) {
		case 0:
			k.AddAlias(a, entities[rng.Intn(len(entities))])
		case 1:
			k.AddAlias(a, aliases[(i+1+rng.Intn(len(aliases)-1))%len(aliases)])
		default:
			k.AddAlias(a, fmt.Sprintf("mystery%d", rng.Intn(4)))
		}
	}
	k.AddAlias(entities[3], entities[5])

	labels := []string{"rel0", "rel1", "r\x1fel", "syn:x->y"}
	pool := append(append([]string{}, entities...), "mystery0", "mystery1", "stranger", "al0", "al2")
	for i := 0; i < 40; i++ {
		k.AddRelation(pool[rng.Intn(len(pool))], labels[rng.Intn(len(labels))], pool[rng.Intn(len(pool))])
	}
	return k
}

// randomValues draws raw cell strings that stress every resolution path:
// entities, aliases, unknowns, punctuation-only (empty canonical), empties,
// numeric spellings that collide after normalization, and near-misses.
func randomValues(rng *rand.Rand, n int) []string {
	pool := []string{
		"ent00", "ent01", "ENT02", "Ent03", "ent05", "ent07", "ent19",
		"al0", "AL1", "al2", "al3", "al4",
		"mystery0", "mystery1", "stranger", "unheard of",
		"##", "", "  ", "-5", "5", "8.2", "8,2", "true",
		"ent00!", "ent0 0",
	}
	out := make([]string, n)
	for i := range out {
		out[i] = pool[rng.Intn(len(pool))]
	}
	return out
}

func TestCrossCheckCompiledAnnotation(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8} {
		rng := rand.New(rand.NewSource(seed))
		k := randomKB(rng)
		ref := unfrozenTwin(k)
		ck := k.Compiled()
		s := ck.NewScratch()
		// Reuse one scratch across every call: epoch handling must keep
		// successive annotations independent.
		for round := 0; round < 30; round++ {
			vals := randomValues(rng, 1+rng.Intn(12))
			want := ref.AnnotateColumn(vals)
			got, _ := ck.AnnotateColumnCodes(codesOf(ck, vals), s)
			if got != want {
				t.Fatalf("seed=%d round=%d: AnnotateColumn mismatch\nvals: %q\ngot:  %+v\nwant: %+v", seed, round, vals, got, want)
			}

			a := randomValues(rng, 1+rng.Intn(12))
			b := randomValues(rng, len(a))
			pairs := make([][2]string, len(a))
			for i := range a {
				pairs[i] = [2]string{a[i], b[i]}
			}
			wantPair := ref.AnnotateColumnPair(pairs)
			gotPair, _ := ck.AnnotatePairCodes(codesOf(ck, a), codesOf(ck, b), s)
			if gotPair != wantPair {
				t.Fatalf("seed=%d round=%d: AnnotateColumnPair mismatch\npairs: %q\ngot:  %+v\nwant: %+v", seed, round, pairs, gotPair, wantPair)
			}
		}
	}
}

func TestCrossCheckSameEntity(t *testing.T) {
	for _, seed := range []int64{11, 12, 13} {
		rng := rand.New(rand.NewSource(seed))
		k := randomKB(rng)
		ref := unfrozenTwin(k)
		nb := NewNumbering(k.Compiled())
		vals := randomValues(rng, 40)
		for i := 0; i < len(vals); i++ {
			for j := 0; j < len(vals); j++ {
				want := ref.SameEntity(vals[i], vals[j])
				got := SameCode(numbered(nb, vals[i]), numbered(nb, vals[j]))
				if got != want {
					t.Fatalf("seed=%d: SameEntity(%q, %q) compiled=%v reference=%v",
						seed, vals[i], vals[j], got, want)
				}
			}
		}
	}
}

func TestCrossCheckDemoKB(t *testing.T) {
	k := Demo()
	ref := unfrozenTwin(k)
	ck := k.Compiled()
	nb := NewNumbering(ck)
	s := ck.NewScratch()
	cols := [][]string{
		{"Berlin", "Manchester", "Barcelona", "Nowhereville"},
		{"Berlin", "Boston", "Germany", "Spain"},
		{"USA", "U S A", "United States", "england", "##"},
		{"Pfizer", "pfizer biontech", "J&J", "Janssen", "Moderna", "Spikevax"},
	}
	for i, vals := range cols {
		want := ref.AnnotateColumn(vals)
		got, _ := ck.AnnotateColumnCodes(codesOf(ck, vals), s)
		if got != want {
			t.Errorf("col %d: got %+v, want %+v", i, got, want)
		}
	}
	a := []string{"Berlin", "Madrid", "Tokyo", "J&J"}
	b := []string{"Germany", "Spain", "Japan", "FDA"}
	pairs := make([][2]string, len(a))
	for i := range a {
		pairs[i] = [2]string{a[i], b[i]}
	}
	want := ref.AnnotateColumnPair(pairs)
	got, _ := ck.AnnotatePairCodes(codesOf(ck, a), codesOf(ck, b), s)
	if got != want {
		t.Errorf("pair: got %+v, want %+v", got, want)
	}
	if !SameCode(numbered(nb, "J&J"), numbered(nb, "Janssen")) {
		t.Error("J&J and Janssen must share a code")
	}
	if SameCode(numbered(nb, "##"), numbered(nb, "!!")) {
		t.Error("empty canonicals must never be the same entity")
	}
}

// TestAnnotatorNumericRenderings pins that a numeric cell codes as its
// rendering: an Int and a numerically-equal integral Float can render — and
// therefore canonicalize — differently, so their codes must agree exactly
// when the reference says their renderings are the same entity.
func TestAnnotatorNumericRenderings(t *testing.T) {
	iv := table.IntValue(1000000000000000)
	fv := table.FloatValue(1e15)
	k := Demo()
	ref := unfrozenTwin(k)
	// Resolve in both orders: neither value's numbered code may leak to
	// the other.
	for _, first := range []table.Value{iv, fv} {
		nb := NewNumbering(k.Compiled())
		numbered(nb, first.String())
		ci, cf := numbered(nb, iv.String()), numbered(nb, fv.String())
		want := ref.SameEntity(iv.String(), fv.String())
		if SameCode(ci, cf) != want {
			t.Fatalf("first=%v: SameCode=%v, reference SameEntity(%q,%q)=%v",
				first, SameCode(ci, cf), iv.String(), fv.String(), want)
		}
	}
	// Same-rendering numerics still agree.
	nb := NewNumbering(k.Compiled())
	if !SameCode(numbered(nb, table.IntValue(82).String()), numbered(nb, table.FloatValue(82).String())) {
		t.Error("Int 82 and Float 82 render identically and must share a code")
	}
}

// TestQueryScopeNeverWritesRoot pins that per-call numbering never writes
// the shared compiled KB: whatever a Numbering resolves — a KB canonical,
// a foreign string, or an alias of a canonical the KB knows — the
// compiled KB's tables keep their size, and the numbering agrees with
// Compiled.Code wherever both answer. A second numbering over the same KB,
// started while the first lives, aliases nothing of the first's.
func TestQueryScopeNeverWritesRoot(t *testing.T) {
	ck := Demo().Compiled()
	known := []string{"Berlin", "United Kingdom", "##"}
	want := codesOf(ck, known)
	strsN, lookupN := len(ck.strs), len(ck.lookup)

	nb := NewNumbering(ck)
	for i, s := range known {
		if got := numbered(nb, s); got != want[i] {
			t.Errorf("numbering code for KB rendering %q = %d, want Compiled.Code's %d", s, got, want[i])
		}
	}
	foreign := numbered(nb, "Narnia")
	if foreign == CodeOutside || foreign <= CodeEmpty {
		t.Fatalf("foreign canonical got code %d, want an extended code", foreign)
	}
	other := numbered(nb, "  GREAT  britain. ") // unseen rendering, KB-known canonical
	if other != want[1] {
		t.Errorf("unseen rendering of a KB canonical got %d, want Compiled.Code's %d", other, want[1])
	}
	if got := ck.Code("Narnia"); got != CodeOutside {
		t.Errorf("Compiled.Code of a foreign string after numbering = %d, want CodeOutside", got)
	}
	if len(ck.strs) != strsN || len(ck.lookup) != lookupN {
		t.Fatalf("compiled KB grew from (strs %d, lookup %d) to (strs %d, lookup %d) under a numbering",
			strsN, lookupN, len(ck.strs), len(ck.lookup))
	}

	// Another numbering learns new canonicals while the first lives; the
	// first keeps one code per canonical.
	nb2 := NewNumbering(ck)
	numbered(nb2, "Wakanda")
	numbered(nb2, "Narnia")
	if SameCode(numbered(nb, "Wakanda"), foreign) {
		t.Error("distinct foreign canonicals share a code in one numbering")
	}
	if got := numbered(nb, "narnia!"); got != foreign {
		t.Errorf("numbering identity drifted: %d vs %d", got, foreign)
	}
}

// FuzzAnnotatorMatchesKB codes strings drawn from the demo KB's entity
// names and aliases — verbatim, in other cases, with punctuation, replaced
// by raw noise, or rendered from Int, Float and Bool cells — and checks
// both code paths against the string reference: over entity resolution's
// Numbering, SameCode agrees with SameEntity pairwise and CodeEmpty marks
// exactly the empty canonicals; Compiled.Code, the code SANTOS votes on,
// equals the numbering's code on every KB canonical, and is CodeEmpty when
// the canonical is empty and CodeOutside otherwise.
func FuzzAnnotatorMatchesKB(f *testing.F) {
	k := Demo()
	ref := unfrozenTwin(k)
	var names []string
	for e := range k.mutable().entityTypes {
		names = append(names, e)
	}
	for a := range k.mutable().alias {
		names = append(names, a)
	}
	sort.Strings(names)
	// The canonical strings the KB mentions: entity keys, relation
	// endpoints and alias targets.
	known := make(map[string]bool)
	d := ref.mutable()
	for e := range d.entityTypes {
		known[e] = true
	}
	for key := range d.relations {
		subj, obj := splitRelationKey(key)
		known[subj], known[obj] = true, true
	}
	for _, target := range d.alias {
		known[target] = true
	}
	f.Add([]byte{})
	f.Add([]byte{0, 1, 1, 1, 2, 5, 3, 9, 4, 2, 5, 7, 0, 2})
	f.Add([]byte{5, 33, 5, 46, 3, 3, 1, 3, 0, 200, 2, 17, 4, 17})
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), 80)] // the pairwise check is quadratic
		var vals []string
		var cells []table.Value
		for i := 0; i+1 < len(data); i += 2 {
			op, b := data[i], data[i+1]
			name := names[int(b)%len(names)]
			switch op % 6 {
			case 0:
				vals = append(vals, name)
			case 1:
				vals = append(vals, strings.ToUpper(name))
			case 2:
				vals = append(vals, " "+strings.ReplaceAll(name, " ", ". ")+"!")
			case 3:
				vals = append(vals, string(data[i:min(len(data), i+int(b%8))]))
			case 4:
				cells = append(cells, table.IntValue(int64(b)*1e13), table.FloatValue(float64(b)*1e13))
			default:
				cells = append(cells, table.FloatValue(float64(b)/8), table.BoolValue(b%2 == 0))
			}
		}
		for _, v := range cells {
			vals = append(vals, v.String())
		}
		// Entity resolution's numbering, over the values in order.
		nb := NewNumbering(k.Compiled())
		erCodes := make([]uint32, len(vals))
		for i, x := range vals {
			erCodes[i] = numbered(nb, x)
		}
		ck := k.Compiled()
		for i, x := range vals {
			if (erCodes[i] == CodeEmpty) != (ref.Canonical(x) == "") {
				t.Fatalf("numbering: code %d for %q, canonical %q", erCodes[i], x, ref.Canonical(x))
			}
			for j, y := range vals {
				if got, want := SameCode(erCodes[i], erCodes[j]), ref.SameEntity(x, y); got != want {
					t.Fatalf("numbering: SameCode(%q, %q) = %v, SameEntity = %v", x, y, got, want)
				}
			}
			// SANTOS's code is the numbering's on every KB canonical, and
			// CodeEmpty or CodeOutside everywhere else.
			want := erCodes[i]
			switch c := ref.Canonical(x); {
			case c == "":
				want = CodeEmpty
			case !known[c]:
				want = CodeOutside
			}
			if got := ck.Code(x); got != want {
				t.Fatalf("Code(%q) = %d, want %d (numbering %d)", x, got, want, erCodes[i])
			}
		}
	})
}
