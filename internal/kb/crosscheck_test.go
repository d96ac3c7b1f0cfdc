package kb

// crosscheck_test pins the compiled annotation engine (compile.go,
// annotator.go) to the string reference implementations in kb.go: on
// randomized knowledge bases — including alias chains, aliases shadowing
// entities, delimiter-bearing labels and type names, undeclared types, and
// type-hierarchy cycles — AnnotateColumnCodes, AnnotatePairCodes and
// SameCode must agree byte-for-byte with AnnotateColumn, AnnotateColumnPair
// and SameEntity. The string methods run on an unfrozen twin (unfrozenTwin):
// a frozen KB answers them through the compiled engine under test.

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/table"
)

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
		ann := NewAnnotator(ck)
		s := ck.NewScratch()
		// Reuse one scratch across every call: epoch handling must keep
		// successive annotations independent.
		for round := 0; round < 30; round++ {
			vals := randomValues(rng, 1+rng.Intn(12))
			want := ref.AnnotateColumn(vals)
			got, _ := ck.AnnotateColumnCodes(ann.CodeStrings(vals, nil), s)
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
			gotPair, _ := ck.AnnotatePairCodes(ann.CodeStrings(a, nil), ann.CodeStrings(b, nil), s)
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
		ann := NewAnnotator(k.Compiled())
		vals := randomValues(rng, 40)
		for i := 0; i < len(vals); i++ {
			for j := 0; j < len(vals); j++ {
				want := ref.SameEntity(vals[i], vals[j])
				got := SameCode(ann.CodeString(vals[i]), ann.CodeString(vals[j]))
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
	ann := NewAnnotator(ck)
	s := ck.NewScratch()
	cols := [][]string{
		{"Berlin", "Manchester", "Barcelona", "Nowhereville"},
		{"Berlin", "Boston", "Germany", "Spain"},
		{"USA", "U S A", "United States", "england", "##"},
		{"Pfizer", "pfizer biontech", "J&J", "Janssen", "Moderna", "Spikevax"},
	}
	for i, vals := range cols {
		want := ref.AnnotateColumn(vals)
		got, _ := ck.AnnotateColumnCodes(ann.CodeStrings(vals, nil), s)
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
	got, _ := ck.AnnotatePairCodes(ann.CodeStrings(a, nil), ann.CodeStrings(b, nil), s)
	if got != want {
		t.Errorf("pair: got %+v, want %+v", got, want)
	}
	if !SameCode(ann.CodeString("J&J"), ann.CodeString("Janssen")) {
		t.Error("J&J and Janssen must share a code")
	}
	if SameCode(ann.CodeString("##"), ann.CodeString("!!")) {
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
	// Resolve in both orders: neither value's cached code may leak to the
	// other.
	for _, first := range []table.Value{iv, fv} {
		a := NewAnnotator(k.Compiled())
		a.Code(first)
		ci, cf := a.Code(iv), a.Code(fv)
		want := ref.SameEntity(iv.String(), fv.String())
		if SameCode(ci, cf) != want {
			t.Fatalf("first=%v: SameCode=%v, reference SameEntity(%q,%q)=%v",
				first, SameCode(ci, cf), iv.String(), fv.String(), want)
		}
	}
	// Same-rendering numerics still agree.
	ann := NewAnnotator(k.Compiled())
	if !SameCode(ann.Code(table.IntValue(82)), ann.Code(table.FloatValue(82))) {
		t.Error("Int 82 and Float 82 render identically and must share a code")
	}
}

// TestQueryScope checks that a query scope answers renderings the root has
// cached with the root's codes while keeping foreign strings internally
// consistent.
func TestQueryScope(t *testing.T) {
	k := Demo()
	ann := NewAnnotator(k.Compiled())
	berlin, elsewhere := ann.CodeString("Berlin"), ann.CodeString("Elsewhere")
	scope := ann.QueryScope()
	if scope.CodeString("Berlin") != berlin || scope.CodeString("Elsewhere") != elsewhere {
		t.Error("scope must share the root's codes for renderings the root cached")
	}
	if scope.QueryScope().parent != ann {
		t.Error("scoping a scope must re-root at the shared annotator")
	}
	// Foreign strings: consistent within the scope, reference-equivalent.
	a := scope.CodeString("utterly unknown thing")
	b := scope.CodeString("Utterly. Unknown; Thing")
	if !SameCode(a, b) {
		t.Error("scope must give equal canonicals equal codes")
	}
	if SameCode(a, scope.CodeString("different stranger")) {
		t.Error("scope must give distinct canonicals distinct codes")
	}
}

// TestQueryScopeNeverWritesRoot pins that queries never write shared
// annotation state: whatever a scope resolves — a rendering the root
// cached, a foreign string, or another rendering of a canonical the root
// knows — the root's caches keep their size, and the scope agrees with the
// root wherever both answer. Codes the root allocates while the scope lives
// never alias the scope's own.
func TestQueryScopeNeverWritesRoot(t *testing.T) {
	root := NewAnnotator(Demo().Compiled())
	cached := []string{"Berlin", "Gotham City", "##"}
	want := root.CodeStrings(cached, nil)
	rawN, extN := root.Size()

	scope := root.QueryScope()
	if scope.QueryScope().parent != root {
		t.Fatal("scoping a scope must re-root at the root")
	}
	for i, s := range cached {
		if got := scope.CodeString(s); got != want[i] {
			t.Errorf("scope code for root-cached %q = %d, want the root's %d", s, got, want[i])
		}
	}
	foreign := scope.CodeString("Narnia")
	other := scope.CodeString("  GOTHAM  city. ") // unseen rendering, root-known canonical
	if other != want[1] {
		t.Errorf("unseen rendering of a root canonical got %d, want the root's %d", other, want[1])
	}
	if r, e := root.Size(); r != rawN || e != extN {
		t.Fatalf("root grew from (raw %d, ext %d) to (raw %d, ext %d) under a scope", rawN, extN, r, e)
	}

	// The root learns new canonicals while the scope lives; the scope's
	// answers stay one code per canonical.
	root.CodeString("Wakanda")
	root.CodeString("Narnia")
	if SameCode(scope.CodeString("Wakanda"), foreign) {
		t.Error("a root code allocated after the scope aliased the scope's own")
	}
	if got := scope.CodeString("narnia!"); got != foreign {
		t.Errorf("scope identity drifted after root growth: %d vs %d", got, foreign)
	}
}

// FuzzAnnotatorMatchesKB drives a root annotator and a QueryScope of it with
// strings drawn from the demo KB's entity names and aliases — verbatim, in
// other cases, with punctuation, or replaced by raw noise — and checks both
// against the string reference: SameCode agrees with SameEntity pairwise,
// CodeEmpty marks exactly the empty canonicals, and an Int, Float or Bool
// cell codes as its rendering.
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
		root := NewAnnotator(k.Compiled())
		root.CodeStrings(vals[:len(vals)/2], nil)
		scope := root.QueryScope()
		// The root grows past the scope on every other value, so the scope
		// both borrows root codes and allocates its own.
		for i := 1; i < len(vals); i += 2 {
			root.CodeString(vals[i])
		}
		scopeCodes := scope.CodeStrings(vals, nil)
		rootCodes := root.CodeStrings(vals, nil)
		same := make([]bool, len(vals)*len(vals))
		for i, x := range vals {
			for j, y := range vals {
				same[i*len(vals)+j] = ref.SameEntity(x, y)
			}
		}
		for name, codes := range map[string][]uint32{"root": rootCodes, "scope": scopeCodes} {
			for i, x := range vals {
				if (codes[i] == CodeEmpty) != (ref.Canonical(x) == "") {
					t.Fatalf("%s: code %d for %q, canonical %q", name, codes[i], x, ref.Canonical(x))
				}
				for j, y := range vals {
					if SameCode(codes[i], codes[j]) != same[i*len(vals)+j] {
						t.Fatalf("%s: SameCode(%q, %q) = %v, SameEntity = %v",
							name, x, y, SameCode(codes[i], codes[j]), same[i*len(vals)+j])
					}
				}
			}
		}
		for _, a := range []*Annotator{root, scope} {
			for _, v := range cells {
				if a.Code(v) != a.CodeString(v.String()) {
					t.Fatalf("Code(%v) != CodeString(%q)", v, v.String())
				}
			}
		}
	})
}
