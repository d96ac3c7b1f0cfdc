package kb

// crosscheck_test pins the compiled annotation engine (compile.go,
// annotator.go) to the string reference implementations in kb.go: on
// randomized knowledge bases — including alias chains, aliases shadowing
// entities, delimiter-bearing labels and type names, undeclared types, and
// type-hierarchy cycles — AnnotateColumnCodes, AnnotatePairCodes and
// SameCode must agree byte-for-byte with AnnotateColumn, AnnotateColumnPair
// and SameEntity.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/table"
)

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
		ck := k.Compiled()
		ann := NewAnnotator(ck, nil)
		s := ck.NewScratch()
		// Reuse one scratch across every call: epoch handling must keep
		// successive annotations independent.
		for round := 0; round < 30; round++ {
			vals := randomValues(rng, 1+rng.Intn(12))
			want := k.AnnotateColumn(vals)
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
			wantPair := k.AnnotateColumnPair(pairs)
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
		ann := NewAnnotator(k.Compiled(), nil)
		vals := randomValues(rng, 40)
		for i := 0; i < len(vals); i++ {
			for j := 0; j < len(vals); j++ {
				want := k.SameEntity(vals[i], vals[j])
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
	ck := k.Compiled()
	ann := NewAnnotator(ck, nil)
	s := ck.NewScratch()
	cols := [][]string{
		{"Berlin", "Manchester", "Barcelona", "Nowhereville"},
		{"Berlin", "Boston", "Germany", "Spain"},
		{"USA", "U S A", "United States", "england", "##"},
		{"Pfizer", "pfizer biontech", "J&J", "Janssen", "Moderna", "Spikevax"},
	}
	for i, vals := range cols {
		want := k.AnnotateColumn(vals)
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
	want := k.AnnotateColumnPair(pairs)
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

// TestAnnotatorNumericRenderings pins the dict-backed cache against the
// dict's deliberate Int/Float ID collision: an Int and a numerically-equal
// integral Float share a value ID but can render — and therefore
// canonicalize — differently, so their codes must come from the rendering,
// never from one shared ID slot.
func TestAnnotatorNumericRenderings(t *testing.T) {
	d := table.NewDict()
	iv := table.IntValue(1000000000000000)
	fv := table.FloatValue(1e15)
	if d.Intern(iv) != d.Intern(fv) {
		t.Fatal("test premise: dict must collide Int 10^15 with Float 1e15")
	}
	k := Demo()
	ann := NewAnnotator(k.Compiled(), d)
	// Resolve in both orders: neither value's cached code may leak to the
	// other.
	for _, first := range []table.Value{iv, fv} {
		a2 := NewAnnotator(k.Compiled(), d)
		a2.Code(first)
		ci, cf := a2.Code(iv), a2.Code(fv)
		want := k.SameEntity(iv.String(), fv.String())
		if SameCode(ci, cf) != want {
			t.Fatalf("first=%v: SameCode=%v, reference SameEntity(%q,%q)=%v",
				first, SameCode(ci, cf), iv.String(), fv.String(), want)
		}
	}
	// Same-rendering numerics still agree.
	if !SameCode(ann.Code(table.IntValue(82)), ann.Code(table.FloatValue(82))) {
		t.Error("Int 82 and Float 82 render identically and must share a code")
	}
}

// TestQueryScope checks that a query scope resolves interned lake values
// through the shared cache (identical codes) while keeping foreign strings
// internally consistent.
func TestQueryScope(t *testing.T) {
	d := table.NewDict()
	berlin := table.StringValue("Berlin")
	d.Intern(berlin)
	k := Demo()
	ann := NewAnnotator(k.Compiled(), d)
	scope := ann.QueryScope()
	if scope.Code(berlin) != ann.Code(berlin) {
		t.Error("scope must share codes for interned lake values")
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
