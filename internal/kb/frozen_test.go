package kb

// frozen_test pins the one-form KB: once compiled, a KB drops its string
// form, and its Dump, Merge and string queries answer from the compiled
// engine exactly as the same calls answer on a mutable twin built from the
// same declarations.

import (
	"reflect"
	"sync"
	"testing"
)

// Declaration pools for FuzzFrozenKBMatchesMutable: type names with the
// relation-key delimiter, the empty type and a never-declared one; raw
// entity spellings that normalize together, to the empty string, or keep a
// delimiter (which Normalize turns into a space); labels with the
// delimiter.
var (
	frozenTypes    = []string{"t0", "t1", "t2", "ty\x1fpe", "syn:a->b", "", "ghost"}
	frozenStrings  = []string{"Ent A", "ent  a", "B!", "c", "d d", "##", "", "Ünï", "e\x1ff", "al0", "AL1", "stranger"}
	frozenLabels   = []string{"rel0", "r\x1fel", "syn:x->y", ""}
	frozenQueryExt = []string{"zzz", "ENT A.", "ünï", "e f", "t0", "ty\x1fpe"}
)

// declare replays fuzzed declarations into a new KB: each four bytes are an
// op and three pool indexes.
func declare(data []byte) *KB {
	k := New()
	pick := func(pool []string, b byte) string { return pool[int(b)%len(pool)] }
	for i := 0; i+3 < len(data); i += 4 {
		a, b, c := data[i+1], data[i+2], data[i+3]
		switch data[i] % 5 {
		case 0:
			k.AddType(pick(frozenTypes, a), pick(frozenTypes, b)) // self-parents and cycles included
		case 1:
			k.AddType(pick(frozenTypes, a), "")
		case 2:
			k.AddEntity(pick(frozenStrings, a), pick(frozenTypes, b), pick(frozenTypes, c))
		case 3:
			k.AddAlias(pick(frozenStrings, a), pick(frozenStrings, b)) // chains are not chased
		default:
			k.AddRelation(pick(frozenStrings, a), pick(frozenLabels, b), pick(frozenStrings, c))
		}
	}
	return k
}

// FuzzFrozenKBMatchesMutable builds one KB from fuzzed declarations twice,
// freezes one, and requires Dump, Merge and every string query of the
// frozen KB to equal the same call on the mutable twin.
func FuzzFrozenKBMatchesMutable(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 0, 1, 0, 0, 2, 0, 0, 1, 3, 9, 0, 0, 4, 0, 1, 3})
	f.Add([]byte{0, 0, 0, 0, 0, 3, 4, 0, 2, 4, 6, 5, 3, 10, 11, 0, 3, 11, 4, 0, 4, 10, 1, 8, 2, 8, 3, 2})
	f.Add([]byte{2, 7, 3, 3, 2, 8, 6, 6, 4, 7, 1, 8, 4, 8, 3, 7, 3, 9, 7, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		data = data[:min(len(data), 400)]
		k, ref := declare(data), declare(data)
		k.Compiled()
		if !reflect.DeepEqual(k.Dump(), ref.Dump()) {
			t.Fatalf("Dump: frozen\n%+v\nmutable\n%+v", k.Dump(), ref.Dump())
		}
		if !reflect.DeepEqual(k.Merge(New()).Dump(), ref.Merge(New()).Dump()) {
			t.Fatal("Merge from a frozen KB differs from the mutable twin's")
		}
		if !reflect.DeepEqual(Demo().Merge(k).Dump(), Demo().Merge(ref).Dump()) {
			t.Fatal("Merge into a curated KB differs from the mutable twin's")
		}
		if k.NumEntities() != ref.NumEntities() || k.NumRelations() != ref.NumRelations() {
			t.Fatalf("counts: frozen %d/%d, mutable %d/%d", k.NumEntities(), k.NumRelations(), ref.NumEntities(), ref.NumRelations())
		}
		queries := append(append([]string{}, frozenStrings...), frozenQueryExt...)
		for _, q := range queries {
			if got, want := k.Canonical(q), ref.Canonical(q); got != want {
				t.Fatalf("Canonical(%q) = %q, want %q", q, got, want)
			}
			if got, want := k.HasEntity(q), ref.HasEntity(q); got != want {
				t.Fatalf("HasEntity(%q) = %v, want %v", q, got, want)
			}
			if got, want := k.TypesOf(q), ref.TypesOf(q); !reflect.DeepEqual(got, want) {
				t.Fatalf("TypesOf(%q) = %q, want %q", q, got, want)
			}
			for _, o := range queries {
				if got, want := k.SameEntity(q, o), ref.SameEntity(q, o); got != want {
					t.Fatalf("SameEntity(%q, %q) = %v, want %v", q, o, got, want)
				}
				if got, want := k.RelationsBetween(q, o), ref.RelationsBetween(q, o); !reflect.DeepEqual(got, want) {
					t.Fatalf("RelationsBetween(%q, %q) = %q, want %q", q, o, got, want)
				}
			}
		}
		for _, typ := range append(frozenTypes, "unknown") {
			if got, want := k.Ancestors(typ), ref.Ancestors(typ); !reflect.DeepEqual(got, want) {
				t.Fatalf("Ancestors(%q) = %q, want %q", typ, got, want)
			}
		}
		pairs := make([][2]string, len(queries))
		for i, q := range queries {
			pairs[i] = [2]string{q, queries[(i+3)%len(queries)]}
		}
		if got, want := k.AnnotateColumn(queries), ref.AnnotateColumn(queries); got != want {
			t.Fatalf("AnnotateColumn = %+v, want %+v", got, want)
		}
		if got, want := k.AnnotateColumnPair(pairs), ref.AnnotateColumnPair(pairs); got != want {
			t.Fatalf("AnnotateColumnPair = %+v, want %+v", got, want)
		}
	})
}

// TestFrozenKBHoldsOneForm freezes a KB from several goroutines at once,
// beside readers of its string queries: every caller gets the one engine,
// the string form is gone afterwards, every reader answers as the mutable
// twin does, and every mutator panics.
func TestFrozenKBHoldsOneForm(t *testing.T) {
	k, ref := Demo(), Demo()
	queries := []string{"Berlin", "USA", "J&J", "Janssen", "Pfizer", "Nowhere", "##"}
	var wg sync.WaitGroup
	engines := make([]*Compiled, 4)
	for g := range engines {
		wg.Add(2)
		go func() {
			defer wg.Done()
			engines[g] = k.Compiled()
		}()
		go func() {
			defer wg.Done()
			for _, q := range queries {
				if got, want := k.Canonical(q), ref.Canonical(q); got != want {
					t.Errorf("Canonical(%q) = %q during the freeze, want %q", q, got, want)
				}
				if !reflect.DeepEqual(k.TypesOf(q), ref.TypesOf(q)) || k.HasEntity(q) != ref.HasEntity(q) {
					t.Errorf("TypesOf/HasEntity(%q) differ from the mutable twin's during the freeze", q)
				}
			}
		}()
	}
	wg.Wait()
	for g, c := range engines {
		if c == nil || c != k.Compiled() {
			t.Fatalf("caller %d got engine %p, want the one engine %p", g, c, k.Compiled())
		}
	}
	if k.decls.Load() != nil {
		t.Fatal("a compiled KB still holds its string maps")
	}
	if !reflect.DeepEqual(k.Dump(), ref.Dump()) {
		t.Fatal("the frozen Demo KB dumps differently from its mutable twin")
	}
	for name, mutate := range map[string]func(){
		"AddType":           func() { k.AddType("t", "") },
		"AddEntity":         func() { k.AddEntity("e", "t") },
		"AddAlias":          func() { k.AddAlias("a", "b") },
		"AddRelation":       func() { k.AddRelation("a", "l", "b") },
		"SynthesizeDomains": func() { SynthesizeDomains(k, nil, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a frozen KB did not panic", name)
				}
			}()
			mutate()
		}()
	}
}

// TestFrozenKBKeepsBareDeclarations covers what only FromDump and Merge
// can declare: an entity with no types and a relation with no labels,
// beside a self-parent, a type declared under an undeclared parent and a
// type only an entity names. The frozen KB answers and dumps as its
// mutable twin does.
func TestFrozenKBKeepsBareDeclarations(t *testing.T) {
	d := Dump{
		Types: []TypeDecl{{Type: "loop", Parent: "loop"}, {Type: "t", Parent: "ghost"}},
		Entities: []EntityDecl{
			{Entity: "bare"},
			{Entity: "typed", Types: []string{"t", "named", "loop"}},
		},
		Aliases:   []AliasDecl{{Alias: "b", Canonical: "bare"}},
		Relations: []RelationDecl{{Subject: "bare", Object: "typed"}, {Subject: "typed", Object: "bare", Labels: []string{"l"}}},
	}
	k, ref := FromDump(d), FromDump(d)
	k.Compiled()
	if got := k.Dump(); !reflect.DeepEqual(got, d) || !reflect.DeepEqual(got, ref.Dump()) {
		t.Fatalf("frozen Dump\n%+v\nwant\n%+v", got, d)
	}
	if k.NumEntities() != 2 || k.NumRelations() != 2 {
		t.Fatalf("counts %d/%d, want 2/2", k.NumEntities(), k.NumRelations())
	}
	for _, q := range []string{"bare", "B", "typed", "ghost"} {
		if k.HasEntity(q) != ref.HasEntity(q) || !reflect.DeepEqual(k.TypesOf(q), ref.TypesOf(q)) {
			t.Errorf("HasEntity/TypesOf(%q): frozen %v %q, mutable %v %q", q, k.HasEntity(q), k.TypesOf(q), ref.HasEntity(q), ref.TypesOf(q))
		}
		for _, o := range []string{"bare", "typed"} {
			if got, want := k.RelationsBetween(q, o), ref.RelationsBetween(q, o); !reflect.DeepEqual(got, want) {
				t.Errorf("RelationsBetween(%q, %q) = %q, want %q", q, o, got, want)
			}
		}
	}
	for _, typ := range []string{"loop", "t", "ghost", "named"} {
		if got, want := k.Ancestors(typ), ref.Ancestors(typ); !reflect.DeepEqual(got, want) {
			t.Errorf("Ancestors(%q) = %q, want %q", typ, got, want)
		}
	}
}
