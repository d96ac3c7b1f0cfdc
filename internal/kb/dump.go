package kb

import (
	"slices"
	"strings"
)

// This file is the persistence surface of the KB: Dump flattens the
// knowledge base into a deterministic, order-preserving declaration list,
// and FromDump rebuilds an equivalent KB verbatim.
//
// Order preservation is load-bearing, not cosmetic. An entity's declared
// type list fixes the emission order of its compiled vote program, and vote
// emission order fixes the float64 accumulation order of every annotation
// confidence (see compile.go) — so Dump keeps each entity's types and each
// relation's labels in their original slice order, and FromDump writes them
// back untouched. The outer lists are sorted (by type, entity, alias,
// subject/object) so the same KB always dumps to the same bytes.
//
// FromDump must NOT rebuild through the public mutators: AddEntity
// normalizes and AddRelation re-canonicalizes its endpoints through the
// alias map, and a dumped KB already stores canonical keys — re-resolving
// them would chase a second alias hop (e.g. relation subject "b" with alias
// b→c would silently rewrite to "c"). FromDump therefore writes the
// internal maps directly.

// TypeDecl is one type-hierarchy declaration of a Dump.
type TypeDecl struct {
	Type   string
	Parent string // "" for a root type
}

// EntityDecl is one entity of a Dump, with its declared types in
// declaration order.
type EntityDecl struct {
	Entity string // normalized (as stored)
	Types  []string
}

// AliasDecl is one alias mapping of a Dump.
type AliasDecl struct {
	Alias     string // normalized
	Canonical string // normalized
}

// RelationDecl is one (subject, object) relationship of a Dump, with its
// labels in declaration order. Subject and object are stored canonical
// forms.
type RelationDecl struct {
	Subject string
	Object  string
	Labels  []string
}

// Dump is the flattened, deterministic form of a KB's content. Two KBs
// with equal content produce equal Dumps regardless of construction order
// (except for the order-bearing inner lists, which are part of the
// content: they fix vote accumulation order).
type Dump struct {
	Types     []TypeDecl
	Entities  []EntityDecl
	Aliases   []AliasDecl
	Relations []RelationDecl
}

// Dump flattens the KB. The KB must not be mutated concurrently.
//
// A mutable KB fills each list into a slice sized once and sorts it by its
// key; the keys are unique, so the order is total. A frozen KB reads its
// compiled engine and sorts no strings: compiled IDs are ranks in
// sorted-string order, so its types, entities and relations come out in
// Dump order by ID.
func (k *KB) Dump() Dump {
	d, c := k.form()
	if c != nil {
		return c.dump()
	}
	out := d.declarations()
	slices.SortFunc(out.Types, func(a, b TypeDecl) int { return strings.Compare(a.Type, b.Type) })
	slices.SortFunc(out.Entities, func(a, b EntityDecl) int { return strings.Compare(a.Entity, b.Entity) })
	slices.SortFunc(out.Aliases, func(a, b AliasDecl) int { return strings.Compare(a.Alias, b.Alias) })
	slices.SortFunc(out.Relations, func(a, b RelationDecl) int {
		if c := strings.Compare(a.Subject, b.Subject); c != 0 {
			return c
		}
		return strings.Compare(a.Object, b.Object)
	})
	return out
}

// declarations is the string form's Dump lists in map order, unsorted.
func (d *decls) declarations() Dump {
	out := Dump{
		Types:     sized[TypeDecl](len(d.parent)),
		Entities:  sized[EntityDecl](len(d.entityTypes)),
		Aliases:   sized[AliasDecl](len(d.alias)),
		Relations: sized[RelationDecl](len(d.relations)),
	}
	for typ, parent := range d.parent {
		out.Types = append(out.Types, TypeDecl{Type: typ, Parent: parent})
	}
	for e, ts := range d.entityTypes {
		out.Entities = append(out.Entities, EntityDecl{Entity: e, Types: ts})
	}
	for a, c := range d.alias {
		out.Aliases = append(out.Aliases, AliasDecl{Alias: a, Canonical: c})
	}
	for key, labels := range d.relations {
		subj, obj := splitRelationKey(key)
		out.Relations = append(out.Relations, RelationDecl{Subject: subj, Object: obj, Labels: labels})
	}
	return out
}

// dump is a frozen KB's Dump:
//   - the types are the declared type IDs in order;
//   - the entities are the canonical-string IDs marked as entities, in
//     order, and an entity's types are its program's declared (weight-1)
//     steps;
//   - the aliases are the sorted alias sources compile kept, each with
//     its target's canonical string;
//   - the relations are the CSR runs in order: subject ID, then object ID.
//
// Every list is sized by a counting pass first, and the entities' type
// lists are cut from one backing slice, as are the relations' label
// lists, capacity-limited so an append to one copies it. Growing them by
// doubling instead made a dump of a 19 k-entity KB ≈ 2.7 times slower on
// a two-core machine.
func (c *Compiled) dump() Dump {
	ntypes, ndecl := 0, 0
	for _, p := range c.parent {
		if p != undeclaredType {
			ntypes++
		}
	}
	for _, e := range c.prog {
		if e.declared() {
			ndecl++
		}
	}

	out := Dump{
		Types:     sized[TypeDecl](ntypes),
		Entities:  sized[EntityDecl](c.numEntities()),
		Aliases:   sized[AliasDecl](len(c.aliasSrc)),
		Relations: sized[RelationDecl](len(c.relObj)),
	}
	for id, p := range c.parent {
		switch p {
		case undeclaredType:
		case rootType:
			out.Types = append(out.Types, TypeDecl{Type: c.types[id]})
		default:
			out.Types = append(out.Types, TypeDecl{Type: c.types[id], Parent: c.types[p]})
		}
	}
	types := make([]string, 0, ndecl)
	for id := range c.strs {
		if !c.isEntity(uint32(id)) {
			continue
		}
		from := len(types)
		for _, e := range c.program(uint32(id)) {
			if e.declared() {
				types = append(types, c.types[e.typ])
			}
		}
		out.Entities = append(out.Entities, EntityDecl{Entity: c.strs[id], Types: cut(types, from)})
	}
	for j, a := range c.aliasSrc {
		out.Aliases = append(out.Aliases, AliasDecl{Alias: a, Canonical: c.strs[c.aliasTo[j]]})
	}
	labels := make([]string, 0, len(c.relLabels))
	for subj := range c.strs {
		for r := c.relStart[subj]; r < c.relStart[subj+1]; r++ {
			from := len(labels)
			for _, l := range c.relLabels[c.labelStart[r]:c.labelStart[r+1]] {
				labels = append(labels, c.labels[l])
			}
			out.Relations = append(out.Relations, RelationDecl{
				Subject: c.strs[subj],
				Object:  c.strs[c.relObj[r]],
				Labels:  cut(labels, from),
			})
		}
	}
	return out
}

// cut returns s[from:] with its capacity limited to its length, or nil when
// it is empty (a mutable KB dumps an empty list as nil).
func cut(s []string, from int) []string {
	if from == len(s) {
		return nil
	}
	return s[from:len(s):len(s)]
}

// sized returns an empty slice with room for n elements: nil when n is 0,
// so an empty list dumps as nil.
func sized[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, 0, n)
}

// FromDump rebuilds a KB from a Dump, writing the stored (already
// normalized/canonicalized) strings back verbatim. The result compiles to
// an engine identical — including every dense ID assignment, which
// compiling derives from sorted content — to the dumped KB's.
func FromDump(d Dump) *KB {
	k := New()
	m := k.mutable()
	for _, t := range d.Types {
		m.parent[t.Type] = t.Parent
	}
	for _, e := range d.Entities {
		m.entityTypes[e.Entity] = append([]string(nil), e.Types...)
	}
	for _, a := range d.Aliases {
		m.alias[a.Alias] = a.Canonical
	}
	for _, r := range d.Relations {
		m.relations[r.Subject+"\x1f"+r.Object] = append([]string(nil), r.Labels...)
	}
	return k
}

// splitRelationKey undoes the "subj\x1fobj" relation-map key encoding.
func splitRelationKey(key string) (subj, obj string) {
	for i := 0; i < len(key); i++ {
		if key[i] == '\x1f' {
			return key[:i], key[i+1:]
		}
	}
	return key, ""
}
