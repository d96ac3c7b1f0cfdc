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

// Dump flattens the KB. The KB must not be mutated concurrently. Each list
// is filled into a slice sized once and sorted by its key; the keys are
// unique, so the order is total.
func (k *KB) Dump() Dump {
	d := Dump{
		Types:     sized[TypeDecl](len(k.parent)),
		Entities:  sized[EntityDecl](len(k.entityTypes)),
		Aliases:   sized[AliasDecl](len(k.alias)),
		Relations: sized[RelationDecl](len(k.relations)),
	}
	for typ, parent := range k.parent {
		d.Types = append(d.Types, TypeDecl{Type: typ, Parent: parent})
	}
	slices.SortFunc(d.Types, func(a, b TypeDecl) int { return strings.Compare(a.Type, b.Type) })
	for e, ts := range k.entityTypes {
		d.Entities = append(d.Entities, EntityDecl{Entity: e, Types: ts})
	}
	slices.SortFunc(d.Entities, func(a, b EntityDecl) int { return strings.Compare(a.Entity, b.Entity) })
	for a, c := range k.alias {
		d.Aliases = append(d.Aliases, AliasDecl{Alias: a, Canonical: c})
	}
	slices.SortFunc(d.Aliases, func(a, b AliasDecl) int { return strings.Compare(a.Alias, b.Alias) })
	for key, labels := range k.relations {
		subj, obj := splitRelationKey(key)
		d.Relations = append(d.Relations, RelationDecl{Subject: subj, Object: obj, Labels: labels})
	}
	slices.SortFunc(d.Relations, func(a, b RelationDecl) int {
		if c := strings.Compare(a.Subject, b.Subject); c != 0 {
			return c
		}
		return strings.Compare(a.Object, b.Object)
	})
	return d
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
// kb.Compile derives from sorted content — to the dumped KB's.
func FromDump(d Dump) *KB {
	k := New()
	for _, t := range d.Types {
		k.parent[t.Type] = t.Parent
	}
	for _, e := range d.Entities {
		k.entityTypes[e.Entity] = append([]string(nil), e.Types...)
	}
	for _, a := range d.Aliases {
		k.alias[a.Alias] = a.Canonical
	}
	for _, r := range d.Relations {
		k.relations[r.Subject+"\x1f"+r.Object] = append([]string(nil), r.Labels...)
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
