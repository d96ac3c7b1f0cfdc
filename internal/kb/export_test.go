package kb

import "sort"

// DumpReference is the reference Dump: each list appended and sorted with
// sort.Slice. Dump must return the same lists in the same order. It reads
// the string form, so k must not be frozen yet.
func DumpReference(k *KB) Dump {
	m := k.mutable()
	var d Dump
	for typ, parent := range m.parent {
		d.Types = append(d.Types, TypeDecl{Type: typ, Parent: parent})
	}
	sort.Slice(d.Types, func(a, b int) bool { return d.Types[a].Type < d.Types[b].Type })
	for e, ts := range m.entityTypes {
		d.Entities = append(d.Entities, EntityDecl{Entity: e, Types: ts})
	}
	sort.Slice(d.Entities, func(a, b int) bool { return d.Entities[a].Entity < d.Entities[b].Entity })
	for a, c := range m.alias {
		d.Aliases = append(d.Aliases, AliasDecl{Alias: a, Canonical: c})
	}
	sort.Slice(d.Aliases, func(a, b int) bool { return d.Aliases[a].Alias < d.Aliases[b].Alias })
	for key, labels := range m.relations {
		subj, obj := splitRelationKey(key)
		d.Relations = append(d.Relations, RelationDecl{Subject: subj, Object: obj, Labels: labels})
	}
	sort.Slice(d.Relations, func(a, b int) bool {
		if d.Relations[a].Subject != d.Relations[b].Subject {
			return d.Relations[a].Subject < d.Relations[b].Subject
		}
		return d.Relations[a].Object < d.Relations[b].Object
	})
	return d
}
