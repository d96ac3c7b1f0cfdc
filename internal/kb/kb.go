// Package kb provides the knowledge base substrate for SANTOS-style
// semantic table discovery and for alias-aware entity resolution. The
// paper's SANTOS uses YAGO; this package implements the same consumer
// surface — entity→type lookup over a type hierarchy, entity aliases, and
// directed binary relationships — backed by (a) a curated built-in KB for
// the demo's COVID/geo/vaccine domain and (b) a KB *synthesized* from the
// data lake itself (SANTOS §4: the synthesized KB), so discovery still
// works on domains the curated KB does not cover.
package kb

import (
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/tokenize"
)

// KB is an in-memory knowledge base. All entity strings are stored and
// queried in normalized form (tokenize.Normalize); callers may pass raw
// cell values.
//
// A KB is mutable until it is first compiled, and frozen from then on: the
// first Compiled() call fixes its content, and AddType, AddEntity, AddAlias
// and AddRelation panic afterwards. Every catalog compiles its KB when it
// is built (lake.New, lake.NewSharded, lake.NewComposite), and er.Resolve
// and embed.Columns compile the KB they are handed, so a KB passed to any
// of them is frozen by the call. The exception is a KB passed with
// lake.Options.SynthesizeKB: the build copies it and synthesizes into the
// copy, so the caller's KB is neither modified nor frozen. To extend a
// frozen KB, build a new one or Merge it into a fresh copy.
//
// A KB holds one form per state. A mutable KB keeps its declarations in
// string maps; compiling replaces them with the compiled engine, and from
// then on every query, Dump and Merge read the engine (see compile.go).
type KB struct {
	// decls is the string form: set while the KB is mutable, nil once it
	// is frozen. Compiled stores the engine before it drops decls, so a
	// reader that finds decls nil finds the engine.
	decls atomic.Pointer[decls]
	// compiled is set once, by the first Compiled() call (see compile.go).
	compiled atomic.Pointer[Compiled]
}

// decls is a mutable KB's string form.
type decls struct {
	parent      map[string]string   // type -> parent type ("" when root)
	entityTypes map[string][]string // entity -> declared types
	alias       map[string]string   // alias -> canonical entity
	relations   map[string][]string // "subj\x1fobj" -> labels
}

// New returns an empty knowledge base.
func New() *KB {
	k := &KB{}
	k.decls.Store(&decls{
		parent:      make(map[string]string),
		entityTypes: make(map[string][]string),
		alias:       make(map[string]string),
		relations:   make(map[string][]string),
	})
	return k
}

// mutable returns the string form to write into; it panics when the KB is
// frozen (see KB).
func (k *KB) mutable() *decls {
	d := k.decls.Load()
	if d == nil {
		panic("kb: KB is frozen once compiled; build a new KB, or Merge it into a fresh copy")
	}
	return d
}

// form returns the KB's one form: its string form while it is mutable,
// else (d nil) its compiled engine.
func (k *KB) form() (d *decls, c *Compiled) {
	if d = k.decls.Load(); d != nil {
		return d, nil
	}
	return nil, k.compiled.Load()
}

// AddType declares a type with an optional parent ("" for a root type).
func (k *KB) AddType(typ, parent string) {
	k.mutable().parent[typ] = parent
}

// AddEntity declares an entity with one or more types. Repeated calls
// accumulate types.
func (k *KB) AddEntity(entity string, types ...string) {
	d := k.mutable()
	if e := tokenize.Normalize(entity); e != "" && len(types) > 0 {
		d.entityTypes[e] = appendUnique(d.entityTypes[e], types...)
	}
}

// AddAlias maps an alias to a canonical entity; lookups and relationship
// queries resolve aliases first. ("J&J" → "jnj", "USA" → "united states".)
func (k *KB) AddAlias(aliasName, canonical string) {
	d := k.mutable()
	a := tokenize.Normalize(aliasName)
	c := tokenize.Normalize(canonical)
	if a == "" || c == "" || a == c {
		return
	}
	d.alias[a] = c
}

// AddRelation records a directed relationship subject --label--> object.
func (k *KB) AddRelation(subject, label, object string) {
	d := k.mutable()
	d.relate(d.canonical(subject), label, d.canonical(object))
}

// relate is AddRelation over endpoints already in stored (canonical) form.
func (d *decls) relate(s, label, o string) {
	if s == "" || o == "" {
		return
	}
	key := s + "\x1f" + o
	d.relations[key] = appendUnique(d.relations[key], label)
}

// canonical is Canonical over the string form.
func (d *decls) canonical(s string) string {
	n := tokenize.Normalize(s)
	if c, ok := d.alias[n]; ok {
		return c
	}
	return n
}

// Canonical normalizes s and resolves one alias hop.
func (k *KB) Canonical(s string) string {
	d, c := k.form()
	if c == nil {
		return d.canonical(s)
	}
	n := tokenize.Normalize(s)
	if id, ok := find(c, n); ok {
		return c.strs[id]
	}
	return n
}

// SameEntity reports whether two raw strings resolve to the same canonical
// entity (used by alias-aware ER features).
func (k *KB) SameEntity(a, b string) bool {
	ca, cb := k.Canonical(a), k.Canonical(b)
	return ca != "" && ca == cb
}

// HasEntity reports whether the (canonicalized) string is a known entity.
func (k *KB) HasEntity(s string) bool {
	d, c := k.form()
	if c == nil {
		_, ok := d.entityTypes[d.canonical(s)]
		return ok
	}
	id, ok := c.resolve(s)
	return ok && c.isEntity(id)
}

// TypesOf returns the declared types of the entity (after alias
// resolution), without ancestor expansion. Nil when unknown.
func (k *KB) TypesOf(entity string) []string {
	d, c := k.form()
	if c == nil {
		return d.entityTypes[d.canonical(entity)]
	}
	return names(c.DeclaredTypeIDs(entity, nil), c.types)
}

// Ancestors returns the chain of ancestor types of typ, nearest first.
func (k *KB) Ancestors(typ string) []string {
	d, c := k.form()
	if c == nil {
		return d.ancestors(typ)
	}
	if id, ok := slices.BinarySearch(c.types, typ); ok {
		return names(c.ancs[id], c.types)
	}
	return nil
}

// ancestors is Ancestors over the string form.
func (d *decls) ancestors(typ string) []string {
	var out []string
	seen := map[string]bool{typ: true}
	for cur := d.parent[typ]; cur != ""; cur = d.parent[cur] {
		if seen[cur] {
			break // defensive: cycle in a hand-built hierarchy
		}
		seen[cur] = true
		out = append(out, cur)
	}
	return out
}

// RelationsBetween returns the labels of relationships subject --label-->
// object, after alias resolution. Nil when none.
func (k *KB) RelationsBetween(subject, object string) []string {
	d, c := k.form()
	if c == nil {
		s, o := d.canonical(subject), d.canonical(object)
		if s == "" || o == "" {
			return nil
		}
		return d.relations[s+"\x1f"+o]
	}
	s, sok := c.resolve(subject)
	o, ook := c.resolve(object)
	if !sok || !ook || c.strs[s] == "" || c.strs[o] == "" {
		return nil
	}
	return names(c.relation(s, o), c.labels)
}

// names maps compiled IDs to their strings in of; nil when ids is empty,
// as the string form answers.
func names(ids []uint32, of []string) []string {
	var out []string
	for _, id := range ids {
		out = append(out, of[id])
	}
	return out
}

// ancestorDecay is the vote weight multiplier per hierarchy level when
// annotating columns: specific types win on homogeneous columns, while a
// column that genuinely mixes sibling types accumulates more weight on the
// shared supertype (with 0.75, an even two-sibling mix scores the parent
// 0.75·n against 0.5·n for either sibling).
const ancestorDecay = 0.75

// ColumnAnnotation is the semantic annotation of one column.
type ColumnAnnotation struct {
	Type       string  // winning type label ("" when nothing annotates)
	Confidence float64 // supporting fraction of non-empty values, in [0,1]
}

// AnnotateColumn assigns a semantic type to a column by majority vote over
// its values' entity types. Each value votes 1 for each declared type and a
// geometrically decayed weight for ancestors. Confidence is the fraction of
// non-empty values whose entity carries the winning type (directly or via
// ancestors).
//
// It is the string reference of the compiled engine's AnnotateColumnCodes,
// which the cross-checks pin byte-identical to it. It reads the KB through
// the string queries, so a cross-check runs it on a mutable KB.
func (k *KB) AnnotateColumn(values []string) ColumnAnnotation {
	votes := make(map[string]float64)
	support := make(map[string]int)
	total := 0
	for _, raw := range values {
		if k.Canonical(raw) == "" {
			continue
		}
		total++
		counted := make(map[string]bool)
		for _, t := range k.TypesOf(raw) {
			votes[t]++
			if !counted[t] {
				support[t]++
				counted[t] = true
			}
			w := 1.0
			for _, anc := range k.Ancestors(t) {
				w *= ancestorDecay
				votes[anc] += w
				if !counted[anc] {
					support[anc]++
					counted[anc] = true
				}
			}
		}
	}
	if total == 0 || len(votes) == 0 {
		return ColumnAnnotation{}
	}
	labels := make([]string, 0, len(votes))
	for t := range votes {
		labels = append(labels, t)
	}
	sort.Slice(labels, func(a, b int) bool {
		if votes[labels[a]] != votes[labels[b]] {
			return votes[labels[a]] > votes[labels[b]]
		}
		return labels[a] < labels[b]
	})
	best := labels[0]
	return ColumnAnnotation{Type: best, Confidence: float64(support[best]) / float64(total)}
}

// PairAnnotation is the semantic annotation of an ordered column pair.
type PairAnnotation struct {
	Label      string  // winning relationship label ("" when none)
	Inverse    bool    // true when the relationship holds object->subject
	Confidence float64 // supporting fraction of co-non-empty value pairs
}

// AnnotateColumnPair assigns a relationship label to the ordered column
// pair by majority vote over row-aligned value pairs: a pair (a,b) votes
// for every label of a--->b and (as inverse) of b--->a.
//
// It is the string reference of AnnotatePairCodes, read through the
// string queries as AnnotateColumn is.
func (k *KB) AnnotateColumnPair(pairs [][2]string) PairAnnotation {
	type cand struct {
		label   string
		inverse bool
	}
	votes := make(map[cand]int)
	total := 0
	for _, p := range pairs {
		if k.Canonical(p[0]) == "" || k.Canonical(p[1]) == "" {
			continue
		}
		total++
		for _, l := range k.RelationsBetween(p[0], p[1]) {
			votes[cand{l, false}]++
		}
		for _, l := range k.RelationsBetween(p[1], p[0]) {
			votes[cand{l, true}]++
		}
	}
	if total == 0 || len(votes) == 0 {
		return PairAnnotation{}
	}
	cands := make([]cand, 0, len(votes))
	for c := range votes {
		cands = append(cands, c)
	}
	sort.Slice(cands, func(i, j int) bool {
		if votes[cands[i]] != votes[cands[j]] {
			return votes[cands[i]] > votes[cands[j]]
		}
		if cands[i].label != cands[j].label {
			return cands[i].label < cands[j].label
		}
		return !cands[i].inverse && cands[j].inverse
	})
	best := cands[0]
	return PairAnnotation{
		Label:      best.label,
		Inverse:    best.inverse,
		Confidence: float64(votes[best]) / float64(total),
	}
}

// NumEntities reports the number of known entities.
func (k *KB) NumEntities() int {
	d, c := k.form()
	if c == nil {
		return len(d.entityTypes)
	}
	return c.numEntities()
}

// numEntities counts the entity bits.
func (c *Compiled) numEntities() int {
	n := 0
	for _, w := range c.entity {
		n += bits.OnesCount64(w)
	}
	return n
}

// NumRelations reports the number of (subject,object) pairs with at least
// one relationship label.
func (k *KB) NumRelations() int {
	d, c := k.form()
	if c == nil {
		return len(d.relations)
	}
	return len(c.relObj)
}
