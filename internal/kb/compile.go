package kb

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/tokenize"
)

// This file compiles a KB into an immutable integer-ID engine. The string
// methods in kb.go remain the reference semantics while a KB is mutable;
// once it is compiled the engine is the KB's only form: SANTOS index builds
// and entity resolution run on it, and the string queries, Dump and Merge
// read it. Everything the compiled engine computes — column annotations,
// pair annotations, entity identity, a Dump — is byte-identical to the
// string path, pinned by the randomized cross-check suite
// (crosscheck_test.go) and FuzzFrozenKBMatchesMutable.
//
// ID spaces (all dense, deterministic — assigned in sorted-string order, so
// compiled IDs are stable across runs and safe to pack into index keys, and
// an ID order is the string order Dump sorts by):
//
//   - canonical-string IDs: every canonical string the KB mentions (entity
//     keys, relation endpoints, alias targets);
//   - type IDs: every type name mentioned by the hierarchy or an entity;
//   - label IDs: every relationship label.
//
// Entity annotation codes (Compiled.Code, Numbering) extend the
// canonical-string ID space: see codes.go.

// voteEntry is one step of an entity's vote program: when a value resolving
// to the entity votes, typ receives weight w. Entries are kept in the exact
// emission order of KB.AnnotateColumn (declared type, then its ancestors
// nearest-first, per declared type in order), unmerged, so the float64
// accumulation order — and therefore every vote total, bit for bit — matches
// the string reference.
type voteEntry struct {
	typ uint32
	w   float64
}

// declared reports whether the step is one of the entity's declared types:
// those vote weight 1, and an ancestor at most ancestorDecay (< 1).
func (e voteEntry) declared() bool { return e.w == 1 }

// Type parent codes of Compiled.parent, beside the parent's type ID.
const (
	rootType       = -1 // declared with no parent
	undeclaredType = -2 // only referenced, as a parent or an entity's type
)

// Compiled is the frozen, integer-keyed form of a KB. It is immutable and
// safe for concurrent use.
type Compiled struct {
	strs   []string          // canonical strings; ID = index
	lookup map[string]uint32 // normalized known string (incl. alias sources) -> alias-resolved ID

	// progs holds a vote program per canonical-string ID, nil when the
	// string is not an entity. An entity with no declared types (only
	// FromDump and Merge make one) has an empty, non-nil program.
	progs [][]voteEntry

	types  []string   // type names; typeID = index
	parent []int32    // per typeID: the declared parent's typeID, rootType or undeclaredType
	ancs   [][]uint32 // per typeID: ancestor chain, nearest first (cycle-guarded)

	labels []string            // relationship labels; labelID = index
	rels   map[uint64][]uint32 // subjID<<32|objID -> label IDs, insertion order

	aliases []AliasDecl // sorted by alias; nil when none
}

// Compiled returns the compiled form of the KB and freezes the KB: the
// first call compiles and stores the engine and drops the string form, and
// every later call returns the same *Compiled. Concurrent first callers may
// compile redundantly from the string form, which no one writes any more,
// but CompareAndSwap keeps one engine for all of them.
func (k *KB) Compiled() *Compiled {
	if k == nil {
		return nil
	}
	if d := k.decls.Load(); d != nil {
		k.compiled.CompareAndSwap(nil, compile(d))
		k.decls.Store(nil)
	}
	return k.compiled.Load()
}

// compile builds the integer-ID form of a string form. The string -> ID
// maps of the three universes are needed only while compiling, so they are
// not kept.
func compile(d *decls) *Compiled {
	c := &Compiled{rels: make(map[uint64][]uint32, len(d.relations))}

	// Type universe: hierarchy keys and parents, plus every type an entity
	// declares (entities may reference types never declared via AddType).
	typeSet := make(map[string]bool)
	for t, p := range d.parent {
		typeSet[t] = true
		if p != "" {
			typeSet[p] = true
		}
	}
	for _, ts := range d.entityTypes {
		for _, t := range ts {
			typeSet[t] = true
		}
	}
	c.types = sortedBoolKeys(typeSet)
	typeIDs := make(map[string]uint32, len(c.types))
	for i, t := range c.types {
		typeIDs[t] = uint32(i)
	}
	// Each type's declaration, for Dump; a self-parent keeps its own ID.
	c.parent = make([]int32, len(c.types))
	for i, t := range c.types {
		switch p, ok := d.parent[t]; {
		case !ok:
			c.parent[i] = undeclaredType
		case p == "":
			c.parent[i] = rootType
		default:
			c.parent[i] = int32(typeIDs[p])
		}
	}
	// Ancestor chains reuse the reference walk, so the cycle guard — and
	// therefore the chain cut points — are identical by construction.
	c.ancs = make([][]uint32, len(c.types))
	for i, t := range c.types {
		for _, anc := range d.ancestors(t) {
			c.ancs[i] = append(c.ancs[i], typeIDs[anc])
		}
	}

	// Label universe.
	labelSet := make(map[string]bool)
	for _, ls := range d.relations {
		for _, l := range ls {
			labelSet[l] = true
		}
	}
	c.labels = sortedBoolKeys(labelSet)
	labelIDs := make(map[string]uint32, len(c.labels))
	for i, l := range c.labels {
		labelIDs[l] = uint32(i)
	}
	if uint64(len(c.labels)) >= 1<<31 || uint64(len(c.types)) >= 1<<31 {
		panic("kb: compile: more than 2^31 distinct labels or types")
	}

	// Canonical-string universe: entity keys, relation endpoints, alias
	// targets. All are already in canonical (normalized, alias-free at add
	// time) form; canonical strings never contain '\x1f' (Normalize maps it
	// to a space), so relation keys split unambiguously.
	strSet := make(map[string]bool, len(d.entityTypes))
	for e := range d.entityTypes {
		strSet[e] = true
	}
	for key := range d.relations {
		subj, obj := splitRelationKey(key)
		strSet[subj] = true
		strSet[obj] = true
	}
	for _, target := range d.alias {
		strSet[target] = true
	}
	c.strs = sortedBoolKeys(strSet)
	if uint64(len(c.strs)) >= 1<<31 {
		panic("kb: compile: more than 2^31 distinct canonical strings")
	}
	ids := make(map[string]uint32, len(c.strs))
	for i, s := range c.strs {
		ids[s] = uint32(i)
	}

	// Resolution map: one alias hop, exactly as Canonical does — the alias
	// map applies even to strings that are themselves entities, and alias
	// chains are deliberately NOT chased (a→b with b→c resolves a to b).
	c.lookup = make(map[string]uint32, len(c.strs)+len(d.alias))
	for s, id := range ids {
		if t, ok := d.alias[s]; ok {
			c.lookup[s] = ids[t]
		} else {
			c.lookup[s] = id
		}
	}
	c.aliases = sized[AliasDecl](len(d.alias))
	for a, t := range d.alias {
		if _, ok := c.lookup[a]; !ok {
			c.lookup[a] = ids[t]
		}
		c.aliases = append(c.aliases, AliasDecl{Alias: a, Canonical: t})
	}
	slices.SortFunc(c.aliases, func(a, b AliasDecl) int { return strings.Compare(a.Alias, b.Alias) })

	// Vote programs: flatten the per-value annotation work of
	// AnnotateColumn once per entity.
	c.progs = make([][]voteEntry, len(c.strs))
	for e, types := range d.entityTypes {
		prog := make([]voteEntry, 0, len(types)*2) // non-nil even when empty
		for _, t := range types {
			ti := typeIDs[t]
			prog = append(prog, voteEntry{typ: ti, w: 1})
			w := 1.0
			for _, anc := range c.ancs[ti] {
				w *= ancestorDecay
				prog = append(prog, voteEntry{typ: anc, w: w})
			}
		}
		c.progs[ids[e]] = prog
	}

	// Relations: packed integer keys over the stored (not re-resolved)
	// canonical endpoints, mirroring the string map's keys.
	for key, ls := range d.relations {
		subj, obj := splitRelationKey(key)
		lids := make([]uint32, len(ls))
		for j, l := range ls {
			lids[j] = labelIDs[l]
		}
		c.rels[uint64(ids[subj])<<32|uint64(ids[obj])] = lids
	}
	return c
}

func sortedBoolKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// resolve normalizes s and resolves one alias hop, as Canonical does, to
// a canonical-string ID; ok is false when the canonical string is not one
// the KB mentions.
func (c *Compiled) resolve(s string) (id uint32, ok bool) {
	id, ok = c.lookup[tokenize.Normalize(s)]
	return id, ok
}

// DeclaredTypeIDs appends to dst the type IDs KB.TypesOf names for s: the
// declared types of the entity s resolves to, in declaration order.
func (c *Compiled) DeclaredTypeIDs(s string, dst []uint32) []uint32 {
	if id, ok := c.resolve(s); ok {
		for _, e := range c.progs[id] {
			if e.declared() {
				dst = append(dst, e.typ)
			}
		}
	}
	return dst
}

// TypeName returns the name of a type ID.
func (c *Compiled) TypeName(id uint32) string { return c.types[id] }

// AncestorIDs returns the compiled ancestor chain of a type ID, nearest
// first, with the same cycle guard as KB.Ancestors.
func (c *Compiled) AncestorIDs(id uint32) []uint32 { return c.ancs[id] }

// Scratch is the reusable working memory of the compiled annotation engine.
// All slices are sized to the compiled universe at creation; a Scratch is
// bound to the Compiled that created it and must not be shared between
// concurrent annotators (pool one per worker).
type Scratch struct {
	ck *Compiled // the Compiled that created it

	votes    []float64 // per typeID: accumulated vote weight (valid when seenType matches)
	support  []int32   // per typeID: values supporting the type
	counted  []uint32  // per typeID: valEpoch stamp (support counted for current value)
	seenType []uint32  // per typeID: colEpoch stamp (type touched this column)
	touched  []uint32  // typeIDs touched this column
	colEpoch uint32
	valEpoch uint32

	pairVotes   []int32  // per labelID<<1|inverse: vote count
	pairSeen    []uint32 // per labelID<<1|inverse: pairEpoch stamp
	pairTouched []uint32
	pairEpoch   uint32

	// Column-code state (see Scratch.ColumnCodes): the codes of the
	// column's renderings seen so far, and the normalization buffer.
	seen map[string]uint32
	norm []byte
}

// NewScratch allocates working memory sized to the compiled universe.
func (c *Compiled) NewScratch() *Scratch {
	nt, nl := len(c.types), len(c.labels)
	return &Scratch{
		ck:        c,
		votes:     make([]float64, nt),
		support:   make([]int32, nt),
		counted:   make([]uint32, nt),
		seenType:  make([]uint32, nt),
		pairVotes: make([]int32, 2*nl),
		pairSeen:  make([]uint32, 2*nl),
		seen:      make(map[string]uint32),
	}
}

// bumpEpoch advances an epoch counter, clearing the stamp slice on the
// (astronomically rare) uint32 wrap so stale stamps can never collide.
func bumpEpoch(epoch *uint32, stamps []uint32) uint32 {
	*epoch++
	if *epoch == 0 {
		for i := range stamps {
			stamps[i] = 0
		}
		*epoch = 1
	}
	return *epoch
}

// AnnotateColumnCodes is the compiled AnnotateColumn: it assigns a semantic
// type to a column given the annotation codes of its distinct values (in
// the same first-seen order DistinctStrings produces; codes at or below
// CodeEmpty are skipped exactly as empty canonicals are). The second result
// is the winning compiled type ID (meaningless when Type is empty). The
// result is byte-identical to KB.AnnotateColumn over the same values.
func (c *Compiled) AnnotateColumnCodes(codes []uint32, s *Scratch) (ColumnAnnotation, uint32) {
	col := bumpEpoch(&s.colEpoch, s.seenType)
	touched := s.touched[:0]
	total := 0
	nstrs := uint32(len(c.strs))
	for _, code := range codes {
		if code <= CodeEmpty {
			continue
		}
		total++
		id := code - codeBase
		if id >= nstrs {
			continue // outside (non-KB) canonical: counts, never votes
		}
		prog := c.progs[id]
		if len(prog) == 0 {
			continue // known string, not an entity: counts, never votes
		}
		val := bumpEpoch(&s.valEpoch, s.counted)
		for _, e := range prog {
			if s.seenType[e.typ] != col {
				s.seenType[e.typ] = col
				s.votes[e.typ] = 0
				s.support[e.typ] = 0
				touched = append(touched, e.typ)
			}
			s.votes[e.typ] += e.w
			if s.counted[e.typ] != val {
				s.counted[e.typ] = val
				s.support[e.typ]++
			}
		}
	}
	s.touched = touched
	if total == 0 || len(touched) == 0 {
		return ColumnAnnotation{}, 0
	}
	// Max votes, ties broken by the lexicographically smallest type string —
	// the element the reference's sort puts first.
	best := touched[0]
	for _, ty := range touched[1:] {
		switch {
		case s.votes[ty] > s.votes[best]:
			best = ty
		case s.votes[ty] == s.votes[best] && c.types[ty] < c.types[best]:
			best = ty
		}
	}
	return ColumnAnnotation{
		Type:       c.types[best],
		Confidence: float64(s.support[best]) / float64(total),
	}, best
}

// AnnotatePairCodes is the compiled AnnotateColumnPair: it assigns a
// relationship label to an ordered column pair given row-aligned annotation
// codes (acodes[i] and bcodes[i] are row i's cells; rows where either code
// is CodeEmpty — null or empty-canonical — are skipped, as the reference
// skips them). The second result is the winning compiled label ID
// (meaningless when Label is empty). Byte-identical to
// KB.AnnotateColumnPair over the corresponding row pairs.
func (c *Compiled) AnnotatePairCodes(acodes, bcodes []uint32, s *Scratch) (PairAnnotation, uint32) {
	ep := bumpEpoch(&s.pairEpoch, s.pairSeen)
	touched := s.pairTouched[:0]
	total := 0
	nstrs := uint32(len(c.strs))
	vote := func(key uint32) {
		if s.pairSeen[key] != ep {
			s.pairSeen[key] = ep
			s.pairVotes[key] = 0
			touched = append(touched, key)
		}
		s.pairVotes[key]++
	}
	for i, ca := range acodes {
		cb := bcodes[i]
		if ca <= CodeEmpty || cb <= CodeEmpty {
			continue
		}
		total++
		ia, ib := ca-codeBase, cb-codeBase
		if ia >= nstrs || ib >= nstrs {
			continue // non-KB canonicals can never carry relations
		}
		for _, lid := range c.rels[uint64(ia)<<32|uint64(ib)] {
			vote(lid << 1)
		}
		for _, lid := range c.rels[uint64(ib)<<32|uint64(ia)] {
			vote(lid<<1 | 1)
		}
	}
	s.pairTouched = touched
	if total == 0 || len(touched) == 0 {
		return PairAnnotation{}, 0
	}
	// Max votes; ties by smaller label string, then forward before inverse —
	// the reference's sort order.
	best := touched[0]
	for _, k2 := range touched[1:] {
		vb, vk := s.pairVotes[best], s.pairVotes[k2]
		switch {
		case vk > vb:
			best = k2
		case vk < vb:
		case c.labels[k2>>1] < c.labels[best>>1]:
			best = k2
		case c.labels[k2>>1] > c.labels[best>>1]:
		case k2&1 == 0 && best&1 == 1:
			best = k2
		}
	}
	return PairAnnotation{
		Label:      c.labels[best>>1],
		Inverse:    best&1 == 1,
		Confidence: float64(s.pairVotes[best]) / float64(total),
	}, best >> 1
}
