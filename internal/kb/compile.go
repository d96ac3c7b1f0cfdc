package kb

import (
	"cmp"
	"maps"
	"math/bits"
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

// Compiled is the frozen, integer-keyed form of a KB, held in flat arrays.
// It is immutable and safe for concurrent use.
type Compiled struct {
	strs []string // canonical strings; ID = index

	// lookup is an open-addressing index, linear-probed and a power of two
	// long, over the lookup keys: key k < len(strs) is canonical-string ID
	// k, and key len(strs)+j is alias j. A slot holds a key plus one (0 is
	// empty). A canonical string that is also an alias source is keyed by
	// its alias alone, so the alias shadows it (see find).
	lookup []uint32

	// Vote programs, one arena: canonical-string ID i's program is
	// prog[progStart[i]:progStart[i+1]]. entity marks the IDs that are
	// entities; an entity with no declared types (only FromDump and Merge
	// make one) has an empty program and its bit set.
	prog      []voteEntry
	progStart []uint32
	entity    []uint64

	types  []string   // type names; typeID = index
	parent []int32    // per typeID: the declared parent's typeID, rootType or undeclaredType
	ancs   [][]uint32 // per typeID: ancestor chain, nearest first (cycle-guarded)

	// Relations in CSR form keyed by subject ID: subject i's relations are
	// relStart[i] up to relStart[i+1], in ascending object ID (relObj),
	// and relation r's label IDs, in insertion order, are
	// relLabels[labelStart[r]:labelStart[r+1]].
	labels     []string // relationship labels; labelID = index
	relStart   []uint32
	relObj     []uint32
	labelStart []uint32
	relLabels  []uint32

	aliasSrc []string // alias sources, sorted
	aliasTo  []uint32 // per alias: its target's canonical-string ID
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
	c := &Compiled{}

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
	// to a space), so relation keys split unambiguously. An endpoint is
	// inserted only when absent, and then as a copy: a map assignment to a
	// present key rewrites the stored key, and either way a substring would
	// keep its whole relation key alive.
	strSet := make(map[string]bool, len(d.entityTypes))
	for e := range d.entityTypes {
		strSet[e] = true
	}
	for key := range d.relations {
		subj, obj := splitRelationKey(key)
		for _, s := range [2]string{subj, obj} {
			if !strSet[s] {
				strSet[strings.Clone(s)] = true
			}
		}
	}
	for _, target := range d.alias {
		strSet[target] = true
	}
	c.strs = sortedBoolKeys(strSet)
	if uint64(len(c.strs))+uint64(len(d.alias)) >= 1<<31 {
		panic("kb: compile: more than 2^31 distinct canonical strings and aliases")
	}
	ids := make(map[string]uint32, len(c.strs))
	for i, s := range c.strs {
		ids[s] = uint32(i)
	}

	c.aliasSrc = slices.Sorted(maps.Keys(d.alias))
	c.aliasTo = make([]uint32, len(c.aliasSrc))
	for j, a := range c.aliasSrc {
		c.aliasTo[j] = ids[d.alias[a]]
	}
	c.index(d.alias)
	c.programs(d.entityTypes, typeIDs)
	c.relations(d.relations, ids, labelIDs)
	return c
}

// index builds the lookup index: every alias, and every canonical string
// that is not an alias source, in a table kept under two-thirds full.
func (c *Compiled) index(alias map[string]string) {
	n := len(c.strs) + len(c.aliasSrc)
	size := 1 << bits.Len(uint(n+n/2))
	c.lookup = make([]uint32, size)
	mask := uint64(size - 1)
	insert := func(k uint32) {
		s, _ := c.key(k)
		i := keyHash(s) & mask
		for c.lookup[i] != 0 {
			i = (i + 1) & mask
		}
		c.lookup[i] = k + 1
	}
	for j := range c.aliasSrc {
		insert(uint32(len(c.strs) + j))
	}
	for id, s := range c.strs {
		if _, shadowed := alias[s]; !shadowed {
			insert(uint32(id))
		}
	}
}

// programs flattens the per-value annotation work of AnnotateColumn once
// per entity, into one arena in canonical-string ID order.
func (c *Compiled) programs(entityTypes map[string][]string, typeIDs map[string]uint32) {
	n := 0
	for _, types := range entityTypes {
		for _, t := range types {
			n += 1 + len(c.ancs[typeIDs[t]])
		}
	}
	c.prog = make([]voteEntry, 0, n)
	c.progStart = make([]uint32, len(c.strs)+1)
	c.entity = make([]uint64, (len(c.strs)+63)/64)
	for id, s := range c.strs {
		types, ok := entityTypes[s]
		if ok {
			c.entity[id/64] |= 1 << (id % 64)
		}
		for _, t := range types {
			ti := typeIDs[t]
			c.prog = append(c.prog, voteEntry{typ: ti, w: 1})
			w := 1.0
			for _, anc := range c.ancs[ti] {
				w *= ancestorDecay
				c.prog = append(c.prog, voteEntry{typ: anc, w: w})
			}
		}
		c.progStart[id+1] = uint32(len(c.prog))
	}
}

// relations lays the relations out in CSR form over the stored (not
// re-resolved) canonical endpoints, mirroring the string map's keys.
func (c *Compiled) relations(relations map[string][]string, ids, labelIDs map[string]uint32) {
	type rel struct {
		subj, obj uint32
		labels    []string
	}
	rels := make([]rel, 0, len(relations))
	nlabels := 0
	for key, ls := range relations {
		subj, obj := splitRelationKey(key)
		rels = append(rels, rel{ids[subj], ids[obj], ls})
		nlabels += len(ls)
	}
	slices.SortFunc(rels, func(a, b rel) int {
		if a.subj != b.subj {
			return cmp.Compare(a.subj, b.subj)
		}
		return cmp.Compare(a.obj, b.obj)
	})
	c.relStart = make([]uint32, len(c.strs)+1)
	c.relObj = make([]uint32, len(rels))
	c.labelStart = make([]uint32, len(rels)+1)
	c.relLabels = make([]uint32, 0, nlabels)
	for r, rl := range rels {
		c.relStart[rl.subj+1]++
		c.relObj[r] = rl.obj
		for _, l := range rl.labels {
			c.relLabels = append(c.relLabels, labelIDs[l])
		}
		c.labelStart[r+1] = uint32(len(c.relLabels))
	}
	for i := range len(c.strs) {
		c.relStart[i+1] += c.relStart[i]
	}
}

func sortedBoolKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// key returns lookup key k's string and the canonical-string ID it
// resolves to.
func (c *Compiled) key(k uint32) (s string, id uint32) {
	if n := uint32(len(c.strs)); k >= n {
		return c.aliasSrc[k-n], c.aliasTo[k-n]
	}
	return c.strs[k], k
}

// keyHash is 64-bit FNV-1a over a lookup key, held as a string or as
// bytes, so both hash alike.
func keyHash[N ~string | ~[]byte](n N) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(n); i++ {
		h = (h ^ uint64(n[i])) * 1099511628211
	}
	return h ^ h>>32
}

// find resolves a normalized string as Canonical does, to a
// canonical-string ID: one alias hop, applied even to a string that is
// itself an entity, and alias chains deliberately NOT chased (a→b with
// b→c resolves a to b). ok is false when the KB mentions neither a
// canonical string nor an alias n. A byte key is compared in place, so a
// lookup allocates nothing.
func find[N ~string | ~[]byte](c *Compiled, n N) (id uint32, ok bool) {
	mask := uint64(len(c.lookup) - 1)
	for i := keyHash(n) & mask; ; i = (i + 1) & mask {
		k := c.lookup[i]
		if k == 0 {
			return 0, false
		}
		if s, id := c.key(k - 1); s == string(n) {
			return id, true
		}
	}
}

// resolve normalizes s and resolves one alias hop, as Canonical does, to
// a canonical-string ID; ok is false when the canonical string is not one
// the KB mentions.
func (c *Compiled) resolve(s string) (id uint32, ok bool) {
	return find(c, tokenize.Normalize(s))
}

// program returns a canonical-string ID's vote program: empty when the
// string is not an entity, or is one with no declared types.
func (c *Compiled) program(id uint32) []voteEntry {
	return c.prog[c.progStart[id]:c.progStart[id+1]]
}

// isEntity reports whether a canonical-string ID is an entity.
func (c *Compiled) isEntity(id uint32) bool { return c.entity[id/64]&(1<<(id%64)) != 0 }

// relation returns the label IDs of subject --> object, in insertion
// order; empty when there is none.
func (c *Compiled) relation(subj, obj uint32) []uint32 {
	lo, hi := c.relStart[subj], c.relStart[subj+1]
	if i, ok := slices.BinarySearch(c.relObj[lo:hi], obj); ok {
		r := lo + uint32(i)
		return c.relLabels[c.labelStart[r]:c.labelStart[r+1]]
	}
	return nil
}

// DeclaredTypeIDs appends to dst the type IDs KB.TypesOf names for s: the
// declared types of the entity s resolves to, in declaration order.
func (c *Compiled) DeclaredTypeIDs(s string, dst []uint32) []uint32 {
	if id, ok := c.resolve(s); ok {
		for _, e := range c.program(id) {
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
		prog := c.program(id)
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
		for _, lid := range c.relation(ia, ib) {
			vote(lid << 1)
		}
		for _, lid := range c.relation(ib, ia) {
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
