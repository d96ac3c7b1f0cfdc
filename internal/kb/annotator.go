package kb

import (
	"math"
	"sync"

	"repro/internal/table"
	"repro/internal/tokenize"
)

// Annotation codes. A code is the cached result of canonicalizing one cell
// value against a compiled KB:
//
//	codeUnset       — cache slot not computed yet (never returned);
//	CodeEmpty       — the value's canonical form is empty (or the cell is
//	                  null): skipped by every annotation consumer;
//	codeBase + id   — the canonical form's identity. An id below the
//	                  compiled string count is a compiled canonical-string
//	                  ID (deterministic); ids at or beyond it are extended
//	                  IDs the annotator assigns to canonicals outside the
//	                  KB, so entity-resolution blocking and SameEntity work
//	                  over plain integer equality for every value.
//
// Two values receive the same code exactly when their canonical forms
// (tokenize.Normalize plus one alias hop) are equal. Extended ID values are
// assignment-order-dependent; nothing may depend on code order, only code
// equality — the compiled annotation engine votes only with compiled IDs.
const (
	codeUnset uint32 = 0
	CodeEmpty uint32 = 1
	codeBase  uint32 = 2
)

// Annotator is a canonicalization cache over a compiled KB, keyed by the
// rendered value: each distinct rendering is normalized and alias-resolved
// once, then every later annotation (SANTOS column/pair votes, ER blocking
// and similarity) is an integer lookup. A code is a function of the
// rendering alone, so an Int and a Float that render differently never
// share a cache slot.
//
// Each SANTOS index owns one root annotator and resolves query tables
// through a QueryScope of it; entity resolution builds a fresh annotator
// per call.
//
// An Annotator is safe for concurrent use. A nil-Compiled annotator is
// valid: every non-empty canonical receives an extended ID (canonical =
// normalized form, no aliases), which is exactly the nil-knowledge
// semantics of ER blocking.
type Annotator struct {
	ck *Compiled // may be nil

	// parent, when set, is the root this query scope reads through. A scope
	// only ever takes the parent's read lock: it never writes the parent.
	parent *Annotator
	// firstExt is the first extended code this annotator allocates: just
	// past the compiled IDs for a root, just past the root's extended codes
	// at scope creation for a scope. A scope borrows only root codes below
	// its own firstExt, so the codes it answers with denote one canonical
	// each however far the root grows while the scope lives.
	firstExt uint64

	mu  sync.RWMutex
	raw map[string]uint32 // rendered string -> cached code
	ext map[string]uint32 // canonical string -> extended code this annotator allocated
}

// NewAnnotator returns an annotation cache over the compiled KB (nil means
// no knowledge: canonical forms are plain normalizations).
func NewAnnotator(ck *Compiled) *Annotator {
	a := &Annotator{
		ck:       ck,
		firstExt: uint64(codeBase),
		raw:      make(map[string]uint32),
		ext:      make(map[string]uint32),
	}
	if ck != nil {
		a.firstExt += uint64(len(ck.strs))
	}
	return a
}

// Compiled returns the compiled KB the annotator resolves against (nil for
// a knowledge-free annotator).
func (a *Annotator) Compiled() *Compiled { return a.ck }

// Size reports how many renderings and extended canonicals the annotator
// itself caches (a scope's borrowed root codes are not counted).
func (a *Annotator) Size() (raw, ext int) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.raw), len(a.ext)
}

// QueryScope returns a transient annotator for resolving one foreign
// query's values: renderings the root has cached resolve to the root's
// codes, and everything else is cached only in the scope, which dies with
// it — so query traffic never grows the root's memory. Codes stay
// identity-comparable within the scope (SameCode agrees with SameEntity
// pairwise). A scope of a scope re-roots at the root.
func (a *Annotator) QueryScope() *Annotator {
	root := a
	if a.parent != nil {
		root = a.parent
	}
	root.mu.RLock()
	defer root.mu.RUnlock()
	return &Annotator{
		ck:       root.ck,
		parent:   root,
		firstExt: root.firstExt + uint64(len(root.ext)),
		raw:      make(map[string]uint32),
		ext:      make(map[string]uint32),
	}
}

// borrow returns the root's code for a rendering (byRaw) or a canonical,
// when the root holds one older than the scope; codeUnset otherwise.
func (a *Annotator) borrow(key string, byRaw bool) uint32 {
	p := a.parent
	if p == nil {
		return codeUnset
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	m := p.ext
	if byRaw {
		m = p.raw
	}
	if c := m[key]; uint64(c) < a.firstExt {
		return c
	}
	return codeUnset
}

// computeCode canonicalizes a rendered value and returns its code,
// assigning an extended ID when the canonical form is outside the KB.
func (a *Annotator) computeCode(s string) uint32 {
	n := tokenize.Normalize(s)
	if n == "" {
		return CodeEmpty
	}
	if a.ck != nil {
		if id, ok := a.ck.lookup[n]; ok {
			return codeBase + id
		}
	}
	if c := a.borrow(n, false); c != codeUnset {
		return c
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if code, ok := a.ext[n]; ok {
		return code
	}
	next := a.firstExt + uint64(len(a.ext))
	if next > math.MaxUint32 {
		panic("kb: annotator full: more than ~4B distinct canonical values")
	}
	a.ext[n] = uint32(next)
	return uint32(next)
}

// Code returns the annotation code of a value (CodeEmpty for nulls): the
// code of its rendering.
func (a *Annotator) Code(v table.Value) uint32 {
	if v.IsNull() {
		return CodeEmpty
	}
	return a.CodeString(v.String())
}

// CodeString returns the annotation code of a rendered value: the
// annotator's own cache first, then (in a scope) the root's, and otherwise
// a fresh canonicalization cached in this annotator.
func (a *Annotator) CodeString(s string) uint32 {
	a.mu.RLock()
	c := a.raw[s]
	a.mu.RUnlock()
	if c != codeUnset {
		return c
	}
	if c = a.borrow(s, true); c != codeUnset {
		return c
	}
	c = a.computeCode(s)
	a.mu.Lock()
	a.raw[s] = c
	a.mu.Unlock()
	return c
}

// CodeUncached returns the annotation code of a rendered value, as
// CodeString does, without entering the rendering in the annotator's
// rendering cache: for a caller that keeps one entry per distinct value
// itself (entity resolution's value table), where that cache would only
// repeat its own dedup.
func (a *Annotator) CodeUncached(s string) uint32 {
	if c := a.borrow(s, true); c != codeUnset {
		return c
	}
	return a.computeCode(s)
}

// CodeStrings resolves raw strings into dst (grown as needed) and returns
// it.
func (a *Annotator) CodeStrings(vals []string, dst []uint32) []uint32 {
	if cap(dst) < len(vals) {
		dst = make([]uint32, len(vals))
	}
	dst = dst[:len(vals)]
	for i, s := range vals {
		dst[i] = a.CodeString(s)
	}
	return dst
}

// SameCode reports whether two annotation codes denote the same non-empty
// canonical entity — the compiled KB.SameEntity.
func SameCode(a, b uint32) bool { return a > CodeEmpty && a == b }

// ColumnCodes is the per-column output of Annotator.ColumnCodes.
type ColumnCodes struct {
	// Rows holds one code per table row (CodeEmpty for nulls); nil when the
	// column is not mostly-textual and carries no entity semantics.
	Rows []uint32
	// Distinct holds the codes of the column's distinct rendered values in
	// first-seen order — the exact value sequence KB.AnnotateColumn sees
	// when fed Table.DistinctStrings.
	Distinct []uint32
}

// ColumnCodes resolves one table column into annotation codes: row-aligned
// codes for pair annotation and distinct-value codes for column annotation.
// Columns that are not mostly textual (MostlyTextual) return a zero
// ColumnCodes. Distinct values are deduplicated by rendered string, exactly
// as DistinctStrings dedupes, so cross-kind rendering collisions ("82" the
// string vs 82 the int) collapse as the reference does.
func (a *Annotator) ColumnCodes(t *table.Table, c int, s *Scratch) ColumnCodes {
	if !MostlyTextual(t, c) {
		return ColumnCodes{}
	}
	out := ColumnCodes{Rows: make([]uint32, len(t.Rows))}
	clear(s.seenStr)
	for r, row := range t.Rows {
		v := row[c]
		if v.IsNull() {
			out.Rows[r] = CodeEmpty
			continue
		}
		str := v.String()
		code := a.CodeString(str)
		out.Rows[r] = code
		if _, dup := s.seenStr[str]; dup {
			continue
		}
		s.seenStr[str] = struct{}{}
		out.Distinct = append(out.Distinct, code)
	}
	return out
}
