package kb

import (
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

// scopeBand partitions the extended-ID space between shared annotators and
// request-scoped ER annotators (ERScope): shared (root) annotators allocate
// bottom-up below scopeBandStart, ER scopes allocate top-down from the top
// of the uint32 range, so a numeric code can never denote one canonical in
// the root and a different one in a scope — the collision-freedom that lets
// a scope mix borrowed root codes with its own allocations and still compare
// every pair of codes for entity identity. Both sides panic rather than
// cross the boundary (mirroring the dictionaries' ID-space guards).
const (
	scopeBand      = 1 << 30
	scopeBandStart = (1 << 32) - scopeBand
)

// Annotator is a canonicalization cache over a compiled KB: each distinct
// value is normalized and alias-resolved once, then every later annotation
// (SANTOS column/pair votes, ER blocking and similarity) is an integer
// lookup. A lake owns one dict-backed annotator — codes are cached per
// interned value ID, so canonicalization happens once per distinct lake
// value across all index builds and queries; detached annotators (nil dict)
// cache per rendered string, which is what entity resolution over arbitrary
// integrated tables uses.
//
// An Annotator is safe for concurrent use. A nil-Compiled annotator is
// valid: every non-empty canonical receives an extended ID (canonical =
// normalized form, no aliases), which is exactly the nil-knowledge
// semantics of ER blocking.
type Annotator struct {
	ck   *Compiled   // may be nil
	dict *table.Dict // may be nil

	// parent, when set, marks this annotator as a transient query scope of
	// a shared (lake-wide) annotator: interned String values resolve
	// through (and populate) the parent's bounded per-value-ID cache, while
	// foreign strings are cached only in this scope's maps, which die with
	// it. See QueryScope.
	parent *Annotator

	// erScope, when set (parent is then the shared root), makes this
	// annotator a request-scoped entity-resolution cache: nothing is ever
	// written into the root, extended IDs allocate top-down from the top of
	// the uint32 range (nextDown), and canonical lookup is scope-first then
	// root, so codes are identity-comparable within the scope. See ERScope.
	erScope  bool
	nextDown uint32
	// rootByVal is an ER scope's read-only snapshot of the root's per-value-ID
	// code cache, taken once at ERScope() creation: lake-interned String
	// values whose codes the root had already computed resolve by one array
	// load, with no rendering, normalization or map traffic. Immutable after
	// creation, so it needs no locking and keeps scope answers independent of
	// concurrent root growth. Reusing these codes verbatim is sound because
	// computeCode publishes root.ext[n] before codeForInterned writes byVal
	// and root.ext is append-only — any rendering of the same canonical that
	// reaches the scope's slow path borrows the identical code from the root.
	rootByVal []uint32

	mu    sync.RWMutex
	byVal []uint32          // per dict value ID (index id-1): cached code
	raw   map[string]uint32 // rendered string -> cached code (non-dict path)
	ext   map[string]uint32 // canonical string -> extended code
}

// NewAnnotator returns an annotation cache over the compiled KB (nil means
// no knowledge: canonical forms are plain normalizations). When dict is
// non-nil, values interned in it are cached by integer ID.
func NewAnnotator(ck *Compiled, dict *table.Dict) *Annotator {
	a := &Annotator{
		ck:   ck,
		dict: dict,
		raw:  make(map[string]uint32),
		ext:  make(map[string]uint32),
	}
	if dict != nil {
		a.byVal = make([]uint32, dict.Len())
	}
	return a
}

// Compiled returns the compiled KB the annotator resolves against (nil for
// a knowledge-free annotator).
func (a *Annotator) Compiled() *Compiled { return a.ck }

// QueryScope returns a transient annotator for resolving one foreign
// query's values: lake values (String cells interned in the shared dict)
// still resolve through the shared bounded cache, but every other string is
// cached only in the scope, so high-cardinality query traffic cannot grow
// the shared annotator's memory. Extended IDs assigned inside a scope are
// consistent within it but may numerically collide with the parent's
// extended IDs for different canonicals — callers must not compare codes
// across annotators (SANTOS annotation never does: extended codes only
// gate on CodeEmpty and never vote). Use the shared annotator itself, or a
// fresh NewAnnotator, where cross-value identity must span calls (ER).
func (a *Annotator) QueryScope() *Annotator {
	root := a
	if a.parent != nil {
		root = a.parent
	}
	return &Annotator{
		ck:     root.ck,
		dict:   root.dict,
		parent: root,
		raw:    make(map[string]uint32),
		ext:    make(map[string]uint32),
	}
}

// ERScope returns a request-scoped entity-resolution annotator over the
// same compiled KB: every cell of one request's tables resolves to a code
// through the scope, all codes are identity-comparable with each other (the
// er package's requirement — blocking and the SameCode similarity shortcut
// are integer comparisons), and the whole cache dies with the scope, so
// resolving many unrelated user tables through one long-lived pipeline no
// longer grows the shared annotator at all.
//
// Collision-free allocation against the shared namespace: codes borrowed
// from the compiled KB or the root's extended table are reused as-is, while
// canonicals unknown to both allocate top-down from the top of the uint32
// range (the band shared annotators never enter — see scopeBand), so a
// scope code and a root code are numerically equal only when they denote
// the same canonical. Lookup is scope-first, then compiled, then a one-time
// root borrow (root-first among the shared tiers): once the scope has
// answered a canonical it keeps answering it identically, even if the root
// learns the same canonical mid-request on behalf of other traffic — ER's
// intra-request code identity never depends on concurrent root growth.
//
// Unlike QueryScope, an ERScope never writes to the root (not even for lake
// values — a first-touch lake value would otherwise have to publish a code
// the scope might already have allocated differently); each distinct
// rendered value is normalized at most once per scope. Lake values the root
// has already canonicalized cost even less: the scope snapshots the root's
// per-value-ID cache at creation and serves those codes by array load (see
// rootByVal). Use it for request-bounded entity resolution; use QueryScope
// for SANTOS-style annotation where only CodeEmpty gating matters.
func (a *Annotator) ERScope() *Annotator {
	root := a
	if a.parent != nil {
		root = a.parent
	}
	s := &Annotator{
		ck:       root.ck,
		dict:     root.dict,
		parent:   root,
		erScope:  true,
		nextDown: 1<<32 - 1,
		raw:      make(map[string]uint32),
		ext:      make(map[string]uint32),
	}
	if root.dict != nil {
		root.mu.RLock()
		s.rootByVal = append([]uint32(nil), root.byVal...)
		root.mu.RUnlock()
	}
	return s
}

// scopeCode resolves a rendered value inside an ER scope. The raw-string
// cache short-circuits repeats; misses normalize once and walk the
// scope-first canonical chain under the scope lock.
func (a *Annotator) scopeCode(s string) uint32 {
	a.mu.RLock()
	c := a.raw[s]
	a.mu.RUnlock()
	if c != codeUnset {
		return c
	}
	n := tokenize.Normalize(s)
	if n == "" {
		a.mu.Lock()
		a.raw[s] = CodeEmpty
		a.mu.Unlock()
		return CodeEmpty
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	c, ok := a.ext[n]
	if !ok {
		c = a.scopeCanonicalLocked(n)
		a.ext[n] = c
	}
	a.raw[s] = c
	return c
}

// scopeCanonicalLocked resolves a canonical the scope has not seen yet:
// compiled ID, then a root borrow, then a fresh top-down allocation. The
// scope lock must be held.
func (a *Annotator) scopeCanonicalLocked(n string) uint32 {
	if a.ck != nil {
		if id, ok := a.ck.lookup[n]; ok {
			return codeBase + id
		}
	}
	if root := a.parent; root != nil {
		root.mu.RLock()
		rc, ok := root.ext[n]
		root.mu.RUnlock()
		if ok {
			return rc
		}
	}
	c := a.nextDown
	if c < scopeBandStart {
		panic("kb: ER scope full: more than ~1B distinct canonical values in one request")
	}
	a.nextDown--
	return c
}

// numStrings returns the size of the compiled ID space (0 when knowledge-free).
func (a *Annotator) numStrings() uint32 {
	if a.ck == nil {
		return 0
	}
	return uint32(len(a.ck.strs))
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
	a.mu.Lock()
	defer a.mu.Unlock()
	if code, ok := a.ext[n]; ok {
		return code
	}
	next := uint64(codeBase) + uint64(a.numStrings()) + uint64(len(a.ext))
	if next >= scopeBandStart {
		panic("kb: annotator full: more than ~3B distinct canonical values (top band reserved for ER scopes)")
	}
	code := uint32(next)
	a.ext[n] = code
	return code
}

// codeAndID resolves a non-null value to its code; when the value is a
// String cell interned in the annotator's dict, its value ID is returned
// with interned=true (the caller can then dedupe by integer ID).
//
// The per-value-ID cache is valid only for String values: two String cells
// share an ID exactly when their renderings are equal, so one cached code
// serves both. Numeric kinds are excluded — the dict deliberately collides
// an Int with a numerically-equal integral Float (Value.Key semantics)
// even though their renderings, and therefore canonical forms, can differ
// (Int 10^15 renders "1000000000000000", Float 1e15 renders "1e+15") — so
// they resolve through the rendering-keyed cache instead.
func (a *Annotator) codeAndID(v table.Value) (code, id uint32, interned bool) {
	if a.erScope {
		if a.dict != nil && v.Kind() == table.String {
			if id, ok := a.dict.Lookup(v); ok && id != table.NullID && int(id) <= len(a.rootByVal) {
				if c := a.rootByVal[id-1]; c != codeUnset {
					return c, id, true
				}
			}
		}
		return a.scopeCode(v.String()), 0, false
	}
	if a.dict != nil && v.Kind() == table.String {
		if id, ok := a.dict.Lookup(v); ok && id != table.NullID {
			root := a
			if a.parent != nil {
				root = a.parent
			}
			return root.codeForInterned(v, id), id, true
		}
	}
	s := v.String()
	a.mu.RLock()
	c := a.raw[s]
	a.mu.RUnlock()
	if c != codeUnset {
		return c, 0, false
	}
	c = a.computeCode(s)
	a.mu.Lock()
	a.raw[s] = c
	a.mu.Unlock()
	return c, 0, false
}

// codeForInterned returns the cached code of an interned String value,
// computing and caching it on first sight.
func (a *Annotator) codeForInterned(v table.Value, id uint32) uint32 {
	a.mu.RLock()
	var c uint32
	if int(id) <= len(a.byVal) {
		c = a.byVal[id-1]
	}
	a.mu.RUnlock()
	if c != codeUnset {
		return c
	}
	c = a.computeCode(v.Str())
	a.mu.Lock()
	if int(id) > len(a.byVal) {
		n := a.dict.Len()
		if int(id) > n {
			n = int(id)
		}
		grown := make([]uint32, n)
		copy(grown, a.byVal)
		a.byVal = grown
	}
	a.byVal[id-1] = c
	a.mu.Unlock()
	return c
}

// Code returns the annotation code of a value (CodeEmpty for nulls).
func (a *Annotator) Code(v table.Value) uint32 {
	if v.IsNull() {
		return CodeEmpty
	}
	c, _, _ := a.codeAndID(v)
	return c
}

// CodeString returns the annotation code of a raw string value.
func (a *Annotator) CodeString(s string) uint32 {
	if a.erScope {
		return a.scopeCode(s)
	}
	a.mu.RLock()
	c := a.raw[s]
	a.mu.RUnlock()
	if c != codeUnset {
		return c
	}
	c = a.computeCode(s)
	a.mu.Lock()
	a.raw[s] = c
	a.mu.Unlock()
	return c
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
// as DistinctStrings dedupes: for all-string columns interned in the
// annotator's dict this is an integer-ID dedupe (equal String cells always
// share a value ID); mixed-kind columns and un-interned values fall back to
// a string set, so cross-kind rendering collisions ("82" the string vs 82
// the int) still collapse as the reference does.
func (a *Annotator) ColumnCodes(t *table.Table, c int, s *Scratch) ColumnCodes {
	nonNull, text := 0, 0
	for _, row := range t.Rows {
		v := row[c]
		if v.IsNull() {
			continue
		}
		nonNull++
		if v.Kind() == table.String {
			text++
		}
	}
	if nonNull == 0 || text*2 < nonNull {
		return ColumnCodes{}
	}
	allString := text == nonNull
	out := ColumnCodes{Rows: make([]uint32, len(t.Rows))}
	ep := bumpEpoch(&s.valSeenEpoch, s.seenVal)
	clear(s.seenStr)
	for r, row := range t.Rows {
		v := row[c]
		if v.IsNull() {
			out.Rows[r] = CodeEmpty
			continue
		}
		code, id, interned := a.codeAndID(v)
		out.Rows[r] = code
		if allString && interned {
			if int(id) > len(s.seenVal) {
				grown := make([]uint32, int(id)+int(id)/2)
				copy(grown, s.seenVal)
				s.seenVal = grown
			}
			if s.seenVal[id-1] == ep {
				continue
			}
			s.seenVal[id-1] = ep
		} else {
			str := v.String()
			if _, dup := s.seenStr[str]; dup {
				continue
			}
			s.seenStr[str] = struct{}{}
		}
		out.Distinct = append(out.Distinct, code)
	}
	return out
}
