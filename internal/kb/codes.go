package kb

import (
	"math"

	"repro/internal/table"
	"repro/internal/tokenize"
)

// Annotation codes. A code is the result of canonicalizing one rendered
// cell value (tokenize.Normalize plus one alias hop) against a compiled KB:
//
//	CodeEmpty     — the canonical form is empty, or the cell is null:
//	                skipped by every annotation consumer;
//	codeBase + id — a canonical the KB mentions; id is its compiled
//	                canonical-string ID (deterministic);
//	CodeOutside   — any non-empty canonical the KB does not mention
//	                (Compiled.Code). It counts toward a column's total and
//	                never votes.
//
// Compiled.Code is a pure function of the rendering and the compiled KB,
// so nothing caches it. Its codes are identity-comparable only
// inside the KB: every outsider shares CodeOutside. A caller that compares
// values numbers the outsiders itself (Numbering).
const (
	CodeEmpty   uint32 = 1
	codeBase    uint32 = 2
	CodeOutside uint32 = math.MaxUint32
)

// Code returns the annotation code of a rendered value. An Int and a Float
// that render differently may code differently.
func (c *Compiled) Code(s string) uint32 { return codeOf(c, tokenize.Normalize(s)) }

// codeOf is Code over a normalized rendering, held as a string or as bytes;
// find compares a byte key in place, so it allocates nothing. A nil
// Compiled knows no canonical.
func codeOf[N ~string | ~[]byte](c *Compiled, n N) uint32 {
	if len(n) == 0 {
		return CodeEmpty
	}
	if c != nil {
		if id, ok := find(c, n); ok {
			return codeBase + id
		}
	}
	return CodeOutside
}

// Numbering is Compiled.Code with identity for outsiders: each distinct
// canonical outside the KB gets its own extended code, allocated in
// first-seen order from codeBase plus the compiled string count. Two values
// get equal codes exactly when their canonical forms are equal, so
// SameCode over a Numbering's codes is KB.SameEntity, and entity-resolution
// blocking works over plain integers. Extended code values depend on the
// order values are numbered: only their equality carries meaning.
//
// A nil Compiled is valid: every non-empty canonical is an outsider
// (canonical = normalized form, no aliases), the knowledge-free semantics
// of entity resolution. A Numbering has one owner and no lock; it is not
// safe for concurrent use.
type Numbering struct {
	ck   *Compiled // may be nil
	next uint32    // the next extended code
	ext  map[string]uint32
}

// NewNumbering returns an empty numbering over the compiled KB.
func NewNumbering(ck *Compiled) *Numbering {
	nb := &Numbering{ck: ck, next: codeBase, ext: make(map[string]uint32)}
	if ck != nil {
		nb.next += uint32(len(ck.strs))
	}
	return nb
}

// CodeNormalized returns the identity code of a normalized rendering (the
// output of tokenize.Normalize), allocating an extended code for a
// canonical outside the KB on first sight.
func (nb *Numbering) CodeNormalized(n string) uint32 {
	code := codeOf(nb.ck, n)
	if code != CodeOutside {
		return code
	}
	if code, ok := nb.ext[n]; ok {
		return code
	}
	if nb.next == CodeOutside {
		panic("kb: numbering full: more than ~4B distinct canonical values")
	}
	code = nb.next
	nb.next++
	nb.ext[n] = code
	return code
}

// SameCode reports whether two identity codes denote the same non-empty
// canonical entity — the compiled KB.SameEntity, over a Numbering's codes.
func SameCode(a, b uint32) bool { return a > CodeEmpty && a == b }

// ColumnCodes is the per-column output of Scratch.ColumnCodes.
type ColumnCodes struct {
	// Rows holds one code per table row (CodeEmpty for nulls); nil when the
	// column is not mostly-textual and carries no entity semantics.
	Rows []uint32
	// Distinct holds the codes of the column's distinct rendered values in
	// first-seen order — the exact value sequence KB.AnnotateColumn sees
	// when fed Table.DistinctStrings.
	Distinct []uint32
}

// ColumnCodes resolves one table column into annotation codes against the
// scratch's Compiled: row-aligned codes for pair annotation and
// distinct-value codes for column annotation. Columns that are not mostly
// textual (MostlyTextual) return a zero ColumnCodes. Distinct values are
// deduplicated by rendered string, exactly as DistinctStrings dedupes, so
// cross-kind rendering collisions ("82" the string vs 82 the int) collapse
// as the reference does. Each distinct rendering is coded once, as
// Compiled.Code does, normalized into the scratch's buffer so the lookup
// allocates nothing.
func (s *Scratch) ColumnCodes(t *table.Table, c int) ColumnCodes {
	if !MostlyTextual(t, c) {
		return ColumnCodes{}
	}
	out := ColumnCodes{Rows: make([]uint32, len(t.Rows))}
	clear(s.seen)
	for r, row := range t.Rows {
		v := row[c]
		if v.IsNull() {
			out.Rows[r] = CodeEmpty
			continue
		}
		str := v.String()
		code, dup := s.seen[str]
		if !dup {
			s.norm = tokenize.AppendNormalize(s.norm[:0], str)
			code = codeOf(s.ck, s.norm)
			s.seen[str] = code
			out.Distinct = append(out.Distinct, code)
		}
		out.Rows[r] = code
	}
	return out
}
