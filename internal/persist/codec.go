package persist

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"unsafe"

	"repro/internal/kb"
	"repro/internal/par"
	"repro/internal/table"
)

// The codec: little-endian fixed-width integers for structure (lengths,
// checksums, bit patterns) and uvarints for counts and IDs. Decoding is
// sticky-error — after the first failure every read returns zeros and the
// error survives — so decode paths read straight through and check once.

// enc is an append-only encode buffer.
type enc struct {
	b []byte
}

func (e *enc) u8(v byte)        { e.b = append(e.b, v) }
func (e *enc) u16(v uint16)     { e.b = binary.LittleEndian.AppendUint16(e.b, v) }
func (e *enc) u32(v uint32)     { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64)     { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) varint(v int64)   { e.b = binary.AppendVarint(e.b, v) }
func (e *enc) f64(v float64)    { e.u64(math.Float64bits(v)) }

// grow makes room for n more bytes in one allocation.
func (e *enc) grow(n int) {
	if cap(e.b)-len(e.b) < n {
		e.b = append(make([]byte, 0, len(e.b)+n), e.b...)
	}
}

func (e *enc) str(s string) {
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// dec is a sticky-error decode cursor over a byte slice.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("persist: decode: "+format, args...)
	}
}

// take returns the next n bytes, or nil after setting the sticky error.
func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b)-d.off {
		d.fail("truncated: need %d bytes at offset %d of %d", n, d.off, len(d.b))
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

func (d *dec) u8() byte {
	if p := d.take(1); p != nil {
		return p[0]
	}
	return 0
}

func (d *dec) u16() uint16 {
	if p := d.take(2); p != nil {
		return binary.LittleEndian.Uint16(p)
	}
	return 0
}

func (d *dec) u32() uint32 {
	if p := d.take(4); p != nil {
		return binary.LittleEndian.Uint32(p)
	}
	return 0
}

func (d *dec) u64() uint64 {
	if p := d.take(8); p != nil {
		return binary.LittleEndian.Uint64(p)
	}
	return 0
}

func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *dec) uvarint() uint64 {
	// One- to three-byte forms cover counts, kinds, token IDs and cell
	// indexes (a catalog's pool holds tens of thousands of entries);
	// inlining them keeps the per-cell decode loops out of binary.Uvarint's
	// generic path.
	if b := d.b; d.err == nil && d.off < len(b) {
		if c := b[d.off]; c < 0x80 {
			d.off++
			return uint64(c)
		} else if d.off+1 < len(b) && b[d.off+1] < 0x80 {
			v := uint64(c&0x7f) | uint64(b[d.off+1])<<7
			d.off += 2
			return v
		} else if d.off+2 < len(b) && b[d.off+2] < 0x80 {
			v := uint64(c&0x7f) | uint64(b[d.off+1]&0x7f)<<7 | uint64(b[d.off+2])<<14
			d.off += 3
			return v
		}
	}
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *dec) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("bad varint at offset %d", d.off)
		return 0
	}
	d.off += n
	return v
}

// count reads a uvarint element count and sanity-bounds it against the
// remaining input (each element needs at least min bytes), so corrupt
// counts fail decoding instead of driving a huge allocation.
func (d *dec) count(min int) int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if min < 1 {
		min = 1
	}
	if n > uint64(len(d.b)-d.off)/uint64(min)+1 {
		d.fail("implausible count %d at offset %d (%d bytes left)", n, d.off, len(d.b)-d.off)
		return 0
	}
	return int(n)
}

// str decodes a string WITHOUT copying: the result aliases the decode
// buffer. Decode inputs are private, immutable images (file reads hand out
// fresh buffers, see FS.ReadFile), so aliasing is safe and turns the ~10^5
// per-string copies of a large snapshot into one retained image.
func (d *dec) str() string {
	n := d.count(1)
	if p := d.take(n); len(p) > 0 {
		return unsafe.String(&p[0], len(p))
	}
	return ""
}

func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("persist: decode: %d trailing bytes", len(d.b)-d.off)
	}
	return nil
}

// --- Value codec -----------------------------------------------------------
//
// Cells round-trip exactly: kind plus the kind's own payload. This matters
// because the value dictionary Equal-collapses distinct spellings (Int 82
// and Float 82.0 share an ID, both null kinds share NullID) — an ID-based
// encoding would lose the spelling, and a recovered lake would render and
// integrate tables differently from a fresh build over the same CSVs.

func (e *enc) value(v table.Value) {
	e.u8(byte(v.Kind()))
	switch v.Kind() {
	case table.Null, table.PNull:
	case table.String:
		e.str(v.Str())
	case table.Int:
		e.varint(v.IntVal())
	case table.Float:
		e.f64(v.FloatVal())
	case table.Bool:
		if v.BoolVal() {
			e.u8(1)
		} else {
			e.u8(0)
		}
	}
}

func (d *dec) value() table.Value {
	switch k := table.Kind(d.u8()); k {
	case table.Null:
		return table.NullValue()
	case table.PNull:
		return table.ProducedNull()
	case table.String:
		return table.StringValue(d.str())
	case table.Int:
		return table.IntValue(d.varint())
	case table.Float:
		return table.FloatValue(d.f64())
	case table.Bool:
		return table.BoolValue(d.u8() != 0)
	default:
		d.fail("unknown value kind %d", k)
		return table.Value{}
	}
}

// --- Table codec -----------------------------------------------------------
//
// A table batch (the snapshot catalog, or one WAL Add record) encodes a
// batch-local exact-value pool followed by rows as pool indexes: open-data
// tables repeat cells heavily, and unlike dictionary IDs the pool preserves
// exact spellings (each kind and raw payload bits get their own entry, so
// NaN — which cannot key a map as a float — and 82 vs 82.0 stay distinct).
//
// Snapshots written before format 1.2's section 3 went empty carry the
// lake's value dictionary there, and their catalog encodes cells as
// indexes into a combined space: index i below the dictionary's length is
// dictionary ID i+1's value, and the pool's entries are numbered past it.
// The decoder still resolves that form; with an empty dictionary it is the
// self-contained one every batch is written in.

// cellPool numbers a batch's distinct exact cells in first-seen order and
// encodes each on first sight. Each kind keys its own map by its payload —
// strings by their text, Int and Float by their 64 payload bits — so a
// lookup hashes one string or one word, never a generic table.ExactKey
// struct, and Int 82 and Float 82.0, NaN payloads and ±0 keep distinct
// entries. Only the null kinds and bools key on ExactKey.
type cellPool struct {
	n      uint64 // entries so far
	vals   enc    // their encodings, in pool order
	strs   map[string]uint64
	ints   map[uint64]uint64
	floats map[uint64]uint64
	other  map[table.ExactKey]uint64
}

// index returns v's pool index, adding v on first sight.
func (p *cellPool) index(v table.Value) uint64 {
	switch v.Kind() {
	case table.String:
		return poolIndex(p, p.strs, v.Str(), v)
	case table.Int:
		return poolIndex(p, p.ints, uint64(v.IntVal()), v)
	case table.Float:
		return poolIndex(p, p.floats, math.Float64bits(v.FloatVal()), v)
	}
	return poolIndex(p, p.other, v.Exact(), v)
}

// poolIndex is one map operation on a hit and the insert on a miss.
func poolIndex[K comparable](p *cellPool, m map[K]uint64, k K, v table.Value) uint64 {
	i, ok := m[k]
	if !ok {
		i = p.n
		m[k] = i
		p.n++
		p.vals.value(v)
	}
	return i
}

// uvarintLen is the encoded length of enc.uvarint(v); strLen that of
// enc.str(s).
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }
func strLen(s string) int     { return uvarintLen(uint64(len(s))) + len(s) }

// tables encodes a table batch in two passes over the cells. The first
// builds the pool and records each cell's index, one map operation per
// cell, and sums the batch's encoded size; the buffer grows once to it. The
// second writes the pool ahead of the table bodies that reference it, each
// cell its recorded index.
func (e *enc) tables(ts []*table.Table) {
	p := cellPool{
		strs:   make(map[string]uint64),
		ints:   make(map[uint64]uint64),
		floats: make(map[uint64]uint64),
		other:  make(map[table.ExactKey]uint64),
	}
	ncells := 0
	for _, t := range ts {
		for _, row := range t.Rows {
			ncells += len(row)
		}
	}
	at := make([]uint64, 0, ncells)
	size := 0
	for _, t := range ts {
		size += 8 + strLen(t.Name) + uvarintLen(uint64(len(t.Columns))) + uvarintLen(uint64(len(t.Rows)))
		for _, c := range t.Columns {
			size += strLen(c)
		}
		for _, row := range t.Rows {
			if len(row) != len(t.Columns) {
				panic(fmt.Sprintf("persist: table %q: row width %d != %d columns", t.Name, len(row), len(t.Columns)))
			}
			for _, v := range row {
				i := p.index(v)
				at = append(at, i)
				size += uvarintLen(i)
			}
		}
	}
	size += uvarintLen(p.n) + len(p.vals.b) + uvarintLen(uint64(len(ts)))
	e.grow(size)

	e.uvarint(p.n)
	e.b = append(e.b, p.vals.b...)
	e.uvarint(uint64(len(ts)))
	for _, t := range ts {
		// Fixed-width byte-length prefix, patched once the body is encoded:
		// the decoder slices per-table extents up front and decodes the
		// bodies in parallel (the catalog is the largest snapshot section).
		lenAt := len(e.b)
		e.u64(0)
		e.str(t.Name)
		e.uvarint(uint64(len(t.Columns)))
		for _, c := range t.Columns {
			e.str(c)
		}
		e.uvarint(uint64(len(t.Rows)))
		n := len(t.Rows) * len(t.Columns)
		for _, i := range at[:n] {
			e.uvarint(i)
		}
		at = at[n:]
		binary.LittleEndian.PutUint64(e.b[lenAt:], uint64(len(e.b)-lenAt-8))
	}
}

func (d *dec) tables(dictVals []table.Value) []*table.Table {
	npool := d.count(1)
	var pool []table.Value
	if npool > 0 {
		pool = make([]table.Value, 0, npool)
	}
	for i := 0; i < npool && d.err == nil; i++ {
		pool = append(pool, d.value())
	}
	nt := d.count(2)
	// Slice out each table's framed body first, then decode the bodies in
	// parallel: tables only share the (read-only) legacy dictionary and pool,
	// and the catalog is the bulk of a snapshot.
	bodies := make([][]byte, 0, nt)
	for i := 0; i < nt && d.err == nil; i++ {
		blen := d.u64()
		bodies = append(bodies, d.take(int(blen)))
	}
	if d.err != nil {
		return nil
	}
	out := make([]*table.Table, len(bodies))
	errs := make([]error, len(bodies))
	par.For(len(bodies), func(i int) {
		td := &dec{b: bodies[i]}
		out[i] = td.tableBody(dictVals, pool)
		if td.err == nil && td.off != len(td.b) {
			td.fail("table %d: %d trailing bytes", i, len(td.b)-td.off)
		}
		errs[i] = td.err
	})
	for _, err := range errs {
		if err != nil && d.err == nil {
			d.err = err
		}
	}
	return out
}

// tableBody decodes one framed table. Cell indexes resolve against a
// legacy snapshot's value dictionary first, then the batch's pool (see the
// table codec for the combined index space).
func (d *dec) tableBody(dict, pool []table.Value) *table.Table {
	t := &table.Table{Name: d.str()}
	ncols := d.count(1)
	t.Columns = make([]string, ncols)
	for c := range t.Columns {
		t.Columns[c] = d.str()
	}
	nrows := d.count(1)
	// Every cell costs at least one encoded byte, so an arena bigger than
	// the remaining input is a fabricated size, not a real table — the
	// same over-allocation bound count() enforces per dimension.
	if d.err == nil && uint64(nrows)*uint64(ncols) > uint64(len(d.b)-d.off) {
		d.fail("table %q: %d x %d cells overrun the remaining %d bytes", t.Name, nrows, ncols, len(d.b)-d.off)
	}
	if d.err != nil {
		return t
	}
	nd := uint64(len(dict))
	// One allocation for all rows instead of one per row: cell copying out
	// of the pool is the decode hot loop.
	arena := make([]table.Value, nrows*ncols)
	t.Rows = make([][]table.Value, 0, nrows)
	for r := 0; r < nrows && d.err == nil; r++ {
		row := arena[r*ncols : (r+1)*ncols : (r+1)*ncols]
		for c := range row {
			pi := d.uvarint()
			switch {
			case pi < nd:
				row[c] = dict[pi]
			case pi-nd < uint64(len(pool)):
				row[c] = pool[pi-nd]
			case d.err == nil:
				d.fail("table %q: cell index %d out of %d dictionary + %d pool values", t.Name, pi, nd, len(pool))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// --- KB codec --------------------------------------------------------------

func (e *enc) kbDump(k kb.Dump) {
	e.uvarint(uint64(len(k.Types)))
	for _, t := range k.Types {
		e.str(t.Type)
		e.str(t.Parent)
	}
	e.uvarint(uint64(len(k.Entities)))
	for _, en := range k.Entities {
		e.str(en.Entity)
		e.uvarint(uint64(len(en.Types)))
		for _, t := range en.Types {
			e.str(t)
		}
	}
	e.uvarint(uint64(len(k.Aliases)))
	for _, a := range k.Aliases {
		e.str(a.Alias)
		e.str(a.Canonical)
	}
	e.uvarint(uint64(len(k.Relations)))
	for _, r := range k.Relations {
		e.str(r.Subject)
		e.str(r.Object)
		e.uvarint(uint64(len(r.Labels)))
		for _, l := range r.Labels {
			e.str(l)
		}
	}
}

func (d *dec) kbDump() kb.Dump {
	var k kb.Dump
	for i, n := 0, d.count(2); i < n && d.err == nil; i++ {
		k.Types = append(k.Types, kb.TypeDecl{Type: d.str(), Parent: d.str()})
	}
	for i, n := 0, d.count(2); i < n && d.err == nil; i++ {
		en := kb.EntityDecl{Entity: d.str()}
		for j, m := 0, d.count(1); j < m && d.err == nil; j++ {
			en.Types = append(en.Types, d.str())
		}
		k.Entities = append(k.Entities, en)
	}
	for i, n := 0, d.count(2); i < n && d.err == nil; i++ {
		k.Aliases = append(k.Aliases, kb.AliasDecl{Alias: d.str(), Canonical: d.str()})
	}
	for i, n := 0, d.count(3); i < n && d.err == nil; i++ {
		r := kb.RelationDecl{Subject: d.str(), Object: d.str()}
		for j, m := 0, d.count(1); j < m && d.err == nil; j++ {
			r.Labels = append(r.Labels, d.str())
		}
		k.Relations = append(k.Relations, r)
	}
	return k
}
