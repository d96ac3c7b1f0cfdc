package table

import "sync"

// NullID is the reserved dictionary ID of nulls. Both null kinds share it,
// mirroring Value.Key: nulls are indistinguishable to join and subsumption
// semantics, which is exactly the identity the dictionary encodes.
const NullID uint32 = 0

// Dict interns cell values into dense uint32 IDs. Two values receive the
// same ID exactly when they are Equal (their Key strings collide), so the
// performance-critical layers — the FD complementation closure above all —
// can replace string-keyed hashing and Value.Equal comparisons with integer
// identity. A Dict is safe for concurrent use; the FD closure interns each
// integration into a private one by default.
//
// The table is split by kind (strings, integers, non-integral floats,
// booleans) rather than keyed by Value.Key, so interning allocates nothing:
// no key string is ever built. Integral floats land in the integer map,
// preserving Key's Int/Float collision ("82" joins "82.0").
//
// IDs are dense: non-null values receive 1, 2, 3, ... in interning order,
// which keeps derived structures (bucket keys, ID-slice hashes) compact.
// The assignment order — and therefore the concrete IDs — is not
// deterministic under concurrent interning; nothing may depend on ID order,
// only on ID equality.
//
// IDs are uint32 with 0 reserved for nulls, so a Dict holds at most
// 2^32-1 distinct non-null values (~4.3B). Interning past that limit
// panics rather than silently recycling IDs; open-data corpora that large
// need a wider ID type first.
type Dict struct {
	mu     sync.RWMutex
	strs   map[string]uint32
	ints   map[int64]uint32
	floats map[float64]uint32
	bools  [2]uint32 // [false, true]; 0 = unassigned
	nan    uint32    // NaN cannot key a map (NaN != NaN); 0 = unassigned
	vals   []Value   // vals[id-1] is the first value interned under the ID
}

// NewDict returns an empty dictionary.
func NewDict() *Dict {
	return &Dict{
		strs:   make(map[string]uint32),
		ints:   make(map[int64]uint32),
		floats: make(map[float64]uint32),
	}
}

// lookupLocked finds v's ID under either lock; 0 means not interned yet
// (NullID is handled by the callers).
func (d *Dict) lookupLocked(v Value) uint32 {
	switch v.kind {
	case String:
		return d.strs[v.s]
	case Int:
		return d.ints[v.int()]
	case Float:
		f := v.float()
		if integral(f) {
			return d.ints[int64(f)]
		}
		if f != f {
			return d.nan
		}
		return d.floats[f]
	case Bool:
		return d.bools[v.n]
	default:
		return 0
	}
}

// idCapacityExceeded reports whether a dictionary already holding n values
// has exhausted the uint32 ID space (0 is reserved, so the last usable ID
// is MaxUint32 and the dictionary is full once n values are interned with
// n+1 > MaxUint32).
func idCapacityExceeded(n int) bool {
	return uint64(n) >= 1<<32-1
}

// assignLocked registers v under a fresh ID; the write lock must be held.
func (d *Dict) assignLocked(v Value) uint32 {
	if idCapacityExceeded(len(d.vals)) {
		panic("table: Dict full: more than ~4B distinct values (uint32 ID space exhausted)")
	}
	d.vals = append(d.vals, v)
	id := uint32(len(d.vals))
	switch v.kind {
	case String:
		d.strs[v.s] = id
	case Int:
		d.ints[v.int()] = id
	case Float:
		switch f := v.float(); {
		case integral(f):
			d.ints[int64(f)] = id
		case f != f:
			d.nan = id
		default:
			d.floats[f] = id
		}
	case Bool:
		d.bools[v.n] = id
	}
	return id
}

// Intern returns the ID of v, assigning a fresh one on first sight. Nulls
// of either kind intern to NullID.
func (d *Dict) Intern(v Value) uint32 {
	if v.IsNull() {
		return NullID
	}
	d.mu.RLock()
	id := d.lookupLocked(v)
	d.mu.RUnlock()
	if id != 0 {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id := d.lookupLocked(v); id != 0 {
		return id
	}
	return d.assignLocked(v)
}

// InternRow interns every cell of row into dst, which is grown as needed
// and returned. It is the bulk path fd.RemoveSubsumed uses: the read lock is
// taken once per row, and the write lock only when the row carries values
// never seen before.
func (d *Dict) InternRow(row []Value, dst []uint32) []uint32 {
	if cap(dst) < len(row) {
		dst = make([]uint32, len(row))
	}
	dst = dst[:len(row)]
	misses := 0
	d.mu.RLock()
	for i, v := range row {
		if v.IsNull() {
			dst[i] = NullID
			continue
		}
		if dst[i] = d.lookupLocked(v); dst[i] == 0 {
			misses++
		}
	}
	d.mu.RUnlock()
	if misses == 0 {
		return dst
	}
	d.mu.Lock()
	for i, v := range row {
		if dst[i] == 0 && !v.IsNull() {
			if dst[i] = d.lookupLocked(v); dst[i] == 0 {
				dst[i] = d.assignLocked(v)
			}
		}
	}
	d.mu.Unlock()
	return dst
}

// Value returns a representative value for id — the first value interned
// under it — and whether the ID is known. NullID reports a missing null.
func (d *Dict) Value(id uint32) (Value, bool) {
	if id == NullID {
		return NullValue(), true
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if int(id) > len(d.vals) {
		return Value{}, false
	}
	return d.vals[id-1], true
}

// Len reports how many distinct non-null values have been interned.
func (d *Dict) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.vals)
}
