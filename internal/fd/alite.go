package fd

import (
	"context"
	"slices"

	"repro/internal/table"
)

// ALITECtx computes the Full Disjunction of the input by complementation
// closure, the algorithm of the ALITE paper:
//
//  1. Deduplicate the outer-union tuples (set semantics).
//  2. Repeatedly merge complementable tuple pairs — candidate pairs are
//     generated from a (position, value) inverted index, so only tuples
//     that actually share a joinable value are ever compared — until no
//     merge produces a tuple with new values.
//  3. Remove subsumed tuples, leaving the maximal ones.
//
// The result is sorted canonically and is deterministic.
//
// Internally the closure runs on interned value IDs (table.Dict): bucket
// keys are pos<<32|id integers, tuple dedup hashes ID slices, and value
// comparisons are integer equality. in.Dict supplies a shared
// dictionary; nil interns privately.
//
// The closure is cooperatively cancellable: it checks ctx between
// candidate-generation rounds (and, amortized, inside long candidate
// scans), returning (nil, ctx.Err()) once the context is cancelled instead
// of running the closure to fixpoint. An uncancelled call's output does not
// depend on ctx — the checkpoints only observe the context, never the
// closure state.
func ALITECtx(ctx context.Context, in Input) ([]Tuple, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c := newCloser(in.Dict, in.Tuples)
	if err := c.run(ctx, c.seed(in.Tuples)); err != nil {
		return nil, err
	}
	return c.finalize(), nil
}

// finalize applies subsumption removal and canonical ordering.
func finalize(tuples []Tuple) []Tuple {
	out := RemoveSubsumed(tuples)
	sortTuples(out)
	return out
}

// ctuple is a closure-internal tuple: the aligned values, their interned
// IDs (NullID for nulls of either kind), and provenance as sorted interned
// IDs into closer.provs.
type ctuple struct {
	vals []table.Value
	ids  []uint32
	prov []int32
}

// closer holds the closure state shared by ALITECtx and Incremental. All
// hot-path identity work happens on integers: values are interned once per
// tuple on entry, and every subsequent lookup, merge and dedup runs on IDs.
type closer struct {
	dict *table.Dict

	// Provenance interning: prov strings are interned to dense int32 IDs so
	// provenance sets merge as linear sorted-int merges. IDs are assigned in
	// first-seen order (sequential), so sorted-by-ID is a deterministic but
	// non-lexicographic order; conversion back to strings re-sorts.
	provIDs map[string]int32
	provs   []string

	tuples []ctuple
	// byHash indexes tuples by an FNV-1a hash of their ID slice: it holds
	// the last tuple added under a hash, and hashNext[idx] the one added
	// before idx under the same hash (-1 ends the chain). Collisions are
	// resolved by comparing ID slices, so dedup is exact.
	byHash   map[uint64]int32
	hashNext []int32
	// buckets is the (position, value) inverted index: pos<<32|id -> the
	// first and last entry of a chain through entries, in insertion order.
	// No bucket owns a slice: every entry lives in the one entries array.
	buckets map[uint64]chain
	entries []entry

	// vs is the candidate scratch reused across worklist items.
	vs visitScratch
	// idChunk is the unused rest of the chunk idSlice cuts from.
	idChunk []uint32
}

// chain is one inverted-index bucket: the indices into closer.entries of
// its first and last entry.
type chain struct{ head, tail int32 }

// entry is one bucket member: a tuple index and the next entry of the same
// bucket (-1 ends the chain).
type entry struct{ tuple, next int32 }

// newCloser returns an empty closer interning into dict (nil: a private
// dictionary), its maps and slices sized for the tuples it will be seeded
// with.
func newCloser(dict *table.Dict, seed []Tuple) *closer {
	if dict == nil {
		dict = table.NewDict()
	}
	cells := 0
	for _, t := range seed {
		for _, v := range t.Values {
			if !v.IsNull() {
				cells++
			}
		}
	}
	return &closer{
		dict:     dict,
		provIDs:  make(map[string]int32, len(seed)),
		tuples:   make([]ctuple, 0, len(seed)),
		byHash:   make(map[uint64]int32, len(seed)),
		hashNext: make([]int32, 0, len(seed)),
		buckets:  make(map[uint64]chain, cells),
		entries:  make([]entry, 0, cells),
	}
}

// first returns the first entry of the (pos, id) bucket, or -1 when no
// tuple holds id at pos.
func (c *closer) first(pos int, id uint32) int32 {
	if ch, ok := c.buckets[uint64(pos)<<32|uint64(id)]; ok {
		return ch.head
	}
	return -1
}

// provID interns a provenance string.
func (c *closer) provID(s string) int32 {
	if id, ok := c.provIDs[s]; ok {
		return id
	}
	id := int32(len(c.provs))
	c.provs = append(c.provs, s)
	c.provIDs[s] = id
	return id
}

// intern converts a public tuple into closure form. Values are shared, not
// copied.
func (c *closer) intern(t Tuple) ctuple {
	ids := c.idSlice(len(t.Values))
	for i, v := range t.Values {
		ids[i] = c.dict.Intern(v)
	}
	prov := make([]int32, len(t.Prov))
	for i, p := range t.Prov {
		prov[i] = c.provID(p)
	}
	slices.Sort(prov)
	return ctuple{vals: t.Values, ids: ids, prov: prov}
}

// idSlice returns a fresh n-ID slice cut from the closer's current chunk,
// so tuples' ID vectors do not each cost an allocation.
func (c *closer) idSlice(n int) []uint32 {
	if len(c.idChunk) < n {
		c.idChunk = make([]uint32, max(n, idChunkLen))
	}
	s := c.idChunk[:n:n]
	c.idChunk = c.idChunk[n:]
	return s
}

// idChunkLen is how many IDs one chunk of the closer's ID storage holds.
const idChunkLen = 1024

// hashIDs is FNV-1a over the words of an ID slice.
func hashIDs(ids []uint32) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, id := range ids {
		h ^= uint64(id)
		h *= prime64
	}
	return h
}

func equalIDs(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// lookup returns the index of the tuple with exactly these value IDs, or -1.
func (c *closer) lookup(ids []uint32) int {
	idx, ok := c.byHash[hashIDs(ids)]
	if !ok {
		return -1
	}
	for ; idx >= 0; idx = c.hashNext[idx] {
		if equalIDs(c.tuples[idx].ids, ids) {
			return int(idx)
		}
	}
	return -1
}

// add registers a tuple known to carry fresh value IDs.
func (c *closer) add(ct ctuple) int {
	idx := int32(len(c.tuples))
	c.tuples = append(c.tuples, ct)
	h := hashIDs(ct.ids)
	prev, ok := c.byHash[h]
	if !ok {
		prev = -1
	}
	c.byHash[h] = idx
	c.hashNext = append(c.hashNext, prev)
	for pos, id := range ct.ids {
		if id == table.NullID {
			continue
		}
		bk := uint64(pos)<<32 | uint64(id)
		e := int32(len(c.entries))
		c.entries = append(c.entries, entry{tuple: idx, next: -1})
		if ch, ok := c.buckets[bk]; ok {
			c.entries[ch.tail].next = e
			c.buckets[bk] = chain{ch.head, e}
		} else {
			c.buckets[bk] = chain{e, e}
		}
	}
	return int(idx)
}

// seed interns and adds tuples, deduplicating by value (first occurrence —
// and its provenance — wins). It returns the indices added, the initial
// worklist.
func (c *closer) seed(tuples []Tuple) []int {
	work := make([]int, 0, len(tuples))
	for _, t := range tuples {
		ct := c.intern(t)
		if c.lookup(ct.ids) >= 0 {
			continue
		}
		work = append(work, c.add(ct))
	}
	return work
}

// visitScratch is an epoch-stamped visited set reused across candidates
// calls, replacing a per-call map allocation. The slice candidates returns
// is valid until its next call.
type visitScratch struct {
	stamp []uint32
	epoch uint32
	out   []int
}

// candidates returns the indices of tuples sharing at least one non-null
// value ID with tuple idx, excluding idx itself, deduplicated, in inverted-
// index order.
func (c *closer) candidates(idx int) []int {
	vs := &c.vs
	if n := len(c.tuples); len(vs.stamp) < n {
		vs.stamp = append(vs.stamp, make([]uint32, n-len(vs.stamp))...)
	}
	vs.epoch++
	if vs.epoch == 0 { // wrapped: clear stale stamps once
		for i := range vs.stamp {
			vs.stamp[i] = 0
		}
		vs.epoch = 1
	}
	vs.stamp[idx] = vs.epoch
	vs.out = vs.out[:0]
	for pos, id := range c.tuples[idx].ids {
		if id == table.NullID {
			continue
		}
		for e := c.first(pos, id); e >= 0; e = c.entries[e].next {
			if j := c.entries[e].tuple; vs.stamp[j] != vs.epoch {
				vs.stamp[j] = vs.epoch
				vs.out = append(vs.out, int(j))
			}
		}
	}
	return vs.out
}

// complementableIDs is Complementable on interned IDs: at least one shared
// non-null ID, no position where both are non-null and different.
func complementableIDs(a, b []uint32) bool {
	shares := false
	for i := range a {
		ai, bi := a[i], b[i]
		if ai == table.NullID || bi == table.NullID {
			continue
		}
		if ai != bi {
			return false
		}
		shares = true
	}
	return shares
}

// mergeIDs writes the merged ID vector of a and b into dst (the non-null
// side wins; both-null stays NullID).
func mergeIDs(a, b []uint32, dst []uint32) []uint32 {
	if cap(dst) < len(a) {
		dst = make([]uint32, len(a))
	}
	dst = dst[:len(a)]
	for i := range a {
		if a[i] != table.NullID {
			dst[i] = a[i]
		} else {
			dst[i] = b[i]
		}
	}
	return dst
}

// materialize builds the merged ctuple for tuples i and j given their
// merged ID vector. Value semantics match Merge: the non-null side wins;
// when both sides are null, a missing null (±) survives over a produced
// null (⊥).
func (c *closer) materialize(i, j int, ids []uint32) ctuple {
	a, b := &c.tuples[i], &c.tuples[j]
	vals := make([]table.Value, len(ids))
	for p := range ids {
		switch {
		case a.ids[p] != table.NullID:
			vals[p] = a.vals[p]
		case b.ids[p] != table.NullID:
			vals[p] = b.vals[p]
		case a.vals[p].Kind() == table.Null || b.vals[p].Kind() == table.Null:
			vals[p] = table.NullValue()
		default:
			vals[p] = table.ProducedNull()
		}
	}
	idc := c.idSlice(len(ids))
	copy(idc, ids)
	return ctuple{vals: vals, ids: idc, prov: unionSorted(a.prov, b.prov)}
}

// tryMerge merges tuples i and j if complementable and the merge carries
// new values; it returns the new tuple index or -1. The merged ID vector is
// computed into a scratch buffer first, so rejected merges (the common case
// in dense closures) allocate nothing.
func (c *closer) tryMerge(i, j int, idbuf *[]uint32) int {
	a, b := &c.tuples[i], &c.tuples[j]
	if !complementableIDs(a.ids, b.ids) {
		return -1
	}
	*idbuf = mergeIDs(a.ids, b.ids, *idbuf)
	// A merge whose values already exist (including one of its own sides,
	// which happens exactly when one side subsumes the other) adds nothing;
	// the existing tuple keeps its (minimal) provenance.
	if c.lookup(*idbuf) >= 0 {
		return -1
	}
	return c.add(c.materialize(i, j, *idbuf))
}

// cancelStride bounds how many candidate merges may run between two context
// checks inside one closure round, so cancellation latency stays bounded
// even when a single worklist item generates a huge candidate set.
const cancelStride = 2048

// checkCancel polls a context's done channel without blocking. A nil done
// channel (context.Background and friends) short-circuits, so uncancellable
// closures pay one predictable-branch comparison per checkpoint.
func checkCancel(ctx context.Context, done <-chan struct{}) error {
	if done == nil {
		return nil
	}
	select {
	case <-done:
		return ctx.Err()
	default:
		return nil
	}
}

// run drives the sequential closure to fixpoint with a worklist. ctx is
// checked once per worklist item (one candidate-generation round) and every
// cancelStride merge attempts within a round; on cancellation the closure
// stops where it is and ctx.Err() is returned.
func (c *closer) run(ctx context.Context, work []int) error {
	done := ctx.Done()
	var idbuf []uint32
	stride := 0
	for len(work) > 0 {
		if err := checkCancel(ctx, done); err != nil {
			return err
		}
		i := work[0]
		work = work[1:]
		for _, j := range c.candidates(i) {
			if stride++; stride >= cancelStride {
				stride = 0
				if err := checkCancel(ctx, done); err != nil {
					return err
				}
			}
			if ni := c.tryMerge(i, j, &idbuf); ni >= 0 {
				work = append(work, ni)
			}
		}
	}
	return nil
}

// finalize removes subsumed closure tuples and returns the survivors in
// canonical order, converted back to public form: provenance strings are
// rendered and sorted lexicographically, as the paper's figures are, each
// tuple's cut from one backing array.
func (c *closer) finalize() []Tuple {
	keep := c.removeSubsumed()
	n := 0
	for _, idx := range keep {
		n += len(c.tuples[idx].prov)
	}
	provs := make([]string, 0, n)
	out := make([]Tuple, 0, len(keep))
	for _, idx := range keep {
		ct := &c.tuples[idx]
		start := len(provs)
		for _, p := range ct.prov {
			provs = append(provs, c.provs[p])
		}
		prov := provs[start:len(provs):len(provs)]
		slices.Sort(prov)
		out = append(out, Tuple{Values: ct.vals, Prov: prov})
	}
	sortTuples(out)
	return out
}

// removeSubsumed returns the indices of the closer's subsumption-maximal
// tuples, in input order. The closer's tuples are value-deduplicated and
// its buckets index them. An all-null tuple is dropped whenever any other
// tuple exists.
func (c *closer) removeSubsumed() []int {
	tuples := c.tuples
	removed := make([]bool, len(tuples))
	for i := range tuples {
		t := &tuples[i]
		firstNonNull := -1
		for pos, id := range t.ids {
			if id != table.NullID {
				firstNonNull = pos
				break
			}
		}
		if firstNonNull < 0 {
			// All-null tuple: carries no information; keep only when it is
			// the entire result.
			if len(tuples) > 1 {
				removed[i] = true
			}
			continue
		}
		// A subsumer must share every non-null value of t, in particular
		// its first one.
		for e := c.first(firstNonNull, t.ids[firstNonNull]); e >= 0; e = c.entries[e].next {
			j := c.entries[e].tuple
			if int(j) == i || removed[j] {
				continue
			}
			if subsumesIDs(tuples[j].ids, t.ids) {
				removed[i] = true
				break
			}
		}
	}
	keep := make([]int, 0, len(tuples))
	for i := range tuples {
		if !removed[i] {
			keep = append(keep, i)
		}
	}
	return keep
}

// subsumesIDs is Subsumes on interned IDs: everywhere sub is non-null, sup
// holds the same ID.
func subsumesIDs(sup, sub []uint32) bool {
	for i, s := range sub {
		if s == table.NullID {
			continue
		}
		if sup[i] != s {
			return false
		}
	}
	return true
}

// RemoveSubsumed drops every tuple strictly subsumed by another (its
// non-null values all appear in a tuple with strictly more information).
// Value-duplicates are removed first; an all-null tuple is dropped whenever
// any other tuple exists. The survivors are exactly the maximal tuples,
// with their original Tuple structs preserved in input order. The tuples
// seed a private closer, as ALITECtx's do, without running the closure.
func RemoveSubsumed(tuples []Tuple) []Tuple {
	c := newCloser(nil, tuples)
	orig := make([]Tuple, 0, len(tuples))
	for _, t := range tuples {
		if ct := c.intern(t); c.lookup(ct.ids) < 0 {
			c.add(ct)
			orig = append(orig, t)
		}
	}
	keep := c.removeSubsumed()
	out := make([]Tuple, 0, len(keep))
	for _, idx := range keep {
		out = append(out, orig[idx])
	}
	return out
}
