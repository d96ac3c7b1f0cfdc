// Package lshensemble implements the LSH Ensemble index for
// domain-containment search (Zhu, Nargesian, Pu, Miller — VLDB 2016), the
// joinable-table discovery method DIALITE exposes. Given a query column Q
// and a containment threshold t*, the index returns the indexed column
// domains X with |Q∩X|/|Q| ≥ t*.
//
// The ensemble works around MinHash LSH being a Jaccard filter, not a
// containment filter: domains are partitioned by set size (equi-depth), and
// within each partition the containment threshold is converted to a Jaccard
// threshold using the partition's upper size bound; each partition is then
// probed with a banding configuration tuned to that converted threshold.
// Candidates are verified and ranked by exact containment, so the index has
// no false positives — only (rare) false negatives from the sketch.
//
// The index lives in an integer token universe: domain members intern into
// a table.TokenDict (shared lake-wide when built through lake.New), exact
// containment verification intersects uint32 token-ID sets instead of
// string sets, band keys are computed with an inline FNV-1a loop (no
// hash.Hash allocation per band), and query-side token fingerprints come
// from the dictionary's cache whenever the token belongs to the lake
// vocabulary.
package lshensemble

import (
	"context"
	"math"
	"sort"
	"sync"

	"repro/internal/minhash"
	"repro/internal/par"
	"repro/internal/sketch"
	"repro/internal/table"
	"repro/internal/tokenize"
)

// Domain is one indexed column: the lake's extracted domain type, indexed as
// it is.
type Domain = table.Domain

// Options configures index construction.
type Options struct {
	// NumHashes is the MinHash signature length. Default 128.
	NumHashes int
	// NumPartitions is the number of equi-depth size partitions. Default 8.
	NumPartitions int
	// Seed makes sketches deterministic. Default 1.
	Seed int64
	// Engine names the sketch engine. Only sketch.MinHash (or empty, which
	// means MinHash) is implemented; check foreign values with Validate
	// before building — Build panics on any other name.
	Engine sketch.Engine
}

func (o Options) withDefaults() Options {
	if o.NumHashes <= 0 {
		o.NumHashes = 128
	}
	if o.NumPartitions <= 0 {
		o.NumPartitions = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Engine == "" {
		o.Engine = sketch.MinHash
	}
	return o
}

// sketchParams maps defaulted options onto the sketch builder's parameters.
func (o Options) sketchParams() sketch.Params {
	return sketch.Params{Engine: o.Engine, Size: o.NumHashes, Seed: o.Seed}
}

// Validate reports whether the options build an index: Engine must be empty
// or sketch.MinHash.
func (o Options) Validate() error {
	_, err := sketch.New(o.withDefaults().sketchParams())
	return err
}

// rChoices are the band-row counts precomputed per partition. At query time
// the configuration whose S-curve threshold is closest to the converted
// Jaccard threshold is probed.
var rChoices = []int{1, 2, 4, 8}

// partition is one size range of the ensemble.
type partition struct {
	upper   int   // maximum domain size within the partition
	domains []int // indices into Index.domains
	tables  []bandTable
}

// bandTable holds banded buckets for one value of r: bucket key -> domains.
type bandTable struct {
	r       int
	buckets map[uint64][]int32
}

// Index is an LSH Ensemble over a set of domains. Domains live in
// slot-addressed arrays (domains/signatures/alive/partOf share indexing):
// Add appends slots and Remove tombstones them, and the equi-depth
// partitioning is maintained incrementally — after a mutation only the
// slots whose partition assignment changed move between band tables, so the
// index is at all times identical in query behavior to a fresh Build over
// the live domains (partition boundaries, per-partition size bounds and
// bucket membership all match; cached per-slot sketches make the moves
// re-banding work, never re-signing work). Mutations take the write lock,
// queries the read lock.
type Index struct {
	mu         sync.RWMutex
	opts       Options
	builder    sketch.Builder
	dict       *table.TokenDict
	domains    []Domain
	signatures []sketch.Sketch
	alive      []bool  // per slot: false once removed
	partOf     []int32 // per slot: partition index, -1 when unassigned/dead
	liveCount  int
	order      []int // live slots sorted by (domain size, key): the equi-depth order
	parts      []partition
	scratch    sync.Pool // *queryScratch
}

// queryScratch is the reusable per-query working memory: the fingerprint and
// signature buffers, the query token-ID set, and the candidate-dedup
// scratch. Pooled per index; query results never alias scratch memory.
type queryScratch struct {
	qids  map[uint32]struct{}
	fps   []uint64
	sig   sketch.Sketch
	seen  []uint32 // per domain index: epoch stamp
	epoch uint32
	cands []int32
	keys  []uint64
}

func newQueryScratch() any { return &queryScratch{qids: make(map[uint32]struct{})} }

// Build constructs the ensemble over a private token dictionary, dropping
// any IDs and fingerprints the domains carry (they belong to another
// dictionary), so Build(lake.Domains(), otherOpts) rebuilds are safe. Domains
// with empty value sets are indexed but can never be returned (containment
// verification removes them).
func Build(domains []Domain, opts Options) *Index {
	return BuildWithDict(table.WithoutIDs(domains), opts, table.NewTokenDict())
}

// BuildWithDict constructs the ensemble over dict, which every ID the domains
// carry must come from. Sharing one dictionary across indexes — as lake
// preprocessing does — makes query-side token lookups and cached
// fingerprints agree lake-wide. A domain with IDs is indexed under them as it
// is; a domain without IDs is interned here and keeps the fingerprints read
// while interning it.
func BuildWithDict(domains []Domain, opts Options, dict *table.TokenDict) *Index {
	opts = opts.withDefaults()
	builder, err := sketch.New(opts.sketchParams())
	if err != nil {
		// Foreign engine names arrive through lake options, which lake.New
		// checks with Validate; at this point an unknown engine is a
		// programming error.
		panic("lshensemble: " + err.Error())
	}
	ix := &Index{
		opts:      opts,
		builder:   builder,
		dict:      dict,
		domains:   append([]Domain(nil), domains...),
		alive:     make([]bool, len(domains)),
		partOf:    make([]int32, len(domains)),
		liveCount: len(domains),
	}
	ix.scratch.New = newQueryScratch
	// Sign domains in parallel: each sketch depends only on its own
	// domain, so the result is deterministic regardless of scheduling.
	// Sketches live in one contiguous arena (workers write disjoint ranges)
	// instead of one allocation per domain.
	ix.signatures = make([]sketch.Sketch, len(ix.domains))
	sigArena := make([]uint64, len(ix.domains)*opts.NumHashes)
	par.For(len(ix.domains), func(i int) {
		d := &ix.domains[i]
		ix.intern(d)
		slot := sigArena[i*opts.NumHashes : i*opts.NumHashes : (i+1)*opts.NumHashes]
		var fps []uint64
		ix.signatures[i] = ix.sign(d, &fps, slot)
		ix.alive[i] = true
		ix.partOf[i] = -1
	})
	ix.initPartitions()
	return ix
}

// intern gives a domain that arrived without IDs its IDs and fingerprints in
// the index's dictionary; a domain with IDs is left as it is.
func (ix *Index) intern(d *Domain) {
	if d.IDs == nil {
		d.IDs = ix.dict.InternAll(d.Values, nil)
		d.Fingerprints = ix.dict.Fingerprints(d.IDs, nil)
	}
}

// sign computes d's sketch into dst from the fingerprints d carries or, for
// a domain without them (a lake domain), from the dictionary's cached
// fingerprints of its IDs, read into *buf.
func (ix *Index) sign(d *Domain, buf *[]uint64, dst sketch.Sketch) sketch.Sketch {
	fps := d.Fingerprints
	if fps == nil {
		*buf = ix.dict.Fingerprints(d.IDs, *buf)
		fps = *buf
	}
	return ix.builder.SignInto(fps, dst)
}

// initPartitions computes the equi-depth partitioning and band tables from
// scratch over the (fully signed, all live) domain slots — the tail of
// BuildWithDict and of compaction. Partitions band independently; they are
// built in parallel and collected in partition order, so the index layout
// stays deterministic.
func (ix *Index) initPartitions() {
	// Equi-depth partitioning by domain size.
	ix.order = make([]int, len(ix.domains))
	for i := range ix.order {
		ix.order[i] = i
	}
	sort.SliceStable(ix.order, func(a, b int) bool {
		return ix.orderLess(ix.order[a], ix.order[b])
	})
	nparts := ix.opts.NumPartitions
	if nparts > len(ix.order) {
		nparts = len(ix.order)
	}
	ix.parts = make([]partition, nparts)
	par.For(nparts, func(p int) {
		lo := p * len(ix.order) / nparts
		hi := (p + 1) * len(ix.order) / nparts
		part := partition{domains: make([]int, 0, hi-lo)}
		for _, di := range ix.order[lo:hi] {
			part.domains = append(part.domains, di)
			ix.partOf[di] = int32(p)
			if n := len(ix.domains[di].Values); n > part.upper {
				part.upper = n
			}
		}
		var flat []uint64
		for _, r := range rChoices {
			if r > ix.opts.NumHashes {
				continue
			}
			// Bulk band build: hash every domain's band keys once into a flat
			// slice, count bucket sizes, then carve all buckets out of one
			// arena. Appending per (domain, band) instead allocates a tiny
			// slice per bucket and regrows both it and the map incrementally.
			nb := ix.opts.NumHashes / r
			if cap(flat) < len(part.domains)*nb {
				flat = make([]uint64, 0, len(part.domains)*nb)
			}
			flat = flat[:0]
			for _, di := range part.domains {
				flat = appendBandKeys(ix.signatures[di], r, flat)
			}
			cursors := make(map[uint64]int32, len(flat))
			for _, key := range flat {
				cursors[key]++
			}
			bt := bandTable{r: r, buckets: make(map[uint64][]int32, len(cursors))}
			arena := make([]int32, len(flat))
			off := int32(0)
			for key, n := range cursors {
				bt.buckets[key] = arena[off : off+n : off+n]
				cursors[key] = off // becomes the bucket's fill cursor
				off += n
			}
			ki := 0
			for _, di := range part.domains {
				for b := 0; b < nb; b++ {
					key := flat[ki]
					ki++
					at := cursors[key]
					arena[at] = int32(di)
					cursors[key] = at + 1
				}
			}
			part.tables = append(part.tables, bt)
		}
		ix.parts[p] = part
	})
}

// orderLess is the equi-depth sort order: ascending domain size, ties
// broken by key. Among live lake domains keys are unique, so this is a
// strict total order and insertion position is well-defined.
func (ix *Index) orderLess(a, b int) bool {
	if la, lb := len(ix.domains[a].Values), len(ix.domains[b].Values); la != lb {
		return la < lb
	}
	return ix.domains[a].Key() < ix.domains[b].Key()
}

// Add indexes additional domains: each one is interned as BuildWithDict
// interns it, signed (the only per-value work) and inserted into the
// equi-depth partitioning, moving the handful of existing slots whose
// partition assignment shifted. Add is exclusive with queries and other
// mutations.
func (ix *Index) Add(domains []Domain) {
	if len(domains) == 0 {
		return
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	newSlots := make([]int, 0, len(domains))
	var fps []uint64
	for _, d := range domains {
		slot := len(ix.domains)
		ix.intern(&d)
		ix.domains = append(ix.domains, d)
		ix.signatures = append(ix.signatures, ix.sign(&d, &fps, nil))
		ix.alive = append(ix.alive, true)
		ix.partOf = append(ix.partOf, -1)
		ix.liveCount++
		newSlots = append(newSlots, slot)
	}
	// Merge the batch into the equi-depth order in one pass (sort the m new
	// slots, then a single backward merge), instead of m copy-shifting
	// insertions.
	sort.SliceStable(newSlots, func(a, b int) bool { return ix.orderLess(newSlots[a], newSlots[b]) })
	old := ix.order
	ix.order = append(ix.order, newSlots...)
	for i, o, n := len(ix.order)-1, len(old)-1, len(newSlots)-1; n >= 0; i-- {
		if o >= 0 && ix.orderLess(newSlots[n], old[o]) {
			ix.order[i] = old[o]
			o--
		} else {
			ix.order[i] = newSlots[n]
			n--
		}
	}
	ix.reshard()
}

// Remove drops every domain belonging to one of the named tables and
// reports how many domains died. Dead slots leave their band tables
// immediately (they can never become candidates again) but their contents
// are not zeroed, so Results handed out before the removal stay readable;
// the slot arrays are compacted once dead slots outnumber live ones.
// Remove is exclusive with queries and other mutations.
func (ix *Index) Remove(tables []string) int {
	if len(tables) == 0 {
		return 0
	}
	doomed := make(map[string]bool, len(tables))
	for _, t := range tables {
		doomed[t] = true
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	removed := 0
	var dying []int
	for slot := range ix.domains {
		if !ix.alive[slot] || !doomed[ix.domains[slot].Table] {
			continue
		}
		ix.alive[slot] = false
		ix.liveCount--
		removed++
		dying = append(dying, slot)
	}
	if removed == 0 {
		return 0
	}
	// Past the dead-slot threshold, compaction rebuilds the partitioning
	// from scratch anyway — skip the incremental unband/reshard entirely.
	if dead := len(ix.domains) - ix.liveCount; dead > 16 && dead > ix.liveCount {
		ix.compactLocked()
		return removed
	}
	for _, slot := range dying {
		if p := ix.partOf[slot]; p >= 0 {
			ix.unband(int(p), slot)
			ix.partOf[slot] = -1
		}
	}
	kept := ix.order[:0]
	for _, s := range ix.order {
		if ix.alive[s] {
			kept = append(kept, s)
		}
	}
	ix.order = kept
	ix.reshard()
	return removed
}

// Compact rebuilds the slot arrays densely over the live domains, dropping
// dead-slot bookkeeping (and releasing the memory retained by removed
// domains), and re-lays the partitions through initPartitions, the build's
// own bulk layout; the cached sketches are reused, nothing is re-signed.
// Query behavior is unchanged. Compact is exclusive with queries and other
// mutations.
func (ix *Index) Compact() {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.liveCount == len(ix.domains) {
		return
	}
	ix.compactLocked()
}

func (ix *Index) compactLocked() {
	n := ix.liveCount
	domains := make([]Domain, 0, n)
	sigs := make([]sketch.Sketch, 0, n)
	for slot := range ix.domains {
		if ix.alive[slot] {
			domains = append(domains, ix.domains[slot])
			sigs = append(sigs, ix.signatures[slot])
		}
	}
	ix.domains, ix.signatures = domains, sigs
	ix.alive = make([]bool, n)
	for i := range ix.alive {
		ix.alive[i] = true
	}
	ix.partOf = make([]int32, n)
	ix.initPartitions()
}

// reshard recomputes the equi-depth partition boundaries over the current
// live order, grows or trims the partition count, and moves exactly the
// slots whose assignment changed between band tables — adding or removing
// one table shifts each boundary by at most one position, so steady-state
// mutations re-band O(partitions) domains, not O(domains). The resulting
// partition layout (boundaries, membership, size upper bounds and bucket
// contents) is identical to what a fresh Build over the live domains would
// construct. Callers hold the write lock.
func (ix *Index) reshard() {
	n := len(ix.order)
	nparts := ix.opts.NumPartitions
	if nparts > n {
		nparts = n
	}
	for len(ix.parts) < nparts {
		part := partition{}
		for _, r := range rChoices {
			if r > ix.opts.NumHashes {
				continue
			}
			part.tables = append(part.tables, bandTable{r: r, buckets: make(map[uint64][]int32)})
		}
		ix.parts = append(ix.parts, part)
	}
	for p := 0; p < nparts; p++ {
		lo, hi := p*n/nparts, (p+1)*n/nparts
		for _, slot := range ix.order[lo:hi] {
			if old := ix.partOf[slot]; int(old) != p {
				if old >= 0 {
					ix.unband(int(old), slot)
				}
				ix.band(p, slot)
				ix.partOf[slot] = int32(p)
			}
		}
	}
	// Partitions beyond the new count have had every live slot moved out.
	for p := nparts; p < len(ix.parts); p++ {
		ix.parts[p] = partition{}
	}
	ix.parts = ix.parts[:nparts]
	for p := 0; p < nparts; p++ {
		lo, hi := p*n/nparts, (p+1)*n/nparts
		part := &ix.parts[p]
		part.domains = append(part.domains[:0], ix.order[lo:hi]...)
		part.upper = len(ix.domains[ix.order[hi-1]].Values)
	}
}

// band inserts slot into every band table of partition p.
func (ix *Index) band(p, slot int) {
	var keys []uint64
	for ti := range ix.parts[p].tables {
		bt := &ix.parts[p].tables[ti]
		keys = bandKeys(ix.signatures[slot], bt.r, keys[:0])
		for _, key := range keys {
			bt.buckets[key] = append(bt.buckets[key], int32(slot))
		}
	}
}

// unband removes slot from every band table of partition p (all occurrences
// — two bands of one signature can, in principle, collide on a key).
func (ix *Index) unband(p, slot int) {
	var keys []uint64
	for ti := range ix.parts[p].tables {
		bt := &ix.parts[p].tables[ti]
		keys = bandKeys(ix.signatures[slot], bt.r, keys[:0])
		for _, key := range keys {
			bucket := bt.buckets[key]
			kept := bucket[:0]
			for _, di := range bucket {
				if di != int32(slot) {
					kept = append(kept, di)
				}
			}
			if len(kept) == 0 {
				delete(bt.buckets, key)
			} else {
				bt.buckets[key] = kept
			}
		}
	}
}

// bandKeys hashes a signature into bands of r rows, appending the per-band
// keys to dst; the band index is mixed into the key so buckets from
// different bands never collide by accident. The hash is a flat inline
// FNV-1a loop, byte-identical to feeding hash/fnv.New64a the band index as
// two little-endian bytes followed by each signature word as eight — but
// with no hash.Hash allocation per band.
func bandKeys(sig sketch.Sketch, r int, dst []uint64) []uint64 {
	nb := len(sig) / r
	if cap(dst) < nb {
		dst = make([]uint64, 0, nb)
	}
	return appendBandKeys(sig, r, dst[:0])
}

// appendBandKeys is bandKeys without the reset: it appends the band keys to
// dst, letting the bulk band build in initPartitions collect every domain's
// keys into one flat slice.
func appendBandKeys(sig sketch.Sketch, r int, dst []uint64) []uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	nb := len(sig) / r
	for b := 0; b < nb; b++ {
		h := uint64(offset64)
		h = (h ^ uint64(byte(b))) * prime64
		h = (h ^ uint64(byte(b>>8))) * prime64
		for i := b * r; i < (b+1)*r; i++ {
			v := sig[i]
			for j := 0; j < 64; j += 8 {
				h = (h ^ (v >> j & 0xff)) * prime64
			}
		}
		dst = append(dst, h)
	}
	return dst
}

// minRecallAtThreshold is the collision probability a banding must achieve
// for a pair sitting exactly at the converted Jaccard threshold. Choosing
// the most selective (largest r) banding that still clears this bound keeps
// candidate sets small without sacrificing recall at the threshold.
const minRecallAtThreshold = 0.95

// scanPartitionMax is the live-domain count at or below which a partition
// is probed by exhaustive scan instead of band lookups. For a partition
// this small, verifying every member costs less than hashing the query
// signature into bands and chasing buckets, and the scan's recall is exact
// rather than probabilistic. It also makes small-lake candidate generation
// independent of the equi-depth partition layout — band misses are a
// function of where partition boundaries fall, a scan admits everything —
// which is what lets the sharded differential harness demand byte-identical
// rankings between shard-local and global partitionings (see SHARDING.md).
const scanPartitionMax = 64

// chooseTable picks the most selective precomputed banding whose collision
// probability 1-(1-j^r)^b at the target Jaccard threshold j is still at
// least minRecallAtThreshold. r=1 (which collides with probability
// 1-(1-j)^K) is the fallback.
func (p *partition) chooseTable(j float64, numHashes int) *bandTable {
	bestIdx := 0
	for i := range p.tables {
		r := p.tables[i].r
		b := numHashes / r
		if b == 0 {
			continue
		}
		collide := 1 - math.Pow(1-math.Pow(j, float64(r)), float64(b))
		if collide >= minRecallAtThreshold && r >= p.tables[bestIdx].r {
			bestIdx = i
		}
	}
	return &p.tables[bestIdx]
}

// Result is one verified query answer.
type Result struct {
	Domain      *Domain
	Containment float64 // exact |Q∩X|/|Q|
}

// Query returns the indexed domains whose exact containment of the
// normalized query value set is at least threshold, ranked by containment
// descending (ties broken by domain key), truncated to k (k<=0 means all).
// rawQuery is normalized with tokenize.ValueSet, matching how domains are
// extracted from tables, and resolved with table.ResolveDomain.
func (ix *Index) Query(rawQuery []string, threshold float64, k int) []Result {
	res, _ := ix.QueryCtx(context.Background(), rawQuery, threshold, k)
	return res
}

// QueryCtx is Query with cooperative cancellation — QueryDomainCtx over the
// normalized raw values.
func (ix *Index) QueryCtx(ctx context.Context, rawQuery []string, threshold float64, k int) ([]Result, error) {
	return ix.QueryDomainCtx(ctx, table.ResolveDomain(ix.dict, tokenize.ValueSet(rawQuery)), threshold, k)
}

// QueryDomain answers a containment query for an already-extracted domain:
// a lake's cached domain or a table.ResolveDomain result, whose token IDs
// (and fingerprints, when it carries them) are used as they are. The
// domain's Values must be normalized and deduplicated; a domain without IDs
// is resolved against the index's dictionary first.
func (ix *Index) QueryDomain(d *Domain, threshold float64, k int) []Result {
	res, _ := ix.QueryDomainCtx(context.Background(), d, threshold, k)
	return res
}

// QueryDomainCtx is QueryDomain with cooperative cancellation: the
// candidate verification loop checks ctx between partitions and amortized
// across containment verifications, returning (nil, ctx.Err()) once the
// context is cancelled.
func (ix *Index) QueryDomainCtx(ctx context.Context, d *Domain, threshold float64, k int) ([]Result, error) {
	if d == nil || len(d.Values) == 0 {
		return nil, ctx.Err()
	}
	if d.IDs == nil {
		d = table.ResolveDomain(ix.dict, d.Values)
	}
	s := ix.scratch.Get().(*queryScratch)
	defer ix.scratch.Put(s)
	clear(s.qids)
	for _, id := range d.IDs {
		if id != 0 {
			s.qids[id] = struct{}{}
		}
	}
	s.sig = ix.sign(d, &s.fps, s.sig)
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.query(ctx, s.sig, s.qids, len(d.Values), threshold, k, s)
}

// verifyCancelStride bounds how many candidate verifications run between two
// context checks: each verification is an O(|X|) token-ID intersection, so
// the stride keeps cancellation latency bounded without a per-candidate
// branch dominating small queries.
const verifyCancelStride = 64

// query generates candidates from the query sketch — band-table probes per
// partition, or every live member of a partition at most scanPartitionMax
// large — then verifies them by exact token-ID intersection. qsize is |Q|
// (including tokens outside the lake vocabulary, which count toward the
// denominator). ctx is checked between partition probes and every
// verifyCancelStride candidate verifications.
func (ix *Index) query(ctx context.Context, qsig sketch.Sketch, qids map[uint32]struct{}, qsize int, threshold float64, k int, s *queryScratch) ([]Result, error) {
	done := ctx.Done()
	// The candidate-dedup scratch is sized for the index as of a previous
	// query; the slot arrays grow under mutation, so re-fit it here (fresh
	// entries are zero, which no live epoch ever equals).
	if len(s.seen) < len(ix.domains) {
		grown := make([]uint32, len(ix.domains))
		copy(grown, s.seen)
		s.seen = grown
	}
	s.epoch++
	if s.epoch == 0 {
		for i := range s.seen {
			s.seen[i] = 0
		}
		s.epoch = 1
	}
	candidates := s.cands[:0]
	keys := s.keys
	for pi := range ix.parts {
		if done != nil {
			select {
			case <-done:
				s.cands, s.keys = candidates, keys
				return nil, ctx.Err()
			default:
			}
		}
		p := &ix.parts[pi]
		if len(p.tables) == 0 {
			continue
		}
		live := 0
		for _, di := range p.domains {
			if ix.alive[di] {
				live++
			}
		}
		if live <= scanPartitionMax {
			for _, di := range p.domains {
				if ix.alive[di] && s.seen[di] != s.epoch {
					s.seen[di] = s.epoch
					candidates = append(candidates, int32(di))
				}
			}
			continue
		}
		j := minhash.JaccardForContainment(threshold, qsize, p.upper)
		bt := p.chooseTable(j, ix.opts.NumHashes)
		keys = bandKeys(qsig, bt.r, keys[:0])
		for _, key := range keys {
			for _, di := range bt.buckets[key] {
				if s.seen[di] != s.epoch {
					s.seen[di] = s.epoch
					candidates = append(candidates, di)
				}
			}
		}
	}
	s.cands = candidates
	s.keys = keys
	var results []Result
	for vi, di := range candidates {
		if done != nil && vi%verifyCancelStride == 0 {
			select {
			case <-done:
				return nil, ctx.Err()
			default:
			}
		}
		d := &ix.domains[di]
		inter := 0
		for _, id := range d.IDs {
			if _, ok := qids[id]; ok {
				inter++
			}
		}
		c := float64(inter) / float64(qsize)
		if c >= threshold && c > 0 {
			results = append(results, Result{Domain: d, Containment: c})
		}
	}
	sort.Slice(results, func(a, b int) bool {
		if results[a].Containment != results[b].Containment {
			return results[a].Containment > results[b].Containment
		}
		return results[a].Domain.Key() < results[b].Domain.Key()
	})
	if k > 0 && len(results) > k {
		results = results[:k]
	}
	return results, nil
}

// Options returns the index's construction options (defaults applied).
func (ix *Index) Options() Options { return ix.opts }

// Dict returns the token dictionary the index interns through.
func (ix *Index) Dict() *table.TokenDict { return ix.dict }

// NumDomains reports how many live (non-removed) domains are indexed.
func (ix *Index) NumDomains() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.liveCount
}

// ExactQuery is the brute-force baseline: it scans every domain and computes
// exact containment. It is the ground truth against which the ensemble's
// recall and speedup are measured (experiment X3). It works over raw
// strings on purpose — the baseline shares nothing with the index layout.
func ExactQuery(domains []Domain, rawQuery []string, threshold float64, k int) []Result {
	query := tokenize.ValueSet(rawQuery)
	if len(query) == 0 {
		return nil
	}
	qset := make(map[string]bool, len(query))
	for _, v := range query {
		qset[v] = true
	}
	var results []Result
	for i := range domains {
		d := &domains[i]
		inter := 0
		for _, v := range d.Values {
			if qset[v] {
				inter++
			}
		}
		c := float64(inter) / float64(len(query))
		if c >= threshold && c > 0 {
			results = append(results, Result{Domain: d, Containment: c})
		}
	}
	sort.Slice(results, func(a, b int) bool {
		if results[a].Containment != results[b].Containment {
			return results[a].Containment > results[b].Containment
		}
		return results[a].Domain.Key() < results[b].Domain.Key()
	})
	if k > 0 && len(results) > k {
		results = results[:k]
	}
	return results
}
