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
// The index lives in an integer token universe: it is built over the lake's
// domains as they are, each carrying its members' IDs in the lake-wide
// table.TokenDict; exact containment verification intersects uint32
// token-ID sets instead of string sets, band keys are computed with an
// inline FNV-1a loop (no hash.Hash allocation per band), and query-side
// token fingerprints come from the dictionary's cache whenever the token
// belongs to the lake vocabulary.
//
// The index is immutable once built: a mutated lake derives the next
// generation with Index.With and publishes it (see lake.Lake), so queries
// take no lock and a reader keeps answering from the generation it loaded.
package lshensemble

import (
	"context"
	"math"
	"math/bits"
	"slices"
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

// rChoices are the band-row counts with a band table each. At query time
// each banded partition probes the configuration chooseTable picks for its
// converted Jaccard threshold.
var rChoices = []int{1, 2, 4, 8}

// partition is one size range of the ensemble: a span of the equi-depth
// order.
type partition struct {
	upper   int     // maximum domain size within the partition
	members []int32 // slots, ascending by (size, key)
}

// bandTable holds the band keys of every slot for one value of r, in CSR
// form: the entries whose key has top bits p are keys/slots[start[p]:
// start[p+1]], and shift keeps those top bits. A band key depends only on
// the signature and r, never on the slot's partition, so one table serves
// every partition; a query keeps only the slots whose partition chose r.
type bandTable struct {
	r     int
	shift uint
	start []uint32
	keys  []uint64
	slots []int32
}

// Index is an LSH Ensemble over a set of domains. Domains live in
// slot-addressed arrays (domains and partOf share indexing); a slot's
// signature lives on only as its band keys. An Index never changes once
// built: a mutation derives the next generation with With, so queries take
// no lock and a reader keeps answering from the generation it loaded.
type Index struct {
	opts    Options
	builder sketch.Builder
	dict    *table.TokenDict
	domains []Domain
	order   []int32 // slots sorted by (domain size, key): the equi-depth order
	partOf  []int32 // per slot: partition index
	parts   []partition
	tables  []bandTable // one per r in rChoices up to NumHashes
	scratch *sync.Pool  // *queryScratch, shared by every generation
}

// queryScratch is the reusable per-query working memory: the fingerprint and
// signature buffers, the query token-ID set, the candidate-dedup scratch and
// each partition's chosen table. Pooled per index lineage; query results
// never alias scratch memory.
type queryScratch struct {
	qids   map[uint32]struct{}
	fps    []uint64
	sig    sketch.Sketch
	seen   []uint32 // per domain index: epoch stamp
	epoch  uint32
	cands  []int32
	keys   []uint64
	choice []int // per partition: index into tables, -1 when scanned
}

// Build constructs the ensemble over dict: it is With over an empty index.
// Every domain must carry deduplicated IDs from dict for its non-empty
// values, as lake extraction (lake.New, Lake.Add) gives its domains.
// Sharing one dictionary across indexes makes query-side token lookups and
// cached fingerprints agree lake-wide.
func Build(domains []Domain, opts Options, dict *table.TokenDict) *Index {
	opts = opts.withDefaults()
	builder, err := sketch.New(opts.sketchParams())
	if err != nil {
		// Foreign engine names arrive through lake options, which lake.New
		// checks with Validate; at this point an unknown engine is a
		// programming error.
		panic("lshensemble: " + err.Error())
	}
	empty := &Index{opts: opts, builder: builder, dict: dict, scratch: &sync.Pool{
		New: func() any { return &queryScratch{qids: make(map[uint32]struct{})} },
	}}
	for _, r := range rChoices {
		if r <= opts.NumHashes {
			empty.tables = append(empty.tables, bandTable{r: r})
		}
	}
	return empty.With(domains, nil)
}

// With derives the index over the receiver's domains minus those of the
// removed tables (unknown names are ignored) plus the added domains,
// appended in order; the added domains carry IDs as Build requires. Kept
// slots stay in their order and keep their band keys; added domains are
// signed in parallel (the only per-value work), into an arena that lives
// only as long as the call. The equi-depth order is the kept order merged
// with the sorted additions, and each band table is re-bucketed from the
// receiver's entries plus the added slots' keys — O(entries), nothing
// re-signed — in parallel over r. The result answers every query as a
// fresh Build over the same domains does. The receiver is left unchanged
// and stays safe to query.
func (ix *Index) With(added []Domain, removed []string) *Index {
	doomed := make(map[string]bool, len(removed))
	for _, n := range removed {
		doomed[n] = true
	}
	next := &Index{opts: ix.opts, builder: ix.builder, dict: ix.dict, scratch: ix.scratch,
		domains: make([]Domain, 0, len(ix.domains)+len(added))}
	// newSlot maps a receiver slot to its slot in next, -1 when removed.
	newSlot := make([]int32, len(ix.domains))
	for s := range ix.domains {
		newSlot[s] = -1
		if !doomed[ix.domains[s].Table] {
			newSlot[s] = int32(len(next.domains))
			next.domains = append(next.domains, ix.domains[s])
		}
	}
	base := len(next.domains)
	next.domains = append(next.domains, added...)
	// Sketches of the added domains live in one arena (workers write
	// disjoint ranges); each depends only on its own domain, so the result
	// is deterministic regardless of scheduling.
	h := ix.opts.NumHashes
	arena := make([]uint64, len(added)*h)
	sigs := make([]sketch.Sketch, len(added))
	par.For(len(added), func(i int) {
		var fps []uint64
		sigs[i] = next.sign(&next.domains[base+i], &fps, arena[i*h:i*h:(i+1)*h])
	})
	next.layout(ix.order, newSlot, base)
	next.tables = make([]bandTable, len(ix.tables))
	par.For(len(ix.tables), func(t int) {
		next.tables[t] = ix.tables[t].with(newSlot, sigs, int32(base))
	})
	return next
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

// layout computes the equi-depth order and partitions: the receiver's order
// (prevOrder, mapped through newSlot) keeps its sort, so the slots from
// base on are sorted and merged into it in one pass.
func (ix *Index) layout(prevOrder, newSlot []int32, base int) {
	n := len(ix.domains)
	fresh := make([]int32, 0, n-base)
	for s := base; s < n; s++ {
		fresh = append(fresh, int32(s))
	}
	sort.SliceStable(fresh, func(a, b int) bool { return ix.orderLess(fresh[a], fresh[b]) })
	ix.order = make([]int32, 0, n)
	for _, s := range prevOrder {
		if ns := newSlot[s]; ns >= 0 {
			for len(fresh) > 0 && ix.orderLess(fresh[0], ns) {
				ix.order = append(ix.order, fresh[0])
				fresh = fresh[1:]
			}
			ix.order = append(ix.order, ns)
		}
	}
	ix.order = append(ix.order, fresh...)
	nparts := min(ix.opts.NumPartitions, n)
	ix.parts = make([]partition, nparts)
	ix.partOf = make([]int32, n)
	for p := range ix.parts {
		members := ix.order[p*n/nparts : (p+1)*n/nparts]
		for _, s := range members {
			ix.partOf[s] = int32(p)
		}
		ix.parts[p] = partition{upper: len(ix.domains[members[len(members)-1]].IDs), members: members}
	}
}

// orderLess is the equi-depth sort order: ascending domain size, ties
// broken by key. Among lake domains keys are unique, so this is a strict
// total order and the merge position of a slot is well-defined.
func (ix *Index) orderLess(a, b int32) bool {
	if la, lb := len(ix.domains[a].IDs), len(ix.domains[b].IDs); la != lb {
		return la < lb
	}
	return ix.domains[a].Key() < ix.domains[b].Key()
}

// with re-buckets the table for the next generation: the kept entries,
// renumbered through newSlot, plus the band keys of the added signatures
// (slots from base on), counting-sorted on a key prefix wide enough for
// about two entries per bucket. Two passes over the entries — count, then
// fill — and no hashing of kept signatures.
func (bt *bandTable) with(newSlot []int32, added []sketch.Sketch, base int32) bandTable {
	var addKeys []uint64
	for _, sig := range added {
		addKeys = appendBandKeys(sig, bt.r, addKeys)
	}
	perSig := len(addKeys) / max(len(added), 1)
	total := len(addKeys)
	for _, s := range bt.slots {
		if newSlot[s] >= 0 {
			total++
		}
	}
	next := bandTable{r: bt.r, shift: 64 - uint(max(bits.Len(uint(total)), 1)-1)}
	start := make([]uint32, 1<<(64-next.shift)+1)
	// Count each bucket one place up, so that after the prefix sum start[p]
	// is bucket p's fill cursor; the fill leaves it at the bucket's end,
	// and one shift down restores the offsets.
	for i, s := range bt.slots {
		if newSlot[s] >= 0 {
			start[bt.keys[i]>>next.shift+1]++
		}
	}
	for _, key := range addKeys {
		start[key>>next.shift+1]++
	}
	sum := uint32(0)
	for p, n := range start {
		sum += n
		start[p] = sum
	}
	keys, slots := make([]uint64, total), make([]int32, total)
	for i, s := range bt.slots {
		if ns := newSlot[s]; ns >= 0 {
			key := bt.keys[i]
			at := start[key>>next.shift]
			keys[at], slots[at] = key, ns
			start[key>>next.shift]++
		}
	}
	for i, key := range addKeys {
		at := start[key>>next.shift]
		keys[at], slots[at] = key, base+int32(i/perSig)
		start[key>>next.shift]++
	}
	copy(start[1:], start)
	start[0] = 0
	next.start, next.keys, next.slots = start, keys, slots
	return next
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
// dst, letting a table re-bucket collect every added domain's keys into one
// flat slice.
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

// scanPartitionMax is the member count at or below which a partition
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
// least minRecallAtThreshold, as an index into tables. r=1 (which collides
// with probability 1-(1-j)^K) is the fallback.
func (ix *Index) chooseTable(j float64) int {
	bestIdx := 0
	for i := range ix.tables {
		r := ix.tables[i].r
		b := ix.opts.NumHashes / r
		if b == 0 {
			continue
		}
		collide := 1 - math.Pow(1-math.Pow(j, float64(r)), float64(b))
		if collide >= minRecallAtThreshold && r >= ix.tables[bestIdx].r {
			bestIdx = i
		}
	}
	return bestIdx
}

// Result is one verified query answer.
type Result struct {
	Domain      *Domain
	Containment float64 // exact |Q∩X|/|Q|
}

// QueryCtx returns the indexed domains whose exact containment of the
// normalized query value set is at least threshold, ranked by containment
// descending (ties broken by domain key), truncated to k (k<=0 means all).
// rawQuery is normalized with tokenize.ValueSet, matching how domains are
// extracted from tables, and resolved with table.ResolveDomain; the query
// is then QueryDomainCtx's.
func (ix *Index) QueryCtx(ctx context.Context, rawQuery []string, threshold float64, k int) ([]Result, error) {
	return ix.QueryDomainCtx(ctx, table.ResolveDomain(ix.dict, tokenize.ValueSet(rawQuery)), threshold, k)
}

// QueryDomainCtx answers a containment query for an already-extracted
// domain, ranked as QueryCtx ranks: a lake's cached domain or a
// table.ResolveDomain result, whose token IDs (and fingerprints, when it
// carries them) are used as they are. The candidate generation checks ctx
// between band-table probes, and the verification loop every
// verifyCancelStride candidates, returning (nil, ctx.Err()) once the
// context is cancelled.
func (ix *Index) QueryDomainCtx(ctx context.Context, d *Domain, threshold float64, k int) ([]Result, error) {
	if d == nil || len(d.IDs) == 0 {
		return nil, ctx.Err()
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
	return ix.query(ctx, s.sig, s.qids, len(d.IDs), threshold, k, s)
}

// verifyCancelStride bounds how many candidate verifications run between two
// context checks: each verification is an O(|X|) token-ID intersection, so
// the stride keeps cancellation latency bounded without a per-candidate
// branch dominating small queries.
const verifyCancelStride = 64

// query generates candidates from the query sketch — every member of a
// partition at most scanPartitionMax large, and for the others one probe of
// each chosen r's band table, keeping a slot only when its partition chose
// that r — then verifies them by exact token-ID intersection. qsize is |Q|
// (including tokens outside the lake vocabulary, which count toward the
// denominator). ctx is checked between table probes and every
// verifyCancelStride candidate verifications.
func (ix *Index) query(ctx context.Context, qsig sketch.Sketch, qids map[uint32]struct{}, qsize int, threshold float64, k int, s *queryScratch) ([]Result, error) {
	done := ctx.Done()
	// The candidate-dedup scratch is shared by every generation of the
	// index, so re-fit it to this one (fresh entries are zero, which no
	// live epoch ever equals).
	if len(s.seen) < len(ix.domains) {
		grown := make([]uint32, len(ix.domains))
		copy(grown, s.seen)
		s.seen = grown
	}
	s.epoch++
	if s.epoch == 0 {
		clear(s.seen)
		s.epoch = 1
	}
	candidates := s.cands[:0]
	s.choice = s.choice[:0]
	for _, p := range ix.parts {
		if len(p.members) <= scanPartitionMax {
			candidates = append(candidates, p.members...)
			s.choice = append(s.choice, -1)
			continue
		}
		s.choice = append(s.choice, ix.chooseTable(minhash.JaccardForContainment(threshold, qsize, p.upper)))
	}
	keys := s.keys
	for t := range ix.tables {
		if !slices.Contains(s.choice, t) {
			continue
		}
		if done != nil {
			select {
			case <-done:
				s.cands, s.keys = candidates, keys
				return nil, ctx.Err()
			default:
			}
		}
		bt := &ix.tables[t]
		keys = bandKeys(qsig, bt.r, keys[:0])
		for _, key := range keys {
			at := key >> bt.shift
			for i := bt.start[at]; i < bt.start[at+1]; i++ {
				if di := bt.slots[i]; bt.keys[i] == key && s.choice[ix.partOf[di]] == t && s.seen[di] != s.epoch {
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

// NumDomains reports how many domains are indexed.
func (ix *Index) NumDomains() int { return len(ix.domains) }

// ExactQuery is the brute-force baseline: it scans every domain and computes
// exact containment. It is the ground truth against which the ensemble's
// recall and speedup are measured (experiment X3). It works over raw
// strings on purpose — the baseline shares nothing with the index layout: a
// lake domain, which keeps no value strings, is read through the token
// dictionary it was interned into (Domain.AppendStrings).
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
	var tokens []string
	for i := range domains {
		d := &domains[i]
		inter := 0
		tokens = d.AppendStrings(tokens[:0])
		for _, v := range tokens {
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
