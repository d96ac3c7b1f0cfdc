package lshensemble

// crosscheck_test pins the token-interned ensemble to the pre-refactor
// string-based implementation: the inline-FNV band keys must equal the
// hash/fnv ones bit for bit, and QueryCtx (and the QueryDomainCtx fast
// path) must return exactly the same ranked results — same domains, same
// containments, same order — as the reference below, which replays the old
// query (fnv.New64a band keys, string-set verification) over the same built
// index's partitions, signing every member itself, without the index's
// band tables.

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/minhash"
	"repro/internal/sketch"
	"repro/internal/table"
	"repro/internal/tokenize"
)

// referenceBandKeys is the pre-refactor banding hash (one fnv.New64a per
// band).
func referenceBandKeys(sig minhash.Signature, r int) []uint64 {
	nb := len(sig) / r
	keys := make([]uint64, 0, nb)
	var buf [8]byte
	for b := 0; b < nb; b++ {
		h := fnv.New64a()
		buf[0] = byte(b)
		buf[1] = byte(b >> 8)
		h.Write(buf[:2])
		for i := b * r; i < (b+1)*r; i++ {
			v := sig[i]
			for j := 0; j < 8; j++ {
				buf[j] = byte(v >> (8 * j))
			}
			h.Write(buf[:8])
		}
		keys = append(keys, h.Sum64())
	}
	return keys
}

func TestBandKeysMatchFNV(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{8, 64, 128, 256} {
		sig := make(minhash.Signature, n)
		for i := range sig {
			sig[i] = rng.Uint64()
		}
		for _, r := range rChoices {
			if r > n {
				continue
			}
			got := bandKeys(sketch.Sketch(sig), r, nil)
			want := referenceBandKeys(sig, r)
			if len(got) != len(want) {
				t.Fatalf("n=%d r=%d: %d keys, want %d", n, r, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d r=%d band %d: %#x, want %#x", n, r, i, got[i], want[i])
				}
			}
		}
	}
}

type refContainment struct {
	key         string
	containment float64
}

// referenceQuery replays the pre-refactor string-based query against the
// built index's partition layout, finding candidates without any band
// table: a member of a banded partition is a candidate when one of its
// signature's hash/fnv band keys equals one of the query's, the member
// signed from its value strings as the query is. Verification is exact,
// over string sets.
func referenceQuery(ix *Index, rawQuery []string, threshold float64, k int) []refContainment {
	query := tokenize.ValueSet(rawQuery)
	if len(query) == 0 {
		return nil
	}
	candidates := make(map[int32]bool)
	// The reference signs with its own family — it shares nothing with the
	// index's sketch builder beyond the (size, seed) parameters.
	family := minhash.NewFamily(ix.opts.NumHashes, ix.opts.Seed)
	qsig := family.SignFingerprintsInto(minhash.Fingerprints(query), nil)
	for _, p := range ix.parts {
		// Mirror the production small-partition rule: partitions at or below
		// scanPartitionMax members are probed exhaustively, not by bands.
		// The cross-check pins ID-based vs string-based equivalence, so the
		// reference follows the same candidate-generation policy.
		if len(p.members) <= scanPartitionMax {
			for _, di := range p.members {
				candidates[di] = true
			}
			continue
		}
		r := rChoices[ix.chooseTable(minhash.JaccardForContainment(threshold, len(query), p.upper))]
		qkeys := make(map[uint64]bool)
		for _, key := range referenceBandKeys(qsig, r) {
			qkeys[key] = true
		}
		for _, di := range p.members {
			sig := family.SignFingerprintsInto(minhash.Fingerprints(ix.domains[di].Values), nil)
			for _, key := range referenceBandKeys(sig, r) {
				if qkeys[key] {
					candidates[di] = true
				}
			}
		}
	}
	qset := make(map[string]bool, len(query))
	for _, v := range query {
		qset[v] = true
	}
	var results []refContainment
	for di := range candidates {
		d := &ix.domains[di]
		inter := 0
		for _, v := range d.Values {
			if qset[v] {
				inter++
			}
		}
		c := float64(inter) / float64(len(query))
		if c >= threshold && c > 0 {
			results = append(results, refContainment{key: d.Key(), containment: c})
		}
	}
	sortRef(results)
	if k > 0 && len(results) > k {
		results = results[:k]
	}
	return results
}

func sortRef(rs []refContainment) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0; j-- {
			a, b := rs[j-1], rs[j]
			if b.containment > a.containment || (b.containment == a.containment && b.key < a.key) {
				rs[j-1], rs[j] = b, a
			} else {
				break
			}
		}
	}
}

func assertSameContainments(t *testing.T, label string, got []Result, want []refContainment) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d results, want %d\ngot: %+v\nwant: %+v", label, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i].Domain.Key() != want[i].key || got[i].Containment != want[i].containment {
			t.Fatalf("%s: rank %d: got %s/%v, want %s/%v", label, i,
				got[i].Domain.Key(), got[i].Containment, want[i].key, want[i].containment)
		}
	}
}

// TestCrossCheckRandomizedLakes asserts the ID-based query path is
// byte-identical to the string-based reference on randomized lakes,
// thresholds and ks, with queries mixing lake-vocabulary and unknown
// tokens.
func TestCrossCheckRandomizedLakes(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		nd := 40 + rng.Intn(120)
		vocab := 300 + rng.Intn(500)
		var domains []Domain
		for i := 0; i < nd; i++ {
			n := 1 + rng.Intn(120)
			seen := make(map[string]bool, n)
			var vals []string
			for j := 0; j < n; j++ {
				v := fmt.Sprintf("val%05d", rng.Intn(vocab))
				if !seen[v] {
					seen[v] = true
					vals = append(vals, v)
				}
			}
			domains = append(domains, Domain{Table: fmt.Sprintf("t%03d", i), Column: rng.Intn(3), Values: vals})
		}
		dict := table.NewTokenDict()
		ix := Build(interned(dict, domains), Options{NumHashes: 128, NumPartitions: 4}, dict)
		for qi := 0; qi < 15; qi++ {
			qn := 1 + rng.Intn(80)
			query := make([]string, qn)
			for j := range query {
				if rng.Intn(8) == 0 {
					query[j] = fmt.Sprintf("unknown%04d", rng.Intn(1000))
				} else {
					query[j] = fmt.Sprintf("val%05d", rng.Intn(vocab))
				}
			}
			for _, th := range []float64{0.25, 0.5, 0.8} {
				for _, k := range []int{0, 1, 5} {
					label := fmt.Sprintf("seed=%d query=%d th=%v k=%d", seed, qi, th, k)
					got, _ := ix.QueryCtx(context.Background(), query, th, k)
					assertSameContainments(t, label, got, referenceQuery(ix, query, th, k))
				}
			}
		}
	}
}

// TestCrossCheckBandedPartitions is TestCrossCheckRandomizedLakes at a
// scale where every partition holds well over scanPartitionMax
// domains, so the banded candidate path — bypassed by the small-partition
// scan above — stays cross-checked against the string-based reference too.
func TestCrossCheckBandedPartitions(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const nd = 400
	vocab := 600
	var domains []Domain
	for i := 0; i < nd; i++ {
		n := 1 + rng.Intn(120)
		seen := make(map[string]bool, n)
		var vals []string
		for j := 0; j < n; j++ {
			v := fmt.Sprintf("val%05d", rng.Intn(vocab))
			if !seen[v] {
				seen[v] = true
				vals = append(vals, v)
			}
		}
		domains = append(domains, Domain{Table: fmt.Sprintf("t%03d", i), Column: rng.Intn(3), Values: vals})
	}
	dict := table.NewTokenDict()
	ix := Build(interned(dict, domains), Options{NumHashes: 128, NumPartitions: 2}, dict)
	for pi := range ix.parts {
		if n := len(ix.parts[pi].members); n <= scanPartitionMax {
			t.Fatalf("partition %d has %d domains — too small to exercise the banded path", pi, n)
		}
	}
	for qi := 0; qi < 10; qi++ {
		qn := 1 + rng.Intn(80)
		query := make([]string, qn)
		for j := range query {
			query[j] = fmt.Sprintf("val%05d", rng.Intn(vocab))
		}
		for _, th := range []float64{0.25, 0.5, 0.8} {
			label := fmt.Sprintf("banded query=%d th=%v", qi, th)
			got, _ := ix.QueryCtx(context.Background(), query, th, 0)
			assertSameContainments(t, label, got, referenceQuery(ix, query, th, 0))
		}
	}
}

// TestCrossCheckQueryDomainFastPath verifies the cached-domain fast path —
// pre-interned IDs, with MinHash fingerprints from the dictionary's cache —
// matches both the string QueryCtx and the reference.
func TestCrossCheckQueryDomainFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var domains []Domain
	for i := 0; i < 80; i++ {
		n := 5 + rng.Intn(60)
		seen := make(map[string]bool, n)
		var vals []string
		for j := 0; j < n; j++ {
			v := fmt.Sprintf("val%05d", rng.Intn(350))
			if !seen[v] {
				seen[v] = true
				vals = append(vals, v)
			}
		}
		domains = append(domains, Domain{Table: fmt.Sprintf("t%03d", i), Values: vals})
	}
	dict := table.NewTokenDict()
	ix := Build(interned(dict, domains), Options{NumHashes: 128, NumPartitions: 4}, dict)
	for i := 0; i < len(ix.domains); i += 9 {
		d := &ix.domains[i]
		if d.IDs == nil {
			t.Fatalf("domain %d missing cached IDs after Build", i)
		}
		for _, th := range []float64{0.3, 0.6} {
			label := fmt.Sprintf("domain=%d th=%v", i, th)
			want := referenceQuery(ix, d.Values, th, 0)
			cached, _ := ix.QueryDomainCtx(context.Background(), d, th, 0)
			assertSameContainments(t, label+" cached", cached, want)
			byStrings, _ := ix.QueryCtx(context.Background(), d.Values, th, 0)
			assertSameContainments(t, label+" strings", byStrings, want)
		}
	}
}
