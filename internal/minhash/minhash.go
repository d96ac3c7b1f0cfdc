// Package minhash implements MinHash signatures for Jaccard-similarity
// estimation, the sketch underlying the LSH Ensemble joinable-table index
// (Zhu et al., VLDB 2016). Signatures are deterministic for a given family
// seed, which keeps discovery results and tests reproducible.
package minhash

import (
	"math/bits"
	"math/rand"
)

// mersennePrime is 2^61-1, the modulus of the multiply-add hash family.
const mersennePrime = (uint64(1) << 61) - 1

// Signature is a MinHash sketch: one minimum per hash function.
type Signature []uint64

// Family is a set of k pairwise-independent hash functions
// h_i(x) = (a_i*x + b_i) mod (2^61-1), applied to 64-bit FNV fingerprints
// of set members.
type Family struct {
	k int
	a []uint64
	b []uint64
}

// NewFamily creates a family of k hash functions seeded deterministically.
func NewFamily(k int, seed int64) *Family {
	if k <= 0 {
		panic("minhash: family size must be positive")
	}
	rng := rand.New(rand.NewSource(seed))
	f := &Family{k: k, a: make([]uint64, k), b: make([]uint64, k)}
	for i := 0; i < k; i++ {
		// a must be nonzero for the family to be pairwise independent.
		f.a[i] = uint64(rng.Int63n(int64(mersennePrime-1))) + 1
		f.b[i] = uint64(rng.Int63n(int64(mersennePrime)))
	}
	return f
}

// Fingerprint hashes a set member to 64 bits with FNV-1a, byte-identical
// to hash/fnv.New64a over the same bytes but without the hash.Hash
// allocation. Every discovery-side token hash (MinHash signatures, the
// TokenDict fingerprint cache) goes through this one function, so cached
// and freshly computed fingerprints always agree.
func Fingerprint(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Fingerprints hashes every set member to its 64-bit FNV fingerprint. The
// result is family-independent, so callers that sign the same set under
// several families — or rebuild an index with different parameters — can
// compute fingerprints once per lake and reuse them via
// SignFingerprintsInto.
func Fingerprints(set []string) []uint64 {
	out := make([]uint64, len(set))
	for i, s := range set {
		out[i] = Fingerprint(s)
	}
	return out
}

// signBlock is the number of fingerprints each permutation pass evaluates.
// Eight gives the superscalar core eight independent multiply chains per
// (a_i, b_i) load while the block of reduced fingerprints still lives in
// registers.
const signBlock = 8

// mix61 evaluates one hash: (a*x + b) mod 2^61-1 for x and b already below
// the modulus. The 128-bit product folds via 2^61 ≡ 1 (mod p); the folded
// value is < 2^62 ≤ 2p+1, so at most two conditional subtractions replace
// a general reduction loop — same values at every step, so results are
// bit-identical to the tests' mulmod reference.
func mix61(a, x, b uint64) uint64 {
	hi, lo := bits.Mul64(a, x)
	v := (hi<<3 | lo>>61) + (lo & mersennePrime)
	if v >= mersennePrime {
		v -= mersennePrime
	}
	if v >= mersennePrime {
		v -= mersennePrime
	}
	v += b
	if v >= mersennePrime {
		v -= mersennePrime
	}
	return v
}

// SignFingerprintsInto computes the MinHash signature of a set from its
// members' fingerprints (see Fingerprints) into dst, reused when it has
// capacity (its previous contents are discarded). Duplicates are harmless
// (min is idempotent); an empty set yields a signature of all MaxUint64.
//
// The kernel is batched: fingerprints are reduced modulo 2^61-1 once and
// processed signBlock at a time with the hash-function loop outermost, so
// each a_i/b_i (and the running minimum sig[i]) is loaded once per block
// instead of once per member, and the eight hash evaluations per iteration
// are independent multiply chains the CPU can overlap. min is commutative
// and each (a_i, x, b_i) evaluation is exactly (a_i*x + b_i) mod 2^61-1,
// so the signature is bit-identical to the scalar reference — pinned by TestSignMatchesMulmod
// and the randomized batched-vs-scalar cross-check.
func (f *Family) SignFingerprintsInto(fps []uint64, dst Signature) Signature {
	sig := dst
	if cap(sig) < f.k {
		sig = make(Signature, f.k)
	}
	sig = sig[:f.k]
	for i := range sig {
		sig[i] = ^uint64(0)
	}
	a, b := f.a, f.b
	var xs [signBlock]uint64
	n := len(fps)
	base := 0
	for ; n-base >= signBlock; base += signBlock {
		for j := range xs {
			xs[j] = fps[base+j] % mersennePrime
		}
		x0, x1, x2, x3 := xs[0], xs[1], xs[2], xs[3]
		x4, x5, x6, x7 := xs[4], xs[5], xs[6], xs[7]
		for i := 0; i < f.k; i++ {
			ai, bi := a[i], b[i]
			m := sig[i]
			if v := mix61(ai, x0, bi); v < m {
				m = v
			}
			if v := mix61(ai, x1, bi); v < m {
				m = v
			}
			if v := mix61(ai, x2, bi); v < m {
				m = v
			}
			if v := mix61(ai, x3, bi); v < m {
				m = v
			}
			if v := mix61(ai, x4, bi); v < m {
				m = v
			}
			if v := mix61(ai, x5, bi); v < m {
				m = v
			}
			if v := mix61(ai, x6, bi); v < m {
				m = v
			}
			if v := mix61(ai, x7, bi); v < m {
				m = v
			}
			sig[i] = m
		}
	}
	if base < n {
		blk := n - base
		for j := 0; j < blk; j++ {
			xs[j] = fps[base+j] % mersennePrime
		}
		for i := 0; i < f.k; i++ {
			ai, bi := a[i], b[i]
			m := sig[i]
			for j := 0; j < blk; j++ {
				if v := mix61(ai, xs[j], bi); v < m {
					m = v
				}
			}
			sig[i] = m
		}
	}
	return sig
}

// JaccardForContainment converts a containment threshold t = |Q∩X|/|Q| into
// the equivalent Jaccard threshold j = t / (1 + x/q - t) for a domain of
// size x and query of size q, the inclusion LSH Ensemble uses to query
// Jaccard-based LSH for containment search. The conversion uses the
// partition's upper bound on x, making it a lower bound on the true Jaccard
// (no false negatives from the conversion itself).
func JaccardForContainment(t float64, querySize, domainUpper int) float64 {
	if querySize <= 0 {
		return 0
	}
	den := 1 + float64(domainUpper)/float64(querySize) - t
	if den <= 0 {
		return 1
	}
	j := t / den
	if j > 1 {
		return 1
	}
	if j < 0 {
		return 0
	}
	return j
}
