package minhash

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tokenize"
)

// mulmod is the reference hash: (a*x + b) mod 2^61-1 with 128-bit
// intermediate math and a general reduction loop, reducing x and b itself.
func mulmod(a, x, b uint64) uint64 {
	hi, lo := bits.Mul64(a, x%mersennePrime)
	// Fold the 128-bit product modulo 2^61-1: since 2^61 ≡ 1 (mod p),
	// value = hi*2^64 + lo = hi*8*2^61 + lo ≡ hi*8 + lo (mod p), applied
	// iteratively to keep within range.
	v := (hi<<3 | lo>>61) + (lo & mersennePrime)
	for v >= mersennePrime {
		v -= mersennePrime
	}
	v += b % mersennePrime
	if v >= mersennePrime {
		v -= mersennePrime
	}
	return v
}

// Sign is the reference signature of a string set: every member's
// Fingerprint hashed by each function of the family through mulmod, keeping
// the minimum. It shares only Fingerprint with SignFingerprintsInto.
func (f *Family) Sign(set []string) Signature {
	sig := make(Signature, f.k)
	for i := range sig {
		sig[i] = ^uint64(0)
	}
	for _, s := range set {
		x := Fingerprint(s)
		for i := range sig {
			if h := mulmod(f.a[i], x, f.b[i]); h < sig[i] {
				sig[i] = h
			}
		}
	}
	return sig
}

// EstimateJaccard estimates the Jaccard similarity of the sets behind two
// signatures from the same family: the fraction of agreeing components.
func EstimateJaccard(a, b Signature) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	eq := 0
	for i := range a {
		if a[i] == b[i] {
			eq++
		}
	}
	return float64(eq) / float64(len(a))
}

func setOf(n, offset int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("member-%d", i+offset)
	}
	return out
}

func TestNewFamilyValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewFamily(0) must panic")
		}
	}()
	NewFamily(0, 1)
}

func TestSignDeterministic(t *testing.T) {
	f := NewFamily(64, 42)
	a := f.Sign([]string{"x", "y", "z"})
	b := f.Sign([]string{"z", "y", "x", "x"}) // order and dups irrelevant
	if len(a) != 64 {
		t.Fatalf("signature length = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("signatures differ at %d", i)
		}
	}
	g := NewFamily(64, 43)
	c := g.Sign([]string{"x", "y", "z"})
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds should give different signatures")
	}
}

func TestIdenticalSetsEstimateOne(t *testing.T) {
	f := NewFamily(128, 1)
	s := f.Sign(setOf(100, 0))
	if got := EstimateJaccard(s, s); got != 1 {
		t.Errorf("self similarity = %v, want 1", got)
	}
}

func TestDisjointSetsEstimateNearZero(t *testing.T) {
	f := NewFamily(256, 7)
	a := f.Sign(setOf(200, 0))
	b := f.Sign(setOf(200, 10000))
	if got := EstimateJaccard(a, b); got > 0.05 {
		t.Errorf("disjoint estimate = %v, want near 0", got)
	}
}

func TestEstimateAccuracy(t *testing.T) {
	// True Jaccard of [0,150) vs [50,200) is 100/200 = 0.5.
	f := NewFamily(512, 11)
	a := setOf(150, 0)
	b := setOf(150, 50)
	truth := tokenize.Jaccard(a, b)
	est := EstimateJaccard(f.Sign(a), f.Sign(b))
	if math.Abs(est-truth) > 0.08 {
		t.Errorf("estimate %v too far from truth %v", est, truth)
	}
}

func TestEstimateMismatchedLengths(t *testing.T) {
	f := NewFamily(16, 3)
	g := NewFamily(32, 3)
	if EstimateJaccard(f.Sign([]string{"a"}), g.Sign([]string{"a"})) != 0 {
		t.Error("mismatched signature lengths must estimate 0")
	}
	if EstimateJaccard(nil, nil) != 0 {
		t.Error("empty signatures must estimate 0")
	}
}

func TestEstimateRangeProperty(t *testing.T) {
	f := NewFamily(64, 99)
	fn := func(a, b []string) bool {
		e := EstimateJaccard(f.Sign(a), f.Sign(b))
		return e >= 0 && e <= 1
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSubsetEstimateMonotone(t *testing.T) {
	// A bigger intersection should estimate at least roughly higher.
	f := NewFamily(512, 5)
	base := setOf(100, 0)
	near := f.Sign(setOf(100, 10)) // 90% overlap
	far := f.Sign(setOf(100, 80))  // 20% overlap
	qb := f.Sign(base)
	if EstimateJaccard(qb, near) <= EstimateJaccard(qb, far) {
		t.Error("estimates should order by true similarity")
	}
}

func TestJaccardForContainment(t *testing.T) {
	// Equal sizes, containment 1 -> jaccard 1.
	if j := JaccardForContainment(1, 100, 100); j != 1 {
		t.Errorf("J(1,100,100) = %v, want 1", j)
	}
	// Domain twice the query, containment 1 -> jaccard 1/2.
	if j := JaccardForContainment(1, 100, 200); math.Abs(j-0.5) > 1e-12 {
		t.Errorf("J(1,100,200) = %v, want 0.5", j)
	}
	// t=0.5, x=q: j = 0.5/(1+1-0.5) = 1/3.
	if j := JaccardForContainment(0.5, 100, 100); math.Abs(j-1.0/3) > 1e-12 {
		t.Errorf("J(0.5,100,100) = %v, want 1/3", j)
	}
	if JaccardForContainment(0.5, 0, 10) != 0 {
		t.Error("empty query must convert to 0")
	}
	// Result is clamped to [0,1].
	if j := JaccardForContainment(1.5, 10, 1); j < 0 || j > 1 {
		t.Errorf("clamping broken: %v", j)
	}
}

func TestJaccardForContainmentMonotoneInThreshold(t *testing.T) {
	prev := -1.0
	for _, tt := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		j := JaccardForContainment(tt, 50, 150)
		if j < prev {
			t.Errorf("conversion must be monotone in t: J(%v)=%v < %v", tt, j, prev)
		}
		prev = j
	}
}

func TestSignFingerprintsMatchesSign(t *testing.T) {
	f := NewFamily(64, 7)
	set := []string{"boston", "chicago", "austin", "miami", ""}
	fps := Fingerprints(set)
	a, b := f.Sign(set), f.SignFingerprintsInto(fps, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("component %d: Sign=%d SignFingerprintsInto=%d", i, a[i], b[i])
		}
	}
	// Fingerprints are family-independent: a second family signs the same
	// fingerprints to the same result as signing the raw set.
	g := NewFamily(64, 99)
	c, d := g.Sign(set), g.SignFingerprintsInto(fps, nil)
	for i := range c {
		if c[i] != d[i] {
			t.Fatalf("family 2 component %d: Sign=%d SignFingerprintsInto=%d", i, c[i], d[i])
		}
	}
}

func TestMulmodInRange(t *testing.T) {
	f := func(a, x, b uint64) bool {
		return mulmod(a, x, b) < mersennePrime
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestSignMatchesMulmod pins the hoisted-reduction signing loop to the
// generic mulmod definition: signatures must be bit-identical to the naive
// per-(member, hash) mulmod evaluation.
func TestSignMatchesMulmod(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	f := NewFamily(96, 7)
	fps := make([]uint64, 300)
	for i := range fps {
		fps[i] = rng.Uint64() // includes values at and above the modulus
	}
	fps = append(fps, 0, mersennePrime-1, mersennePrime, mersennePrime+1, ^uint64(0))
	got := f.SignFingerprintsInto(fps, nil)
	want := make(Signature, f.k)
	for i := range want {
		want[i] = ^uint64(0)
	}
	for _, fp := range fps {
		for i := 0; i < f.k; i++ {
			if h := mulmod(f.a[i], fp, f.b[i]); h < want[i] {
				want[i] = h
			}
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("component %d: got %d, want %d", i, got[i], want[i])
		}
	}
}

// SignScalarInto is the pre-batching signing kernel: one fingerprint per
// permutation pass, mulmod with the loop-invariant reductions hoisted. It is
// the reference the batched SignFingerprintsInto is cross-checked and
// benchmarked against (BenchmarkSignKernel).
func (f *Family) SignScalarInto(fps []uint64, dst Signature) Signature {
	sig := dst
	if cap(sig) < f.k {
		sig = make(Signature, f.k)
	}
	sig = sig[:f.k]
	for i := range sig {
		sig[i] = ^uint64(0)
	}
	a, b := f.a, f.b
	for _, fp := range fps {
		x := fp % mersennePrime
		for i := 0; i < f.k; i++ {
			hi, lo := bits.Mul64(a[i], x)
			v := (hi<<3 | lo>>61) + (lo & mersennePrime)
			for v >= mersennePrime {
				v -= mersennePrime
			}
			v += b[i]
			if v >= mersennePrime {
				v -= mersennePrime
			}
			if v < sig[i] {
				sig[i] = v
			}
		}
	}
	return sig
}

// TestSignBatchedMatchesScalar cross-checks the batched kernel against the
// retained scalar reference across fingerprint-count edge cases: empty, a
// single member, counts around the block size (so both the full-block body
// and every tail length run), and a set far larger than any block. Random
// fingerprints cover values at and above the modulus.
func TestSignBatchedMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	families := []*Family{NewFamily(1, 3), NewFamily(96, 7), NewFamily(128, 1)}
	counts := []int{0, 1, 2, signBlock - 1, signBlock, signBlock + 1,
		3*signBlock - 2, 8 * signBlock, 1000, 4097}
	for _, f := range families {
		for _, n := range counts {
			fps := make([]uint64, 0, n+5)
			for i := 0; i < n; i++ {
				fps = append(fps, rng.Uint64())
			}
			if n > 0 {
				// Pin the modulus edge values into every non-empty case.
				fps[0] = 0
				fps = append(fps[:n-1], mersennePrime-1, mersennePrime, mersennePrime+1, ^uint64(0))
			}
			got := f.SignFingerprintsInto(fps, nil)
			want := f.SignScalarInto(fps, nil)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("k=%d n=%d component %d: batched %d != scalar %d",
						f.k, len(fps), i, got[i], want[i])
				}
			}
		}
	}
}

// BenchmarkSignKernel compares the batched signing kernel against the
// scalar reference over a lake-typical domain.
func BenchmarkSignKernel(b *testing.B) {
	f := NewFamily(128, 1)
	rng := rand.New(rand.NewSource(9))
	fps := make([]uint64, 512)
	for i := range fps {
		fps[i] = rng.Uint64()
	}
	var sink Signature
	b.Run("batched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = f.SignFingerprintsInto(fps, sink)
		}
	})
	b.Run("scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink = f.SignScalarInto(fps, sink)
		}
	})
	_ = sink
}
