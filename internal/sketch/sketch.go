// Package sketch is the per-domain set summary behind the LSH Ensemble
// containment index: a Sketch is the MinHash signature of one value set's
// fingerprints — coordinate-aligned minima over a permutation family, which
// the ensemble bands for sub-linear probing — and a Builder signs sketches
// for one (size, seed) geometry. MinHash is the one engine.
package sketch

import (
	"fmt"

	"repro/internal/minhash"
)

// Engine names a sketch implementation.
type Engine string

// MinHash is the coordinate-aligned signature engine: the only one this
// build implements.
const MinHash Engine = "minhash"

// Params configures a Builder.
type Params struct {
	// Engine must be MinHash or empty (which means MinHash).
	Engine Engine
	// Size is the signature length. Must be positive.
	Size int
	// Seed makes sketches deterministic per (size, seed).
	Seed int64
}

// Sketch is one set's MinHash signature: exactly Size words, position i
// holding the i-th permutation's minimum. Sketches are only comparable under
// the Builder that produced them.
type Sketch []uint64

// Builder signs fingerprint multisets into sketches. Implementations are
// safe for concurrent use.
type Builder interface {
	// SignInto computes the sketch of a fingerprint multiset, writing into
	// dst when it has capacity (previous contents discarded). Duplicate
	// fingerprints are harmless: the sketch of a multiset equals the sketch
	// of its distinct set.
	SignInto(fps []uint64, dst Sketch) Sketch
}

// New constructs the builder for p. Engines other than MinHash and
// non-positive sizes are errors, never guessed at.
func New(p Params) (Builder, error) {
	if p.Engine != "" && p.Engine != MinHash {
		return nil, fmt.Errorf("sketch: unknown sketch engine %q (this build implements only %q)", p.Engine, MinHash)
	}
	if p.Size <= 0 {
		return nil, fmt.Errorf("sketch: size must be positive, got %d", p.Size)
	}
	return &minhashBuilder{family: minhash.NewFamily(p.Size, p.Seed)}, nil
}

// minhashBuilder adapts minhash.Family to the Builder interface.
type minhashBuilder struct {
	family *minhash.Family
}

func (b *minhashBuilder) SignInto(fps []uint64, dst Sketch) Sketch {
	return Sketch(b.family.SignFingerprintsInto(fps, minhash.Signature(dst)))
}
