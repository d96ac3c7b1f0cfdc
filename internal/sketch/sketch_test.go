package sketch

import (
	"fmt"
	"testing"

	"repro/internal/minhash"
)

func mustBuilder(t *testing.T, p Params) Builder {
	t.Helper()
	b, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func fpsOf(n, offset int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = minhash.Fingerprint(fmt.Sprintf("member-%d", i+offset))
	}
	return out
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Params{Engine: "hll", Size: 64}); err == nil {
		t.Error("unknown engine must be rejected")
	}
	if _, err := New(Params{Engine: MinHash, Size: 0}); err == nil {
		t.Error("non-positive size must be rejected")
	}
	mustBuilder(t, Params{Size: 32, Seed: 1}) // empty engine means MinHash
}

// TestMinHashBuilderMatchesFamily pins the adapter to the minhash package:
// same size, same seed, bit-identical sketches.
func TestMinHashBuilderMatchesFamily(t *testing.T) {
	b := mustBuilder(t, Params{Engine: MinHash, Size: 96, Seed: 7})
	fam := minhash.NewFamily(96, 7)
	fps := fpsOf(150, 3)
	got := b.SignInto(fps, nil)
	want := fam.SignFingerprintsInto(fps, nil)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("component %d: builder %d != family %d", i, got[i], want[i])
		}
	}
}
