package table

import (
	"testing"

	"repro/internal/minhash"
)

// FuzzDictIntern pins the value dictionary's core contract under arbitrary
// inputs: interning is idempotent (same value, same ID), Lookup agrees with
// Intern without growing the dictionary, and the representative stored
// under an ID is Equal to every value interned there — including the
// deliberate Int/integral-Float collision of Value.Key.
func FuzzDictIntern(f *testing.F) {
	f.Add("berlin", int64(42), 42.0, true)
	f.Add("", int64(-1), 0.5, false)
	f.Add("⊥", int64(1<<62), -0.0, true)
	f.Add("x\x00y", int64(0), 1e300, false)
	f.Fuzz(func(t *testing.T, s string, i int64, fl float64, b bool) {
		d := NewDict()
		vals := []Value{StringValue(s), IntValue(i), FloatValue(fl), BoolValue(b), NullValue()}
		ids := make([]uint32, len(vals))
		for k, v := range vals {
			ids[k] = d.Intern(v)
			if v.IsNull() {
				if ids[k] != NullID {
					t.Fatalf("null interned to %d", ids[k])
				}
				continue
			}
			if ids[k] == NullID {
				t.Fatalf("non-null %v interned to NullID", v)
			}
		}
		sizeAfter := d.Len()
		for k, v := range vals {
			// Re-interning returns the first ID and never grows.
			if again := d.Intern(v); again != ids[k] {
				t.Fatalf("re-intern of %v: %d then %d", v, ids[k], again)
			}
			rep, ok := d.Value(ids[k])
			if !ok || !rep.Equal(v) {
				t.Fatalf("Value(%d) = %v (ok=%v), not Equal to %v", ids[k], rep, ok, v)
			}
		}
		if d.Len() != sizeAfter {
			t.Fatalf("re-interning grew the dictionary: %d -> %d", sizeAfter, d.Len())
		}
		// Two values share an ID exactly when Equal: the Int/integral-Float
		// collision must hold both ways.
		if fl == float64(int64(fl)) && i == int64(fl) {
			if ids[1] != ids[2] {
				t.Fatalf("Int %d and integral Float %v interned apart: %d vs %d", i, fl, ids[1], ids[2])
			}
		}
	})
}

// FuzzTokenDictIntern pins the token dictionary round trip: Intern/Lookup
// agree, Token inverts Intern exactly, the cached fingerprint equals the
// direct FNV-1a hash, and batch interning (InternAll) matches one-by-one
// interning.
func FuzzTokenDictIntern(f *testing.F) {
	f.Add("berlin", "new york")
	f.Add("", "a")
	f.Add("tok tok", "tok tok")
	f.Add("\xff\xfe", "日本")
	f.Fuzz(func(t *testing.T, tok1, tok2 string) {
		d := NewTokenDict()
		id1 := d.Intern(tok1)
		if id1 == 0 {
			t.Fatal("Intern returned the unknown-token sentinel")
		}
		if got := d.Lookup(tok1); got != id1 {
			t.Fatalf("Lookup(%q) = %d, want %d", tok1, got, id1)
		}
		if back, ok := d.Token(id1); !ok || back != tok1 {
			t.Fatalf("Token(%d) = %q,%v want %q", id1, back, ok, tok1)
		}
		if got, want := d.Fingerprint(id1), minhash.Fingerprint(tok1); got != want {
			t.Fatalf("cached fingerprint %x != direct hash %x", got, want)
		}
		id2 := d.Intern(tok2)
		if (id1 == id2) != (tok1 == tok2) {
			t.Fatalf("ID equality (%d,%d) disagrees with token equality (%q,%q)", id1, id2, tok1, tok2)
		}
		// Batch interning into a fresh dictionary assigns the same contents.
		d2 := NewTokenDict()
		ids := d2.InternAll([]string{tok1, tok2, tok1}, nil)
		if ids[0] != ids[2] {
			t.Fatalf("InternAll assigned %q two IDs: %d, %d", tok1, ids[0], ids[2])
		}
		if (ids[0] == ids[1]) != (tok1 == tok2) {
			t.Fatal("InternAll ID equality disagrees with token equality")
		}
		for k, tok := range []string{tok1, tok2} {
			if back, ok := d2.Token(ids[k]); !ok || back != tok {
				t.Fatalf("batch Token(%d) = %q,%v want %q", ids[k], back, ok, tok)
			}
			if got, want := d2.Fingerprint(ids[k]), minhash.Fingerprint(tok); got != want {
				t.Fatalf("batch fingerprint %x != direct hash %x", got, want)
			}
		}
		if d.Len() != d2.Len() {
			t.Fatalf("batch and serial interning disagree on size: %d vs %d", d2.Len(), d.Len())
		}
	})
}
