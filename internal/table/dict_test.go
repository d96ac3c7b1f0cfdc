package table

import (
	"math"
	"sync"
	"testing"
)

// TestEqualKeyDictConsistency pins the identity the interned closure relies
// on: Equal(a,b) ⟺ Key(a)==Key(b) ⟺ Intern(a)==Intern(b), including the
// corners (NaN, integral floats, int/float pairs beyond 2^53, null kinds).
func TestEqualKeyDictConsistency(t *testing.T) {
	const big = int64(1) << 53
	vals := []Value{
		NullValue(), ProducedNull(),
		BoolValue(true), BoolValue(false),
		StringValue(""), StringValue("82"), StringValue("x"),
		IntValue(0), IntValue(82), IntValue(-82),
		IntValue(big), IntValue(big + 1), IntValue(-big - 1),
		FloatValue(82), FloatValue(82.5), FloatValue(-0.0),
		FloatValue(float64(big)), FloatValue(float64(big) + 2),
		FloatValue(math.NaN()), FloatValue(math.Inf(1)), FloatValue(math.Inf(-1)),
		FloatValue(0.1), FloatValue(1e300),
	}
	d := NewDict()
	for _, a := range vals {
		for _, b := range vals {
			eq := a.Equal(b)
			if keyEq := a.Key() == b.Key(); eq != keyEq {
				t.Errorf("Equal(%v,%v)=%v but Key equality=%v", a, b, eq, keyEq)
			}
			if idEq := d.Intern(a) == d.Intern(b); eq != idEq {
				t.Errorf("Equal(%v,%v)=%v but Dict ID equality=%v", a, b, eq, idEq)
			}
			if eq != b.Equal(a) {
				t.Errorf("Equal(%v,%v) is asymmetric", a, b)
			}
			if (a.Compare(b) == 0) != eq && !a.IsNull() {
				t.Errorf("Compare(%v,%v)==0 disagrees with Equal=%v", a, b, eq)
			}
		}
	}
}

func TestDictInternLookupRoundTrip(t *testing.T) {
	d := NewDict()
	vals := []Value{
		StringValue("Boston"),
		IntValue(82),
		FloatValue(3.5),
		BoolValue(true),
		StringValue(""),
		StringValue("boston"),
	}
	ids := make([]uint32, len(vals))
	for i, v := range vals {
		ids[i] = d.Intern(v)
		if ids[i] == NullID {
			t.Fatalf("non-null %v interned to NullID", v)
		}
	}
	// Dense assignment in interning order.
	for i, id := range ids {
		if id != uint32(i+1) {
			t.Fatalf("id of %v = %d, want %d", vals[i], id, i+1)
		}
	}
	if d.Len() != len(vals) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(vals))
	}
	// Round trip: representative is Equal to the interned value.
	for i, id := range ids {
		got, ok := d.Value(id)
		if !ok || !got.Equal(vals[i]) {
			t.Fatalf("Value(%d) = %v, %v; want %v", id, got, ok, vals[i])
		}
	}
	// Re-interning is stable.
	for i, v := range vals {
		if id := d.Intern(v); id != ids[i] {
			t.Fatalf("re-intern of %v = %d, want %d", v, id, ids[i])
		}
	}
}

func TestDictEqualValuesShareID(t *testing.T) {
	d := NewDict()
	// Int 82 and Float 82.0 are Equal, so they must share an ID.
	a := d.Intern(IntValue(82))
	b := d.Intern(FloatValue(82))
	if a != b {
		t.Fatalf("IntValue(82) id %d != FloatValue(82) id %d", a, b)
	}
	if c := d.Intern(FloatValue(82.5)); c == a {
		t.Fatalf("FloatValue(82.5) shares id %d with 82", c)
	}
	// Both null kinds intern to NullID.
	if id := d.Intern(NullValue()); id != NullID {
		t.Fatalf("NullValue interned to %d", id)
	}
	if id := d.Intern(ProducedNull()); id != NullID {
		t.Fatalf("ProducedNull interned to %d", id)
	}
}

func TestDictConcurrentInterning(t *testing.T) {
	d := NewDict()
	const goroutines = 16
	const distinct = 200
	got := make([][]uint32, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ids := make([]uint32, distinct)
			for i := 0; i < distinct; i++ {
				// Every goroutine interns the same values, in different
				// orders, racing on first sight.
				k := (i + g*7) % distinct
				ids[k] = d.Intern(IntValue(int64(k)))
			}
			got[g] = ids
		}(g)
	}
	wg.Wait()
	if d.Len() != distinct {
		t.Fatalf("Len = %d, want %d", d.Len(), distinct)
	}
	// All goroutines agree on every ID, and IDs are a permutation of
	// 1..distinct.
	seen := make(map[uint32]bool)
	for i := 0; i < distinct; i++ {
		id := got[0][i]
		for g := 1; g < goroutines; g++ {
			if got[g][i] != id {
				t.Fatalf("goroutines disagree on id of %d: %d vs %d", i, id, got[g][i])
			}
		}
		if id == NullID || id > distinct || seen[id] {
			t.Fatalf("id of %d = %d is not a fresh dense id", i, id)
		}
		seen[id] = true
		if v, ok := d.Value(id); !ok || !v.Equal(IntValue(int64(i))) {
			t.Fatalf("Value(%d) = %v, %v; want %d", id, v, ok, i)
		}
	}
}
