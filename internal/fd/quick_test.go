package fd

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/table"
)

// TestQuickClosureEqualsEnumeration drives the randomized ALITE-vs-Naive
// equivalence through testing/quick: any seed must produce agreeing
// outputs.
func TestQuickClosureEqualsEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		in := randomInput(rand.New(rand.NewSource(seed)))
		a := ALITE(in)
		n, err := Naive(in)
		if err != nil {
			return false
		}
		return sameValues(a, n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickSharedDictClosure: running ALITE over a shared, pre-populated
// lake-wide dictionary changes nothing — values, provenance, and ordering
// are identical to private-dictionary runs, and reusing the same
// dictionary across many closures is safe.
func TestQuickSharedDictClosure(t *testing.T) {
	dict := table.NewDict()
	same := func(a, b []Tuple) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Key() != b[i].Key() || !reflect.DeepEqual(a[i].Prov, b[i].Prov) {
				return false
			}
		}
		return true
	}
	f := func(seed int64) bool {
		in := randomInput(rand.New(rand.NewSource(seed)))
		shared := in
		shared.Dict = dict
		// Shared-dict runs must match fresh-dict runs exactly — values,
		// provenance, and ordering.
		return same(ALITE(shared), ALITE(in))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickIncrementalEqualsBatch: feeding a random input tuple-by-tuple
// through the incremental closure converges to the batch ALITE result.
func TestQuickIncrementalEqualsBatch(t *testing.T) {
	f := func(seed int64) bool {
		in := randomInput(rand.New(rand.NewSource(seed)))
		inc := NewIncremental(in.Schema, nil)
		for _, tu := range in.Tuples {
			inc.Add([]Tuple{tu})
		}
		batch := ALITE(in)
		got := inc.Result()
		if len(got) != len(batch) {
			return false
		}
		for i := range batch {
			if got[i].Key() != batch[i].Key() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickRemoveSubsumedAntichain: for any random tuple set, the
// survivors of subsumption removal form an antichain that still covers
// every input tuple.
func TestQuickRemoveSubsumedAntichain(t *testing.T) {
	f := func(seed int64) bool {
		in := randomInput(rand.New(rand.NewSource(seed)))
		out := RemoveSubsumed(in.Tuples)
		for i := range out {
			for j := range out {
				if i != j && Subsumes(out[j].Values, out[i].Values) && out[i].Key() != out[j].Key() {
					return false
				}
			}
		}
		for _, src := range in.Tuples {
			covered := false
			for _, o := range out {
				if Subsumes(o.Values, src.Values) {
					covered = true
					break
				}
			}
			if !covered {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickRemoveSubsumedContract pins RemoveSubsumed's documented contract
// against a brute-force reference built from Subsumes and Tuple.Key: of
// each set of value-duplicates only the first occurrence's struct (its
// provenance and null kinds included) survives, a survivor is subsumed by no
// other distinct tuple, and survivors keep input order. Random inputs are
// salted with value-duplicates that carry fresh provenance and flipped null
// kinds, inserted at random positions.
func TestQuickRemoveSubsumedContract(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tuples := randomInput(rng).Tuples
		for k, dups := 0, rng.Intn(6); k < dups; k++ {
			src := tuples[rng.Intn(len(tuples))]
			vals := append([]table.Value(nil), src.Values...)
			for i, v := range vals {
				if v.IsNull() && rng.Intn(2) == 0 {
					if v.Kind() == table.Null {
						vals[i] = table.ProducedNull()
					} else {
						vals[i] = table.NullValue()
					}
				}
			}
			at := rng.Intn(len(tuples) + 1)
			dup := Tuple{Values: vals, Prov: []string{"d" + string(rune('0'+k))}}
			tuples = append(tuples[:at], append([]Tuple{dup}, tuples[at:]...)...)
		}
		seen := map[string]bool{}
		var firsts []Tuple
		for _, tu := range tuples {
			if !seen[tu.Key()] {
				seen[tu.Key()] = true
				firsts = append(firsts, tu)
			}
		}
		var want []Tuple
		for i, tu := range firsts {
			subsumed := false
			for j, other := range firsts {
				if i != j && Subsumes(other.Values, tu.Values) {
					subsumed = true
					break
				}
			}
			if !subsumed {
				want = append(want, tu)
			}
		}
		return reflect.DeepEqual(RemoveSubsumed(tuples), want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickMergeProperties: merging complementable tuples is commutative
// in values and subsumes both sides.
func TestQuickMergeProperties(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInput(rng)
		for i := 0; i < len(in.Tuples); i++ {
			for j := i + 1; j < len(in.Tuples); j++ {
				a, b := in.Tuples[i], in.Tuples[j]
				if !Complementable(a.Values, b.Values) {
					continue
				}
				m1 := Merge(a, b)
				m2 := Merge(b, a)
				if m1.Key() != m2.Key() {
					return false
				}
				if !Subsumes(m1.Values, a.Values) || !Subsumes(m1.Values, b.Values) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickComplementableSymmetric: complementability is symmetric.
func TestQuickComplementableSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := randomInput(rng)
		for i := 0; i < len(in.Tuples); i++ {
			for j := i + 1; j < len(in.Tuples); j++ {
				if Complementable(in.Tuples[i].Values, in.Tuples[j].Values) !=
					Complementable(in.Tuples[j].Values, in.Tuples[i].Values) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickOuterUnionPreservesCells: padding never alters source cells.
func TestQuickOuterUnionPreservesCells(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tb := table.New("t", "a", "b")
		n := 1 + rng.Intn(6)
		for i := 0; i < n; i++ {
			tb.MustAddRow(randValue(rng), randValue(rng))
		}
		in, err := OuterUnion([]string{"x", "y", "z"}, []Relation{{Table: tb, ColPos: []int{2, 0}}})
		if err != nil {
			return false
		}
		for r := 0; r < n; r++ {
			tu := in.Tuples[r]
			if !tu.Values[2].Equal(tb.Rows[r][0]) || !tu.Values[0].Equal(tb.Rows[r][1]) {
				return false
			}
			if tu.Values[1].Kind() != table.PNull {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func randValue(rng *rand.Rand) table.Value {
	switch rng.Intn(4) {
	case 0:
		return table.NullValue()
	case 1:
		return table.IntValue(int64(rng.Intn(5)))
	case 2:
		return table.BoolValue(rng.Intn(2) == 0)
	default:
		return table.StringValue(string(rune('a' + rng.Intn(4))))
	}
}
