package fd

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/table"
)

// refSortTuples is sortTuples as it was before it sorted a permutation,
// kept verbatim as the reference: a stable sort of the tuples themselves.
func refSortTuples(tuples []Tuple) {
	slices.SortStableFunc(tuples, func(a, b Tuple) int {
		if c := table.CompareRows(a.Values, b.Values); c != 0 {
			return c
		}
		// The comma-joined form is the order, not slices.Compare: ["a!"]
		// sorts before ["a", "b"] here ('!' < ','), after it there.
		return strings.Compare(strings.Join(a.Prov, ","), strings.Join(b.Prov, ","))
	})
}

// TestQuickSortTuplesMatchesReference pins sortTuples to the stable sort it
// replaced, on tuples with many value ties (one to three columns over a
// five-value alphabet, both null kinds, an Int and the Float it equals)
// and provenance that ties too, differs only in its comma-joined form
// (["a!"] against ["a", "b"]) or is empty. Every tuple carries its input
// index as its values' spare capacity, which no comparison reads, so a
// full tie broken differently shows.
func TestQuickSortTuplesMatchesReference(t *testing.T) {
	vals := []table.Value{
		table.NullValue(), table.ProducedNull(), table.IntValue(5), table.FloatValue(5),
		table.StringValue("a"),
	}
	provs := [][]string{nil, {"a"}, {"a!"}, {"a", "b"}, {"a", "b"}, {"t1", "t10"}, {"t1", "t9"}}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cols := 1 + rng.Intn(3)
		n := rng.Intn(60)
		in := make([]Tuple, n)
		for i := range in {
			v := make([]table.Value, cols, cols+i)
			for c := range v {
				v[c] = vals[rng.Intn(len(vals))]
			}
			in[i] = Tuple{Values: v, Prov: provs[rng.Intn(len(provs))]}
		}
		got, want := slices.Clone(in), slices.Clone(in)
		sortTuples(got)
		refSortTuples(want)
		for k := range got {
			if cap(got[k].Values) != cap(want[k].Values) {
				return false
			}
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
