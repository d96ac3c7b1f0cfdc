package fd

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/table"
)

// denseInput builds a closure-heavy input: tuples share values across
// positions, so the complementation closure performs many rounds before
// fixpoint — enough work for a cancellation to land mid-closure.
func denseInput(tuples, cols int, seed int64) Input {
	rng := rand.New(rand.NewSource(seed))
	schema := make([]string, cols)
	for i := range schema {
		schema[i] = string(rune('a' + i))
	}
	in := Input{Schema: schema}
	for i := 0; i < tuples; i++ {
		vals := make([]table.Value, cols)
		for c := range vals {
			if rng.Intn(3) == 0 {
				vals[c] = table.ProducedNull()
			} else {
				vals[c] = table.IntValue(int64(rng.Intn(8)))
			}
		}
		in.Tuples = append(in.Tuples, Tuple{Values: vals, Prov: []string{"t" + string(rune('0'+i%10))}})
	}
	return in
}

func TestALITECtxUncancelledIdentical(t *testing.T) {
	in := denseInput(120, 5, 1)
	want := ALITE(in)
	got, err := ALITECtx(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("ALITECtx diverges: %d vs %d tuples", len(got), len(want))
	}
	for i := range got {
		if table.CompareRows(got[i].Values, want[i].Values) != 0 {
			t.Fatalf("tuple %d differs", i)
		}
	}
}

func TestALITECtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if out, err := ALITECtx(ctx, denseInput(50, 4, 2)); !errors.Is(err, context.Canceled) || out != nil {
		t.Fatalf("pre-cancelled ALITECtx = (%v, %v), want (nil, Canceled)", out, err)
	}
}
