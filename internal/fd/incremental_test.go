package fd

import (
	"math/rand"
	"testing"
)

func TestIncrementalMatchesRecomputation(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for iter := 0; iter < 80; iter++ {
		in := randomInput(rng)
		if len(in.Tuples) < 2 {
			continue
		}
		split := 1 + rng.Intn(len(in.Tuples)-1)
		inc := NewIncremental(in.Schema, in.Tuples[:split])
		inc.Add(in.Tuples[split:])
		full := alite(in)
		if !sameValues(inc.Result(), full) {
			t.Fatalf("iteration %d: incremental diverges from recomputation\nincremental:\n%s\nfull:\n%s",
				iter, valuesTable("i", in.Schema, inc.Result()), valuesTable("f", in.Schema, full))
		}
	}
}

func TestIncrementalOneTupleAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 30; iter++ {
		in := randomInput(rng)
		inc := NewIncremental(in.Schema, nil)
		for _, tu := range in.Tuples {
			inc.Add([]Tuple{tu})
		}
		if !sameValues(inc.Result(), alite(in)) {
			t.Fatalf("iteration %d: tuple-at-a-time diverges", iter)
		}
	}
}

func TestIncrementalOnFig8(t *testing.T) {
	// Integrate T4 and T5 first, then T6 arrives (a later discovery). The
	// closure must have kept t13 (subsumed by f8) so that f13 can form.
	in := fig8Input(t)
	inc := NewIncremental(in.Schema, in.Tuples[:4]) // t11..t14
	inc.Add(in.Tuples[4:])                          // t15, t16
	got := inc.Result()
	if !sameValues(got, alite(in)) {
		t.Fatalf("incremental Fig. 8 result diverges:\n%s", valuesTable("g", in.Schema, got))
	}
	found := false
	for _, tu := range got {
		if tu.Values[0].String() == "J&J" && tu.Values[1].String() == "FDA" {
			found = true
			if len(tu.Prov) != 2 || tu.Prov[0] != "t13" || tu.Prov[1] != "t15" {
				t.Errorf("f13 provenance = %v", tu.Prov)
			}
		}
	}
	if !found {
		t.Error("incremental integration lost f13 — closure state must retain subsumed tuples")
	}
}

func TestIncrementalResultDoesNotConsumeState(t *testing.T) {
	in := fig8Input(t)
	inc := NewIncremental(in.Schema, in.Tuples[:4])
	before := inc.ClosureSize()
	_ = inc.Result()
	if inc.ClosureSize() != before {
		t.Error("Result must not mutate the closure")
	}
	inc.Add(in.Tuples[4:])
	if inc.ClosureSize() <= before {
		t.Error("Add must grow the closure")
	}
	if !sameValues(inc.Result(), alite(in)) {
		t.Error("adding after Result must still converge")
	}
}

func TestIncrementalEmptyAndDuplicates(t *testing.T) {
	in := fig8Input(t)
	inc := NewIncremental(in.Schema, in.Tuples)
	base := inc.Result()
	inc.Add(nil)
	inc.Add(in.Tuples) // already covered
	if !sameValues(base, inc.Result()) {
		t.Error("no-op adds changed the result")
	}
	if len(inc.Schema()) != 3 {
		t.Errorf("schema = %v", inc.Schema())
	}
}
