package er

// The string reference scorer: per-comparison canonicalization through
// KB.SameEntity, with no annotation codes and no memo. Resolution and
// training score cells through the value table instead; the references in
// crosscheck_test.go and resolve_reference_test.go (Similarity,
// refResolveLearned) score through these, and TestTrainLogisticMatchesReference
// trains through Features.

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/kb"
	"repro/internal/table"
)

// cellSimilarity scores two non-null cells in [0,1]. Reference
// implementation; resolution and training use valueTable.similarity.
func cellSimilarity(a, b table.Value, knowledge *kb.KB) float64 {
	if a.Equal(b) {
		return 1
	}
	af, aok := a.AsFloat()
	bf, bok := b.AsFloat()
	if aok && bok {
		return numericSimilarity(af, bf)
	}
	as, bs := a.String(), b.String()
	if knowledge != nil && knowledge.SameEntity(as, bs) {
		return 1
	}
	fa, fb := newTextFeat(as), newTextFeat(bs)
	return fa.similarity(&fb)
}

// Features computes the learned matcher's feature vector for a row pair.
// The second result is false when the rows share no both-filled column
// (such pairs are never matchable, mirroring the rule matcher).
func Features(a, b []table.Value, knowledge *kb.KB) ([]float64, bool) {
	return featuresWith(a, b, func(i int) float64 {
		return cellSimilarity(a[i], b[i], knowledge)
	})
}

// TestTrainLogisticMatchesReference pins training to the string path it
// left: TrainLogistic's weights and bias equal, in float64 bits, those of
// training through Features, on the demo pairs plus pairs drawn from
// fuzzAlphabet, with the demo KB and with none.
func TestTrainLogisticMatchesReference(t *testing.T) {
	demo := kb.Demo()
	demoRef := kb.FromDump(demo.Dump()) // the reference's unfrozen twin
	pairs := TrainingPairsFromFigures(demo)
	for p := 0; p < 200; p++ {
		cols := 1 + p%4
		a, b := make([]table.Value, cols), make([]table.Value, cols)
		for c := range a {
			a[c] = fuzzAlphabet[(p*7+c*3)%len(fuzzAlphabet)]
			b[c] = fuzzAlphabet[(p*11+c*5+p/len(fuzzAlphabet))%len(fuzzAlphabet)]
		}
		pairs = append(pairs, TrainingPair{A: a, B: b, Match: p%3 == 0})
	}
	for kname, kbs := range map[string][2]*kb.KB{"demo": {demo, demoRef}, "nil": {nil, nil}} {
		got, err := TrainLogistic(pairs, TrainOptions{Knowledge: kbs[0]})
		if err != nil {
			t.Fatal(err)
		}
		want, err := trainLogistic(pairs, func(a, b []table.Value) ([]float64, bool) {
			return Features(a, b, kbs[1])
		})
		if err != nil {
			t.Fatal(err)
		}
		bits := func(m *LogisticModel) string {
			s := fmt.Sprintf("%x", math.Float64bits(m.Bias))
			for _, w := range m.Weights {
				s += fmt.Sprintf(" %x", math.Float64bits(w))
			}
			return s
		}
		if g, w := bits(got), bits(want); g != w {
			t.Errorf("kb=%s: trained model bits %s, want %s", kname, g, w)
		}
	}
}
