package er

import (
	"context"
	"fmt"
	"math"

	"repro/internal/kb"
	"repro/internal/table"
)

// FeatureNames documents the per-pair feature vector layout used by the
// learned matcher, in order.
var FeatureNames = []string{
	"mean_similarity",  // average cell similarity over considered columns
	"min_similarity",   // weakest both-filled column
	"both_filled_frac", // fraction of columns filled on both sides
	"one_sided_frac",   // fraction of columns filled on exactly one side
	"exact_match_frac", // fraction of both-filled columns matching exactly
}

// featuresWith computes the learned matcher's feature vector for a row
// pair, in FeatureNames order; sim(i) scores column i's two (non-null)
// cells. The second result is false when the rows share no both-filled
// column (such pairs are never matchable, mirroring the rule matcher).
func featuresWith(a, b []table.Value, sim func(i int) float64) ([]float64, bool) {
	n := len(a)
	if n == 0 {
		return nil, false
	}
	bothFilled, oneSided, considered := 0, 0, 0
	var simSum float64
	minSim := 1.0
	exact := 0
	for i := range a {
		an, bn := !a[i].IsNull(), !b[i].IsNull()
		switch {
		case an && bn:
			s := sim(i)
			bothFilled++
			considered++
			simSum += s
			if s < minSim {
				minSim = s
			}
			if a[i].Equal(b[i]) {
				exact++
			}
		case an != bn:
			oneSided++
			considered++
		}
	}
	if bothFilled == 0 {
		return nil, false
	}
	exactFrac := float64(exact) / float64(bothFilled)
	return []float64{
		simSum / float64(considered),
		minSim,
		float64(bothFilled) / float64(n),
		float64(oneSided) / float64(n),
		exactFrac,
	}, true
}

// LogisticModel is a trained pairwise match classifier: P(match) =
// sigmoid(w·x + b). It substitutes for py_entitymatching's learned
// matchers (the demo trains one on labeled pairs).
type LogisticModel struct {
	// Weights holds one weight per feature in FeatureNames order.
	Weights []float64
	// Bias is the intercept.
	Bias float64
}

// Predict returns P(match) for a feature vector.
func (m *LogisticModel) Predict(features []float64) float64 {
	z := m.Bias
	for i, w := range m.Weights {
		if i < len(features) {
			z += w * features[i]
		}
	}
	return 1 / (1 + math.Exp(-z))
}

// TrainingPair is one labeled example for TrainLogistic.
type TrainingPair struct {
	A, B  []table.Value
	Match bool
}

// TrainOptions configures logistic-regression training.
type TrainOptions struct {
	// Knowledge feeds the feature extractor.
	Knowledge *kb.KB
}

// Training runs trainEpochs of full-batch gradient descent at step
// trainLearningRate with L2 regularization strength trainL2.
const (
	trainEpochs       = 500
	trainLearningRate = 0.5
	trainL2           = 0.001
)

// TrainLogistic fits a logistic-regression matcher on labeled row pairs by
// full-batch gradient descent. Cells are scored through one value table
// over opts.Knowledge, exactly as ResolveLearned scores them. Pairs whose
// rows share no both-filled column are skipped (they are never matchable
// at inference either). Training is deterministic: weights start at zero
// and the data order is the caller's.
func TrainLogistic(pairs []TrainingPair, opts TrainOptions) (*LogisticModel, error) {
	vt := newValueTable(opts.Knowledge)
	return trainLogistic(pairs, func(a, b []table.Value) ([]float64, bool) {
		return featuresWith(a, b, func(i int) float64 {
			return vt.similarity(vt.id(a[i]), vt.id(b[i]))
		})
	})
}

// trainLogistic is TrainLogistic over a given pair featurizer.
func trainLogistic(pairs []TrainingPair, features func(a, b []table.Value) ([]float64, bool)) (*LogisticModel, error) {
	type example struct {
		x []float64
		y float64
	}
	var data []example
	for _, p := range pairs {
		x, ok := features(p.A, p.B)
		if !ok {
			continue
		}
		y := 0.0
		if p.Match {
			y = 1
		}
		data = append(data, example{x: x, y: y})
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("er: no trainable pairs (every pair lacks a both-filled column)")
	}
	nf := len(data[0].x)
	m := &LogisticModel{Weights: make([]float64, nf)}
	for epoch := 0; epoch < trainEpochs; epoch++ {
		gw := make([]float64, nf)
		gb := 0.0
		for _, ex := range data {
			p := m.Predict(ex.x)
			diff := p - ex.y
			for i := range gw {
				gw[i] += diff * ex.x[i]
			}
			gb += diff
		}
		scale := trainLearningRate / float64(len(data))
		for i := range m.Weights {
			m.Weights[i] -= scale*gw[i] + trainLearningRate*trainL2*m.Weights[i]
		}
		m.Bias -= scale * gb
	}
	return m, nil
}

// ResolveLearned runs entity resolution with a trained model instead of
// the rule matcher: candidate pairs come from the same blocking, a pair
// matches when P(match) >= threshold (0.5 when threshold <= 0), and
// clusters merge transitively as in Resolve. ctx is observed across the
// pair-scoring loop exactly as in Resolve. The model must carry one weight
// per FeatureNames entry: Predict tolerates other lengths, so a
// caller-built model of another length would silently drop a feature or
// ignore a weight.
func ResolveLearned(ctx context.Context, t *table.Table, model *LogisticModel, knowledge *kb.KB, threshold float64) (*Resolution, error) {
	if model == nil {
		return nil, fmt.Errorf("er: nil model")
	}
	if len(model.Weights) != len(FeatureNames) {
		return nil, fmt.Errorf("er: model has %d weights, want %d (one per FeatureNames entry)", len(model.Weights), len(FeatureNames))
	}
	if threshold <= 0 {
		threshold = 0.5
	}
	return resolveWith(ctx, t, knowledge, threshold,
		func(a, b []table.Value, sim func(i int) float64) (float64, bool) {
			x, ok := featuresWith(a, b, sim)
			if !ok {
				return 0, false
			}
			return model.Predict(x), true
		})
}

// TrainingPairsFromFigures builds a small labeled training set from the
// demo KB's alias structure: positive pairs are alias respellings of one
// row; negatives pair different entities. It lets the demo train a learned
// matcher without external labels.
func TrainingPairsFromFigures(knowledge *kb.KB) []TrainingPair {
	s := func(v string) table.Value { return table.StringValue(v) }
	nul := table.NullValue()
	pn := table.ProducedNull()
	return []TrainingPair{
		// Positives: alias respellings and partial views of one entity.
		{A: []table.Value{s("JnJ"), s("FDA"), s("USA")}, B: []table.Value{s("J&J"), s("FDA"), s("United States")}, Match: true},
		{A: []table.Value{s("Pfizer"), s("FDA"), s("United States")}, B: []table.Value{s("Pfizer"), s("FDA"), s("USA")}, Match: true},
		{A: []table.Value{s("Moderna"), pn, s("USA")}, B: []table.Value{s("Moderna"), s("FDA"), s("USA")}, Match: true},
		{A: []table.Value{s("AstraZeneca"), s("EMA"), pn}, B: []table.Value{s("AstraZeneca"), s("EMA"), s("England")}, Match: true},
		{A: []table.Value{s("Sinovac"), nul, s("China")}, B: []table.Value{s("CoronaVac"), nul, s("China")}, Match: true},
		// The Fig. 8(d) pair itself: two alias agreements plus one
		// one-sided unknown is a match.
		{A: []table.Value{s("JnJ"), pn, s("USA")}, B: []table.Value{s("J&J"), s("FDA"), s("United States")}, Match: true},
		{A: []table.Value{s("Spikevax"), pn, s("USA")}, B: []table.Value{s("Moderna"), s("FDA"), s("United States")}, Match: true},
		// Negatives: different entities, even when some columns agree.
		{A: []table.Value{s("Pfizer"), s("FDA"), s("United States")}, B: []table.Value{s("J&J"), s("FDA"), s("United States")}, Match: false},
		{A: []table.Value{s("Moderna"), s("FDA"), s("USA")}, B: []table.Value{s("Novavax"), s("FDA"), s("USA")}, Match: false},
		// Negatives: a single agreeing attribute with everything else
		// unknown is insufficient evidence (Fig. 8(c): f9 is not merged
		// with f11 or f12, and f10 not with f8 or f12) — whether the
		// agreement is literal or via an alias.
		{A: []table.Value{s("JnJ"), nul, pn}, B: []table.Value{s("JnJ"), pn, s("USA")}, Match: false},
		{A: []table.Value{pn, nul, s("USA")}, B: []table.Value{s("JnJ"), pn, s("USA")}, Match: false},
		{A: []table.Value{s("JnJ"), nul, pn}, B: []table.Value{s("J&J"), pn, s("United States")}, Match: false},
		{A: []table.Value{s("Pfizer"), s("FDA"), s("United States")}, B: []table.Value{pn, nul, s("USA")}, Match: false},
		{A: []table.Value{s("Sputnik V"), pn, s("Russia")}, B: []table.Value{s("Covaxin"), pn, s("India")}, Match: false},
		{A: []table.Value{s("Pfizer"), pn, pn}, B: []table.Value{s("Moderna"), pn, pn}, Match: false},
		{A: []table.Value{s("AstraZeneca"), s("MHRA"), s("England")}, B: []table.Value{s("Sinovac"), s("WHO"), s("China")}, Match: false},
	}
}
