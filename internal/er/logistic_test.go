package er

import (
	"context"
	"math"
	"testing"

	"repro/internal/kb"
	"repro/internal/paperdata"
	"repro/internal/table"
)

func TestFeatures(t *testing.T) {
	k := kb.Demo()
	a := []table.Value{table.StringValue("JnJ"), table.ProducedNull(), table.StringValue("USA")}
	b := []table.Value{table.StringValue("J&J"), table.StringValue("FDA"), table.StringValue("United States")}
	x, ok := Features(a, b, k)
	if !ok {
		t.Fatal("pair must be featurizable")
	}
	if len(x) != len(FeatureNames) {
		t.Fatalf("feature vector length %d, want %d", len(x), len(FeatureNames))
	}
	// mean similarity = (1 + 0 + 1)/3 with the one-sided approver.
	if math.Abs(x[0]-2.0/3) > 1e-9 {
		t.Errorf("mean_similarity = %v, want 2/3", x[0])
	}
	if x[2] != 2.0/3 {
		t.Errorf("both_filled_frac = %v, want 2/3", x[2])
	}
	if x[3] != 1.0/3 {
		t.Errorf("one_sided_frac = %v, want 1/3", x[3])
	}
	// No both-filled column -> not featurizable.
	f9 := []table.Value{table.StringValue("JnJ"), table.NullValue(), table.ProducedNull()}
	f10 := []table.Value{table.ProducedNull(), table.NullValue(), table.StringValue("USA")}
	if _, ok := Features(f9, f10, k); ok {
		t.Error("no-shared-column pair must not featurize")
	}
	if _, ok := Features(nil, nil, k); ok {
		t.Error("empty rows must not featurize")
	}
}

func TestTrainLogisticSeparatesDemoPairs(t *testing.T) {
	k := kb.Demo()
	model, err := TrainLogistic(TrainingPairsFromFigures(k), TrainOptions{Knowledge: k})
	if err != nil {
		t.Fatal(err)
	}
	// The trained model must score a true alias pair above a conflicting
	// pair.
	s := func(v string) table.Value { return table.StringValue(v) }
	pos, _ := Features(
		[]table.Value{s("JnJ"), table.ProducedNull(), s("USA")},
		[]table.Value{s("J&J"), s("FDA"), s("United States")}, k)
	neg, _ := Features(
		[]table.Value{s("Pfizer"), s("FDA"), s("United States")},
		[]table.Value{s("J&J"), s("FDA"), s("United States")}, k)
	pPos := model.Predict(pos)
	pNeg := model.Predict(neg)
	if pPos <= pNeg {
		t.Errorf("P(match) alias pair %v must exceed conflicting pair %v", pPos, pNeg)
	}
	if pPos < 0.5 {
		t.Errorf("alias pair should classify as match, got %v", pPos)
	}
	if pNeg >= 0.5 {
		t.Errorf("conflicting pair should classify as non-match, got %v", pNeg)
	}
}

func TestTrainLogisticValidation(t *testing.T) {
	if _, err := TrainLogistic(nil, TrainOptions{}); err == nil {
		t.Error("empty training set must error")
	}
	// A set with only unfeaturizable pairs must error too.
	bad := []TrainingPair{{
		A: []table.Value{table.NullValue()},
		B: []table.Value{table.StringValue("x")},
	}}
	if _, err := TrainLogistic(bad, TrainOptions{}); err == nil {
		t.Error("unfeaturizable training set must error")
	}
}

func TestResolveLearnedReproducesFig8d(t *testing.T) {
	// The learned matcher, trained on the demo pairs, reproduces the
	// Fig. 8(d) resolution like the rule matcher does.
	k := kb.Demo()
	model, err := TrainLogistic(TrainingPairsFromFigures(k), TrainOptions{Knowledge: k})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ResolveLearned(context.Background(), paperdata.Fig8bExpected(), model, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Clusters) != 2 {
		t.Fatalf("learned ER clusters = %v, want 2", res.Clusters)
	}
	want := paperdata.Fig8dExpected()
	got := res.Resolved.Clone()
	got.Columns = want.Columns
	got.Name = want.Name
	if !got.EqualUnordered(want) {
		t.Errorf("learned ER != Fig. 8(d):\n%s", res.Resolved)
	}
}

func TestResolveLearnedOuterJoinStaysUnresolved(t *testing.T) {
	k := kb.Demo()
	model, err := TrainLogistic(TrainingPairsFromFigures(k), TrainOptions{Knowledge: k})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ResolveLearned(context.Background(), paperdata.Fig8aExpected(), model, k, 0)
	if err != nil {
		t.Fatal(err)
	}
	// f9 and f10 share no both-filled column: no model can pair them.
	if len(res.Clusters) < 4 {
		t.Errorf("learned ER over outer join = %d clusters, want >= 4", len(res.Clusters))
	}
}

func TestResolveLearnedValidation(t *testing.T) {
	k := kb.Demo()
	model := &LogisticModel{Weights: make([]float64, len(FeatureNames))}
	if _, err := ResolveLearned(context.Background(), nil, model, k, 0); err == nil {
		t.Error("nil table must error")
	}
	if _, err := ResolveLearned(context.Background(), paperdata.Fig8bExpected(), nil, k, 0); err == nil {
		t.Error("nil model must error")
	}
	for _, n := range []int{len(FeatureNames) - 1, len(FeatureNames) + 1} {
		m := &LogisticModel{Weights: make([]float64, n)}
		if _, err := ResolveLearned(context.Background(), paperdata.Fig8bExpected(), m, k, 0); err == nil {
			t.Errorf("a %d-weight model must error", n)
		}
	}
}

func TestPredictRange(t *testing.T) {
	m := &LogisticModel{Weights: []float64{10, -10, 3, 1, 2}, Bias: -1}
	for _, x := range [][]float64{{0, 0, 0, 0, 0}, {1, 1, 1, 1, 1}, {0.5, 0.1, 0.9, 0.2, 0.3}} {
		p := m.Predict(x)
		if p < 0 || p > 1 {
			t.Errorf("Predict out of range: %v", p)
		}
	}
	// Short feature vectors are tolerated (extra weights ignored).
	if p := m.Predict([]float64{1}); p < 0 || p > 1 {
		t.Errorf("short vector predict = %v", p)
	}
}
