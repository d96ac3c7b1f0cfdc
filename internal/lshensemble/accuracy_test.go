// accuracy_test.go is the sketch-engine accuracy harness: it measures
// precision/recall/F1 of indexed discovery against the exact containment
// scan (ExactQuery, the ground truth) for every engine, on both the paper's
// X3 join-search lake and a synthesized skewed-cardinality workload. The
// floors asserted here are the index's acceptance criteria: candidates are
// always verified by exact token-ID containment, so
// precision must be exactly 1 for every engine, with F1 at least 0.85.
package lshensemble_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/experiments"
	"repro/internal/lake"
	"repro/internal/lshensemble"
	"repro/internal/sketch"
	"repro/internal/table"
)

// engines under test; every engine the sketch package implements must hold
// the accuracy floors, so a future engine lands by joining this list.
var accuracyEngines = []sketch.Engine{sketch.MinHash}

// accuracy is a micro-averaged confusion summary over a query workload:
// counts are summed across every (query, threshold) pair, then turned into
// precision/recall/F1 once, so large-truth queries weigh more than empty
// ones instead of each query voting equally.
type accuracy struct {
	tp, fp, fn int
}

func (a *accuracy) add(got, want map[string]bool) {
	for k := range got {
		if want[k] {
			a.tp++
		} else {
			a.fp++
		}
	}
	for k := range want {
		if !got[k] {
			a.fn++
		}
	}
}

func (a accuracy) precision() float64 {
	if a.tp+a.fp == 0 {
		return 1
	}
	return float64(a.tp) / float64(a.tp+a.fp)
}

func (a accuracy) recall() float64 {
	if a.tp+a.fn == 0 {
		return 1
	}
	return float64(a.tp) / float64(a.tp+a.fn)
}

func (a accuracy) f1() float64 {
	p, r := a.precision(), a.recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

func keySet(rs []lshensemble.Result) map[string]bool {
	out := make(map[string]bool, len(rs))
	for _, r := range rs {
		out[r.Domain.Key()] = true
	}
	return out
}

// measureEngine builds an index over domains, interned in dict, with the
// given engine and scores it against ExactQuery across the workload.
func measureEngine(domains []lshensemble.Domain, dict *table.TokenDict, queries [][]string, thresholds []float64, eng sketch.Engine) accuracy {
	opts := lshensemble.Options{Engine: eng}
	ix := lshensemble.Build(domains, opts, dict)
	var acc accuracy
	for _, q := range queries {
		for _, th := range thresholds {
			want := keySet(lshensemble.ExactQuery(domains, q, th, 0))
			res, _ := ix.QueryCtx(context.Background(), q, th, 0)
			got := keySet(res)
			acc.add(got, want)
		}
	}
	return acc
}

// assertFloors applies the per-engine acceptance floors, logging one row per
// engine so CI output quotes the measured values.
func assertFloors(t *testing.T, scores map[sketch.Engine]accuracy) {
	t.Helper()
	for _, eng := range accuracyEngines {
		acc := scores[eng]
		t.Logf("%-8s precision=%.4f recall=%.4f f1=%.4f (tp=%d fp=%d fn=%d)",
			eng, acc.precision(), acc.recall(), acc.f1(), acc.tp, acc.fp, acc.fn)
		if acc.tp+acc.fn == 0 {
			t.Fatalf("%s: workload produced no ground-truth matches; harness is vacuous", eng)
		}
		if p := acc.precision(); p != 1 {
			t.Errorf("%s precision = %.4f, want exactly 1 (verification is exact containment)", eng, p)
		}
		if f := acc.f1(); f < 0.85 {
			t.Errorf("%s F1 = %.4f, below the 0.85 floor", eng, f)
		}
	}
}

// skewedWorkload synthesizes the skewed-cardinality stress case: domain
// sizes log-uniform across 10..2000 over a shared vocabulary (so the
// size-partitioned ensemble faces q ≪ x and q ≫ x in the same index), and
// queries sampled from a base domain at a planned containment level with
// out-of-vocabulary padding. Domains are interned into dict as lake
// extraction interns them.
func skewedWorkload(seed int64) (domains []lshensemble.Domain, dict *table.TokenDict, queries [][]string) {
	rng := rand.New(rand.NewSource(seed))
	dict = table.NewTokenDict()
	vocab := make([]string, 6000)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("tok%05d", i)
	}
	for i := 0; i < 150; i++ {
		size := int(10 * math.Pow(200, rng.Float64()))
		picked := make(map[int]bool, size)
		vals := make([]string, 0, size)
		for len(vals) < size {
			j := rng.Intn(len(vocab))
			if !picked[j] {
				picked[j] = true
				vals = append(vals, vocab[j])
			}
		}
		domains = append(domains, lshensemble.Domain{
			Table:  fmt.Sprintf("d%03d", i),
			Column: 0,
			Values: vals,
			IDs:    dict.InternAll(vals, nil),
		})
	}
	for i := 0; i < 48; i++ {
		base := domains[rng.Intn(len(domains))].Values
		qn := 20 + rng.Intn(81)
		if qn > len(base) {
			qn = len(base)
		}
		take := int((0.4 + 0.6*rng.Float64()) * float64(qn))
		q := make([]string, 0, qn)
		q = append(q, base[:take]...)
		for len(q) < qn {
			q = append(q, fmt.Sprintf("oov%02d_%03d", i, len(q)))
		}
		queries = append(queries, q)
	}
	return domains, dict, queries
}

// TestAccuracySkewedLake holds the floors on the synthesized
// skewed-cardinality workload across thresholds.
func TestAccuracySkewedLake(t *testing.T) {
	domains, dict, queries := skewedWorkload(101)
	thresholds := []float64{0.5, 0.7, 0.9}
	scores := make(map[sketch.Engine]accuracy, len(accuracyEngines))
	for _, eng := range accuracyEngines {
		scores[eng] = measureEngine(domains, dict, queries, thresholds, eng)
	}
	assertFloors(t, scores)
}

// TestAccuracyPaperLake holds the floors end-to-end on the paper's X3
// join-search lake: per engine, a full lake build (extraction, interning,
// index construction) and key-column queries through the lake's own join
// index, against ExactQuery over the lake's extracted domains.
func TestAccuracyPaperLake(t *testing.T) {
	sl := experiments.JoinSearchLake(17)
	queryTables := []string{
		"family0_part0", "family7_part2", "family21_part1",
		"family33_part4", "family12_join0", "family30_join1",
	}
	thresholds := []float64{0.5, 0.7}
	scores := make(map[sketch.Engine]accuracy, len(accuracyEngines))
	for _, eng := range accuracyEngines {
		opts := lake.Options{}
		opts.LSH.Engine = eng
		l, err := lake.New(sl.Tables, opts)
		if err != nil {
			t.Fatalf("%s lake build: %v", eng, err)
		}
		domains := l.Domains()
		var acc accuracy
		for _, qn := range queryTables {
			q, ok := l.Get(qn)
			if !ok {
				t.Fatalf("query table %s missing from lake", qn)
			}
			vals, err := lake.QueryDomain(q, sl.Truth.KeyColumn[qn])
			if err != nil {
				t.Fatalf("QueryDomain(%s): %v", qn, err)
			}
			for _, th := range thresholds {
				want := keySet(lshensemble.ExactQuery(domains, vals, th, 0))
				res, _ := l.Join().QueryCtx(context.Background(), vals, th, 0)
				got := keySet(res)
				acc.add(got, want)
			}
		}
		scores[eng] = acc
	}
	assertFloors(t, scores)
}
