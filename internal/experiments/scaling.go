package experiments

import (
	"context"
	"fmt"
	"slices"
	"time"

	"repro/internal/alite"
	"repro/internal/discovery"
	"repro/internal/er"
	"repro/internal/fd"
	"repro/internal/integrate"
	"repro/internal/kb"
	"repro/internal/lake"
	"repro/internal/lshensemble"
	"repro/internal/schemamatch"
	"repro/internal/synth"
	"repro/internal/table"
)

// IntegrateFragments integrates a fragment set with the named operator
// using the reliable-header matcher (the X1/X6 experiments isolate
// integration, not matching).
func IntegrateFragments(fs *synth.FragmentSet, op integrate.Operator) (*table.Table, error) {
	out, _, err := integrate.Apply(context.Background(), op, fs.Tables, schemamatch.HeaderMatcher{}, nil, false)
	return out, err
}

// X1Completeness compares FD and outer join on fragmented entities: the
// ALITE paper's claim that FD maximally connects facts where outer joins
// lose them.
func X1Completeness() Row {
	row := Row{ID: "X1", Name: "FD vs outer join completeness", Paper: "FD integrates maximally; outer join loses derivable facts (ALITE Sec. 6 shape)"}
	totalFD, totalOJ, totalFDRows, totalOJRows := 0, 0, 0, 0
	for _, n := range []int{10, 20, 40} {
		fs := synth.Fragments(synth.FragmentOptions{Seed: int64(n), Entities: n})
		fdTab, err := IntegrateFragments(fs, integrate.ALITEFD{})
		if err != nil {
			row.Measured = err.Error()
			return row
		}
		ojTab, err := IntegrateFragments(fs, integrate.FullOuterJoin{})
		if err != nil {
			row.Measured = err.Error()
			return row
		}
		totalFD += synth.CompleteTuples(fdTab)
		totalOJ += synth.CompleteTuples(ojTab)
		totalFDRows += fdTab.NumRows()
		totalOJRows += ojTab.NumRows()
	}
	row.Measured = fmt.Sprintf("complete tuples FD=%d vs OJ=%d (rows %d vs %d) over 70 entities", totalFD, totalOJ, totalFDRows, totalOJRows)
	row.Pass = totalFD > totalOJ
	return row
}

// FragmentInput aligns a fragment set and returns the outer-union input
// for direct FD benchmarking.
func FragmentInput(entities int, seed int64) (fd.Input, error) {
	fs := synth.Fragments(synth.FragmentOptions{Seed: seed, Entities: entities})
	align, err := schemamatch.HeaderMatcher{}.Align(fs.Tables)
	if err != nil {
		return fd.Input{}, err
	}
	return alite.BuildInput(fs.Tables, align, nil)
}

// X2FDScaling times the FD algorithms: naive enumeration explodes while
// ALITE stays fast and produces the same tuples.
func X2FDScaling() Row {
	row := Row{ID: "X2", Name: "FD algorithm scaling", Paper: "ALITE-FD beats exhaustive FD (ALITE Sec. 6 shape)"}
	smallIn, err := FragmentInput(7, 7) // ~18 tuples: naive is feasible
	if err != nil {
		row.Measured = err.Error()
		return row
	}
	t0 := time.Now()
	naiveOut, err := fd.Naive(smallIn)
	naiveDur := time.Since(t0)
	if err != nil {
		row.Measured = err.Error()
		return row
	}
	t0 = time.Now()
	aliteSmall, _ := fd.ALITECtx(context.Background(), smallIn) // never cancelled, so never fails
	aliteSmallDur := time.Since(t0)
	// Both outputs are canonically sorted: compare them tuple by tuple.
	agree := slices.EqualFunc(naiveOut, aliteSmall, func(a, b fd.Tuple) bool { return a.Key() == b.Key() })

	bigIn, err := FragmentInput(150, 11)
	if err != nil {
		row.Measured = err.Error()
		return row
	}
	t0 = time.Now()
	fd.ALITECtx(context.Background(), bigIn)
	aliteBigDur := time.Since(t0)

	speedup := float64(naiveDur) / float64(aliteSmallDur+1)
	row.Measured = fmt.Sprintf("n=%d: naive %v vs ALITE %v (%.0fx); n=%d tuples: ALITE %v; outputs agree=%v",
		len(smallIn.Tuples), naiveDur.Round(time.Microsecond), aliteSmallDur.Round(time.Microsecond), speedup,
		len(bigIn.Tuples), aliteBigDur.Round(time.Millisecond), agree)
	row.Pass = agree && naiveDur > aliteSmallDur
	return row
}

// JoinSearchLake builds the X3 lake: many tables so index-based search has
// something to beat.
func JoinSearchLake(seed int64) *synth.Lake {
	return synth.GenerateLake(synth.LakeOptions{
		Seed:              seed,
		Families:          40,
		TablesPerFamily:   6,
		RowsPerTable:      120,
		JoinablePerFamily: 2,
		NoiseTables:       40,
	})
}

// X3JoinSearch measures LSH Ensemble recall and query time against the
// exact containment scan.
func X3JoinSearch() Row {
	row := Row{ID: "X3", Name: "Joinable search: LSH Ensemble vs exact scan", Paper: "near-exact recall at a fraction of the scan cost (LSH Ensemble shape)"}
	sl := JoinSearchLake(17)
	l, err := lake.New(sl.Tables, lake.Options{})
	if err != nil {
		row.Measured = err.Error()
		return row
	}
	const threshold = 0.5
	queries := []string{"family0_part0", "family7_part2", "family21_part1", "family33_part4"}
	var lshDur, exactDur time.Duration
	found, truth := 0, 0
	for _, qn := range queries {
		q, ok := l.Get(qn)
		if !ok {
			row.Measured = "query table missing"
			return row
		}
		domain, err := lake.QueryDomain(q, sl.Truth.KeyColumn[qn])
		if err != nil {
			row.Measured = err.Error()
			return row
		}
		t0 := time.Now()
		got, _ := l.Join().QueryCtx(context.Background(), domain, threshold, 0) // never cancelled, so never fails
		lshDur += time.Since(t0)
		t0 = time.Now()
		want := lshensemble.ExactQuery(l.Domains(), domain, threshold, 0)
		exactDur += time.Since(t0)
		gotSet := make(map[string]bool, len(got))
		for _, r := range got {
			gotSet[r.Domain.Key()] = true
		}
		for _, w := range want {
			truth++
			if gotSet[w.Domain.Key()] {
				found++
			}
		}
	}
	recall := 0.0
	if truth > 0 {
		recall = float64(found) / float64(truth)
	}
	speedup := float64(exactDur) / float64(lshDur+1)
	row.Measured = fmt.Sprintf("%d domains; recall=%.3f (%d/%d), lsh=%v vs exact=%v (%.1fx)",
		len(l.Domains()), recall, found, truth, lshDur.Round(time.Microsecond), exactDur.Round(time.Microsecond), speedup)
	row.Pass = recall >= 0.9 && truth > 0
	return row
}

// UnionSearchLake builds the X4 lake: the paper's Fig. 2 situation at
// scale — unionable tables with pairwise DISJOINT value sets (each covers
// different countries' cities), joinable companions, and noise. Only
// semantics reveals the unionable tables.
func UnionSearchLake(seed int64) *synth.Lake {
	return synth.SemanticLake(seed, 7, 5, 6)
}

// precisionAtK scores ranked results against a truth set.
func precisionAtK(results []discovery.Result, truth []string, k int) float64 {
	truthSet := make(map[string]bool, len(truth))
	for _, t := range truth {
		truthSet[t] = true
	}
	if k > len(results) {
		k = len(results)
	}
	if k == 0 {
		return 0
	}
	hit := 0
	for _, r := range results[:k] {
		if truthSet[r.Table.Name] {
			hit++
		}
	}
	return float64(hit) / float64(k)
}

// X4UnionSearch compares SANTOS (with a synthesized KB) against the
// syntactic-overlap baseline on ground-truth unionable families.
func X4UnionSearch() Row {
	row := Row{ID: "X4", Name: "Union search: SANTOS vs syntactic baseline", Paper: "relationship semantics find unionable tables value overlap misses (SANTOS shape)"}
	sl := UnionSearchLake(23)
	l, err := lake.New(sl.Tables, lake.Options{Knowledge: kb.Demo()})
	if err != nil {
		row.Measured = err.Error()
		return row
	}
	queries := []string{"sem_union0", "sem_union2", "sem_union4", "sem_union6"}
	const k = 3
	var santosP, syntacticP float64
	for _, qn := range queries {
		q, ok := l.Get(qn)
		if !ok {
			row.Measured = fmt.Sprintf("query table %s missing", qn)
			return row
		}
		truth := sl.Truth.UnionableWith[qn]
		keyCol := sl.Truth.KeyColumn[qn]
		sRes, err := (discovery.SantosUnion{}).Discover(context.Background(), l, q, keyCol, 0)
		if err != nil {
			row.Measured = err.Error()
			return row
		}
		bRes, err := (discovery.SyntacticUnion{}).Discover(context.Background(), l, q, keyCol, 0)
		if err != nil {
			row.Measured = err.Error()
			return row
		}
		santosP += precisionAtK(sRes, truth, k)
		syntacticP += precisionAtK(bRes, truth, k)
	}
	santosP /= float64(len(queries))
	syntacticP /= float64(len(queries))
	row.Measured = fmt.Sprintf("precision@%d: santos=%.2f vs syntactic=%.2f over %d disjoint-value queries", k, santosP, syntacticP, len(queries))
	row.Pass = santosP > syntacticP && santosP >= 0.8
	return row
}

// AlignmentLake builds the X5 integration set: one family's partitions
// plus a joinable companion, at a given header-corruption level.
func AlignmentLake(corruption float64, seed int64) (*synth.Lake, []*table.Table) {
	sl := synth.GenerateLake(synth.LakeOptions{
		Seed:              seed,
		Families:          1,
		TablesPerFamily:   4,
		RowsPerTable:      25,
		JoinablePerFamily: 1,
		NoiseTables:       1,
		HeaderCorruption:  corruption,
	})
	var set []*table.Table
	for _, t := range sl.Tables {
		if sl.Truth.FamilyOf[t.Name] == 0 || t.Name == "family0_join0" {
			set = append(set, t)
		}
	}
	return sl, set
}

// X5SchemaMatch sweeps header corruption and compares the holistic matcher
// against the header-equality baseline by pairwise F1 versus ground truth.
func X5SchemaMatch() Row {
	row := Row{ID: "X5", Name: "Holistic matching vs header baseline", Paper: "content-based matching robust to unreliable headers (ALITE align shape)"}
	var details []string
	pass := true
	for _, corr := range []float64{0, 0.5, 0.9} {
		sl, set := AlignmentLake(corr, 31)
		truthMatcher := schemamatch.Oracle{Label: func(name string, col int) string {
			labels := sl.Truth.AttrLabels[name]
			if col < len(labels) {
				return labels[col]
			}
			return ""
		}}
		truth, err := truthMatcher.Align(set)
		if err != nil {
			row.Measured = err.Error()
			return row
		}
		syn := kb.Synthesize(set, kb.SynthesizeOptions{})
		hol, err := schemamatch.Holistic{Knowledge: syn}.Align(set)
		if err != nil {
			row.Measured = err.Error()
			return row
		}
		hdr, err := schemamatch.HeaderMatcher{}.Align(set)
		if err != nil {
			row.Measured = err.Error()
			return row
		}
		_, _, f1Hol := schemamatch.PairwiseScores(hol, truth)
		_, _, f1Hdr := schemamatch.PairwiseScores(hdr, truth)
		details = append(details, fmt.Sprintf("corr=%.1f: holistic=%.2f header=%.2f", corr, f1Hol, f1Hdr))
		if corr >= 0.5 && f1Hol < f1Hdr {
			pass = false
		}
		if corr >= 0.9 && f1Hol < 0.6 {
			pass = false
		}
	}
	row.Measured = joinStrings(details, "; ")
	row.Pass = pass
	return row
}

// X6ERQuality integrates fragmented entities with FD and with outer join,
// resolves both, and scores pairwise F1 against entity ground truth.
func X6ERQuality() Row {
	row := Row{ID: "X6", Name: "ER quality over FD vs outer join", Paper: "ER resolves more over FD output (Fig. 8 generalized)"}
	var f1FDTotal, f1OJTotal float64
	const runs = 3
	for i := 0; i < runs; i++ {
		fs := synth.Fragments(synth.FragmentOptions{Seed: int64(41 + i), Entities: 25})
		fdTab, err := IntegrateFragments(fs, integrate.ALITEFD{})
		if err != nil {
			row.Measured = err.Error()
			return row
		}
		ojTab, err := IntegrateFragments(fs, integrate.FullOuterJoin{})
		if err != nil {
			row.Measured = err.Error()
			return row
		}
		f1FD, err := erF1(fs, fdTab)
		if err != nil {
			row.Measured = err.Error()
			return row
		}
		f1OJ, err := erF1(fs, ojTab)
		if err != nil {
			row.Measured = err.Error()
			return row
		}
		f1FDTotal += f1FD
		f1OJTotal += f1OJ
	}
	f1FDTotal /= runs
	f1OJTotal /= runs
	row.Measured = fmt.Sprintf("pairwise ER F1: FD=%.2f vs outer join=%.2f (avg of %d runs)", f1FDTotal, f1OJTotal, runs)
	row.Pass = f1FDTotal >= f1OJTotal
	return row
}

// erF1 resolves an integrated fragment table and scores it against the
// fragment ground truth.
func erF1(fs *synth.FragmentSet, integrated *table.Table) (float64, error) {
	res, err := er.Resolve(context.Background(), integrated, er.Options{Knowledge: fs.Knowledge})
	if err != nil {
		return 0, err
	}
	labels := fs.LabelRows(integrated)
	_, _, f1 := er.PairwiseQuality(res.Clusters, labels)
	return f1, nil
}

func joinStrings(xs []string, sep string) string {
	out := ""
	for i, x := range xs {
		if i > 0 {
			out += sep
		}
		out += x
	}
	return out
}
