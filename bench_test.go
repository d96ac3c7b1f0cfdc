// bench_test.go exposes one testing.B benchmark per reproduced artifact of
// the paper (F-rows: Figures 1-8 and Example 3) and per scaling experiment
// (X-rows), matching the per-experiment index in DESIGN.md. Run:
//
//	go test -bench=. -benchmem .
package dialite_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	dialite "repro"
	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/er"
	"repro/internal/experiments"
	"repro/internal/fd"
	"repro/internal/integrate"
	"repro/internal/kb"
	"repro/internal/lake"
	"repro/internal/lshensemble"
	"repro/internal/minhash"
	"repro/internal/paperdata"
	"repro/internal/persist"
	"repro/internal/schemamatch"
	"repro/internal/synth"
	"repro/internal/table"
)

// benchPipeline builds the demo pipeline once per benchmark.
func benchPipeline(b *testing.B) *core.Pipeline {
	b.Helper()
	p, err := core.New(paperdata.CovidLake(), core.Config{Knowledge: kb.Demo()})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkFig1Pipeline measures the full discover+integrate pipeline of
// Fig. 1 on the demo lake.
func BenchmarkFig1Pipeline(b *testing.B) {
	p := benchPipeline(b)
	q := paperdata.T1()
	city, _ := q.ColumnIndex(paperdata.ColCity)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Run(context.Background(), core.RunRequest{Query: q, QueryColumn: city}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2Discovery measures the Example 1 discovery step (SANTOS +
// LSH Ensemble over the prebuilt indexes).
func BenchmarkFig2Discovery(b *testing.B) {
	p := benchPipeline(b)
	q := paperdata.T1()
	city, _ := q.ColumnIndex(paperdata.ColCity)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Discover(context.Background(), core.DiscoverRequest{Query: q, QueryColumn: city}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3Integration measures ALITE (holistic matching + FD) over
// the Fig. 2 integration set.
func BenchmarkFig3Integration(b *testing.B) {
	p := benchPipeline(b)
	set := []*table.Table{paperdata.T1(), paperdata.T2(), paperdata.T3()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Integrate(context.Background(), core.IntegrateRequest{Tables: set}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExample3Analytics measures the correlation analytics of
// Example 3 over the Fig. 3 table.
func BenchmarkExample3Analytics(b *testing.B) {
	fig3 := paperdata.Fig3Expected()
	vacc, _ := fig3.ColumnIndex(paperdata.ColVaccRate)
	death, _ := fig3.ColumnIndex(paperdata.ColDeathRate)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := dialite.Pearson(fig3, vacc, death); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4UserDiscovery measures a user-defined similarity discoverer
// scanning the demo lake.
func BenchmarkFig4UserDiscovery(b *testing.B) {
	l, err := lake.New(paperdata.CovidLake(), lake.Options{Knowledge: kb.Demo()})
	if err != nil {
		b.Fatal(err)
	}
	q := paperdata.T1()
	sim := dialite.SimilarityFunc{
		FuncName: "bench-sim",
		Sim: func(query, cand *table.Table) float64 {
			return float64(query.NumRows() * cand.NumRows())
		},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Discover(context.Background(), l, q, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5QueryGen measures prompt-based query-table generation.
func BenchmarkFig5QueryGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := dialite.GenerateQueryTable("COVID-19 cases", 5, 5, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6OuterJoinOp measures the user-registrable outer-join
// operator over the Fig. 7 set.
func BenchmarkFig6OuterJoinOp(b *testing.B) {
	matcher := schemamatch.Holistic{Knowledge: kb.Demo()}
	set := paperdata.VaccineSet()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := integrate.Apply(context.Background(), integrate.FullOuterJoin{}, set, matcher, nil, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8aOuterJoin measures the Fig. 8(a) outer-join chain.
func BenchmarkFig8aOuterJoin(b *testing.B) {
	benchOperator(b, integrate.FullOuterJoin{})
}

// BenchmarkFig8bFD measures the Fig. 8(b) Full Disjunction.
func BenchmarkFig8bFD(b *testing.B) {
	benchOperator(b, integrate.ALITEFD{})
}

func benchOperator(b *testing.B, op integrate.Operator) {
	b.Helper()
	schema, sets, err := integrate.Prepare(paperdata.VaccineSet(), schemamatch.Holistic{Knowledge: kb.Demo()}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := op.Run(context.Background(), schema, sets); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8cEROuterJoin measures ER over the outer-join result.
func BenchmarkFig8cEROuterJoin(b *testing.B) {
	benchER(b, paperdata.Fig8aExpected())
}

// BenchmarkFig8dERFD measures ER over the FD result.
func BenchmarkFig8dERFD(b *testing.B) {
	benchER(b, paperdata.Fig8bExpected())
}

func benchER(b *testing.B, t *table.Table) {
	b.Helper()
	know := kb.Demo()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := er.Resolve(context.Background(), t, er.Options{Knowledge: know}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkX1Completeness compares FD and outer-join integration cost on
// fragmented entities (the completeness experiment's workload).
func BenchmarkX1Completeness(b *testing.B) {
	fs := synth.Fragments(synth.FragmentOptions{Seed: 5, Entities: 40})
	for _, op := range []integrate.Operator{integrate.ALITEFD{}, integrate.FullOuterJoin{}} {
		b.Run(op.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.IntegrateFragments(fs, op); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkX2FDScaling compares the FD algorithms across input sizes.
func BenchmarkX2FDScaling(b *testing.B) {
	small, err := experiments.FragmentInput(7, 7)
	if err != nil {
		b.Fatal(err)
	}
	big, err := experiments.FragmentInput(150, 11)
	if err != nil {
		b.Fatal(err)
	}
	b.Run(fmt.Sprintf("Naive/n=%d", len(small.Tuples)), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := fd.Naive(small); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("ALITE/n=%d", len(small.Tuples)), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fd.ALITECtx(context.Background(), small)
		}
	})
	b.Run(fmt.Sprintf("ALITE/n=%d", len(big.Tuples)), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fd.ALITECtx(context.Background(), big)
		}
	})
}

// BenchmarkLakeBuild measures offline lake preprocessing (SANTOS
// annotation, domain extraction, LSH Ensemble and JOSIE index builds) on
// the 640-domain synthetic lake — the cost DIALITE pays per lake, amortized
// across every query.
func BenchmarkLakeBuild(b *testing.B) {
	sl := experiments.JoinSearchLake(17)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lake.New(sl.Tables, lake.Options{Knowledge: kb.Demo()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLakeBuildStages reports the per-stage breakdown of lake
// preprocessing (KB synthesis + merge + compile, domain extraction, SANTOS
// annotation, LSH Ensemble, JOSIE) as custom metrics, so "which stage
// dominates the build" is a measured claim tracked across PRs. The lake is
// built with a synthesized KB, as `serve -synth` and the repo benchmark
// build theirs.
func BenchmarkLakeBuildStages(b *testing.B) {
	sl := experiments.JoinSearchLake(17)
	var sum lake.BuildStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l, err := lake.New(sl.Tables, lake.Options{Knowledge: kb.Demo(), SynthesizeKB: true})
		if err != nil {
			b.Fatal(err)
		}
		st := l.Stats()
		sum.KBPrep += st.KBPrep
		sum.DomainExtraction += st.DomainExtraction
		sum.Santos += st.Santos
		sum.LSH += st.LSH
		sum.Josie += st.Josie
	}
	n := float64(b.N)
	b.ReportMetric(float64(sum.KBPrep.Nanoseconds())/n, "kbprep-ns/op")
	b.ReportMetric(float64(sum.DomainExtraction.Nanoseconds())/n, "extract-ns/op")
	b.ReportMetric(float64(sum.Santos.Nanoseconds())/n, "santos-ns/op")
	b.ReportMetric(float64(sum.LSH.Nanoseconds())/n, "lsh-ns/op")
	b.ReportMetric(float64(sum.Josie.Nanoseconds())/n, "josie-ns/op")
}

// mutationFixture builds the 360-table X3 lake plus one extra table (a
// renamed clone of a family partition, so its domains overlap the lake) for
// the incremental-maintenance benchmarks.
func mutationFixture(b *testing.B) (*lake.Lake, *table.Table) {
	b.Helper()
	sl := experiments.JoinSearchLake(17)
	l, err := lake.New(sl.Tables, lake.Options{Knowledge: kb.Demo()})
	if err != nil {
		b.Fatal(err)
	}
	src := sl.Tables[0]
	extra := table.New("bench_extra", src.Columns...)
	extra.Rows = src.Rows
	return l, extra
}

// BenchmarkLakeAdd measures adding one table to the 360-table lake with
// incremental index maintenance — the serving-path alternative to the full
// rebuild measured by BenchmarkLakeRebuild (and the per-table amortized
// cost of BenchmarkLakeBuild).
func BenchmarkLakeAdd(b *testing.B) {
	l, extra := mutationFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Add(extra); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := l.Remove(extra.Name); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkLakeRemove measures removing one table from the 360-table lake
// (SANTOS eviction, LSH re-shard, JOSIE tombstoning, catalog rebuild).
func BenchmarkLakeRemove(b *testing.B) {
	l, extra := mutationFixture(b)
	if err := l.Add(extra); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := l.Remove(extra.Name); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := l.Add(extra); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkLakeRebuild is the baseline BenchmarkLakeAdd displaces: reaching
// the same 361-table state via a from-scratch lake.New — what adding one
// table cost before the lake was mutable.
func BenchmarkLakeRebuild(b *testing.B) {
	sl := experiments.JoinSearchLake(17)
	src := sl.Tables[0]
	extra := table.New("bench_extra", src.Columns...)
	extra.Rows = src.Rows
	all := append(append([]*table.Table(nil), sl.Tables...), extra)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lake.New(all, lake.Options{Knowledge: kb.Demo()}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedBuild measures building the same 361-table catalog as a
// lake.Sharded: per-shard private interners and indexes built in parallel,
// no shared-dictionary locks on the build path. Compare ns/op against
// BenchmarkLakeRebuild (the single-lake build of the identical table set).
func BenchmarkShardedBuild(b *testing.B) {
	sl := experiments.JoinSearchLake(17)
	src := sl.Tables[0]
	extra := table.New("bench_extra", src.Columns...)
	extra.Rows = src.Rows
	all := append(append([]*table.Table(nil), sl.Tables...), extra)
	for _, shards := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := lake.NewSharded(all, shards, lake.Options{Knowledge: kb.Demo()}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkShardedDiscovery measures the full discovery fan-out — every
// built-in method across every shard, merged to one ranking per method —
// against the 360-table lake, sharded and not. shards=1 is the unsharded
// baseline (same lake.Lake the serve path uses today); the sharded runs
// pay the scatter-gather merge and (for foreign queries) per-shard query
// re-extraction.
func BenchmarkShardedDiscovery(b *testing.B) {
	sl := experiments.JoinSearchLake(17)
	q := sl.Tables[0]
	methods := []string{"santos-union", "lsh-join", "josie-join", "syntactic-union"}
	reg := discovery.NewRegistry()
	ctx := context.Background()
	for _, shards := range []int{1, 2, 4} {
		var target discovery.Target
		var err error
		if shards == 1 {
			target, err = lake.New(sl.Tables, lake.Options{SynthesizeKB: true})
		} else {
			target, err = lake.NewSharded(sl.Tables, shards, lake.Options{SynthesizeKB: true})
		}
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, _, err := discovery.Discover(ctx, reg, target, q, 0, 10, methods); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSnapshotLoad measures recovering the 360-table lake through the
// durability layer (persist.Open: read the checksummed snapshot, verify,
// decode, lake.New over the persisted tables and KB, replay the empty WAL).
// It locates the warm-restart cost: decode plus the index build that
// BenchmarkLakeRebuild measures on its own.
func BenchmarkSnapshotLoad(b *testing.B) {
	sl := experiments.JoinSearchLake(17)
	l, err := lake.New(sl.Tables, lake.Options{Knowledge: kb.Demo()})
	if err != nil {
		b.Fatal(err)
	}
	fsys := persist.NewMemFS()
	st, err := persist.Create("lake", l, persist.Options{FS: fsys})
	if err != nil {
		b.Fatal(err)
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := persist.Open("lake", persist.Options{FS: fsys})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		s.Close()
		b.StartTimer()
	}
}

// BenchmarkKBAnnotate isolates the SANTOS annotation engine: the compiled
// integer-ID vote path (entity codes from Compiled.Code, flattened vote
// programs, packed relation keys) against the retained
// string reference that re-normalizes and re-walks the hierarchy per value.
// The reference runs on an unfrozen twin: a frozen KB has no string form.
func BenchmarkKBAnnotate(b *testing.B) {
	know := kb.Demo()
	ref := kb.FromDump(know.Dump())
	var colVals, subjVals, objVals []string
	for _, city := range kb.DemoCities() {
		colVals = append(colVals, city, city+" x") // known + near-miss unknown
		subjVals = append(subjVals, city)
		objVals = append(objVals, kb.DemoCountryOf(city))
	}
	pairs := make([][2]string, len(subjVals))
	for i := range subjVals {
		pairs[i] = [2]string{subjVals[i], objVals[i]}
	}
	ck := know.Compiled()
	s := ck.NewScratch()
	codes := func(vals []string, dst []uint32) []uint32 {
		for i, v := range vals {
			dst[i] = ck.Code(v)
		}
		return dst
	}
	colCodes := make([]uint32, len(colVals))
	subjCodes := make([]uint32, len(subjVals))
	objCodes := make([]uint32, len(objVals))
	b.Run("ColumnCompiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ck.AnnotateColumnCodes(codes(colVals, colCodes), s)
		}
	})
	b.Run("ColumnString", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ref.AnnotateColumn(colVals)
		}
	})
	b.Run("PairCompiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ck.AnnotatePairCodes(codes(subjVals, subjCodes), codes(objVals, objCodes), s)
		}
	})
	b.Run("PairString", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ref.AnnotateColumnPair(pairs)
		}
	})
}

// BenchmarkSignKernel measures the batched MinHash signing kernel behind
// the sketch on one 512-value domain at the default sketch size (the scalar
// reference it is pinned against lives in internal/minhash's tests).
func BenchmarkSignKernel(b *testing.B) {
	const k, n = 128, 512
	rng := rand.New(rand.NewSource(9))
	fps := make([]uint64, n)
	for i := range fps {
		fps[i] = rng.Uint64()
	}
	fam := minhash.NewFamily(k, 1)
	sig := make(minhash.Signature, k)
	b.Run("MinHashBatched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fam.SignFingerprintsInto(fps, sig)
		}
	})
}

// BenchmarkX3JoinSearch compares LSH Ensemble queries against the exact
// containment scan on a 640-domain lake.
func BenchmarkX3JoinSearch(b *testing.B) {
	sl := experiments.JoinSearchLake(17)
	l, err := lake.New(sl.Tables, lake.Options{})
	if err != nil {
		b.Fatal(err)
	}
	q, _ := l.Get("family0_part0")
	domain, err := lake.QueryDomain(q, 0)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	b.Run("LSHEnsemble", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l.Join().QueryCtx(ctx, domain, 0.5, 0)
		}
	})
	b.Run("LSHEnsembleCached", func(b *testing.B) {
		// The lake-domain fast path: pre-interned token IDs and cached
		// MinHash fingerprints, no per-query re-tokenization or hashing.
		d := l.DomainFor("family0_part0", 0)
		if d == nil {
			b.Fatal("no cached domain for query column")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.Join().QueryDomainCtx(ctx, d, 0.5, 0)
		}
	})
	b.Run("JOSIE", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			l.Josie().TopKCtx(ctx, domain, 10)
		}
	})
	b.Run("JOSIECached", func(b *testing.B) {
		d := l.DomainFor("family0_part0", 0)
		if d == nil {
			b.Fatal("no cached domain for query column")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.Josie().TopKIDsCtx(ctx, d.IDs, 10)
		}
	})
	b.Run("ExactScan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lshensemble.ExactQuery(l.Domains(), domain, 0.5, 0)
		}
	})
}

// BenchmarkX4UnionSearch compares SANTOS and the syntactic baseline on the
// disjoint-value semantic lake.
func BenchmarkX4UnionSearch(b *testing.B) {
	sl := experiments.UnionSearchLake(23)
	l, err := lake.New(sl.Tables, lake.Options{Knowledge: kb.Demo()})
	if err != nil {
		b.Fatal(err)
	}
	q, _ := l.Get("sem_union0")
	b.Run("SANTOS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := l.Santos().QueryCtx(context.Background(), q, 1, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Syntactic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (discovery.SyntacticUnion{}).Discover(context.Background(), l, q, 1, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkX5SchemaMatch compares the holistic matcher against the header
// baseline on a corrupted-header integration set.
func BenchmarkX5SchemaMatch(b *testing.B) {
	_, set := experiments.AlignmentLake(0.9, 31)
	syn := kb.Synthesize(set, kb.SynthesizeOptions{})
	b.Run("Holistic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (schemamatch.Holistic{Knowledge: syn}).Align(set); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("HeaderBaseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (schemamatch.HeaderMatcher{}).Align(set); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkX6ERQuality measures ER over FD output versus outer-join output
// on fragmented entities.
func BenchmarkX6ERQuality(b *testing.B) {
	fs := synth.Fragments(synth.FragmentOptions{Seed: 41, Entities: 25})
	fdTab, err := experiments.IntegrateFragments(fs, integrate.ALITEFD{})
	if err != nil {
		b.Fatal(err)
	}
	ojTab, err := experiments.IntegrateFragments(fs, integrate.FullOuterJoin{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("OverFD", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := er.Resolve(context.Background(), fdTab, er.Options{Knowledge: fs.Knowledge}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("OverOuterJoin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := er.Resolve(context.Background(), ojTab, er.Options{Knowledge: fs.Knowledge}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ablationChainInput builds m entities fragmented across three relations
// that share only a selective key — the regime the (position,value)
// candidate index is built for (each key bucket holds a handful of
// tuples, while exhaustive pairing scans everything).
func ablationChainInput(m int) fd.Input {
	schema := []string{"K", "A", "B", "C"}
	in := fd.Input{Schema: schema}
	pn := table.ProducedNull()
	for i := 0; i < m; i++ {
		key := table.StringValue(fmt.Sprintf("k%05d", i))
		rows := [][]table.Value{
			{key, table.IntValue(int64(i)), pn, pn},
			{key, pn, table.IntValue(int64(i + 1000000)), pn},
			{key, pn, pn, table.IntValue(int64(i + 2000000))},
		}
		for r, row := range rows {
			in.Tuples = append(in.Tuples, fd.Tuple{
				Values: row,
				Prov:   []string{fmt.Sprintf("t%d_%d", r, i)},
			})
		}
	}
	return in
}

// BenchmarkAblationKBEmbeddings isolates the knowledge-base semantic-type
// features of the column embeddings (the fastText substitute): matching
// the paper's tables with and without them.
func BenchmarkAblationKBEmbeddings(b *testing.B) {
	set := []*table.Table{paperdata.T1(), paperdata.T2(), paperdata.T3()}
	know := kb.Demo()
	b.Run("WithKB", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (schemamatch.Holistic{Knowledge: know}).Align(set); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("WithoutKB", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (schemamatch.Holistic{}).Align(set); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationAutoCut compares the fixed-threshold holistic matcher
// against the silhouette auto-cut variant on the paper's tables.
func BenchmarkAblationAutoCut(b *testing.B) {
	set := []*table.Table{paperdata.T1(), paperdata.T2(), paperdata.T3()}
	know := kb.Demo()
	b.Run("FixedThreshold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (schemamatch.Holistic{Knowledge: know}).Align(set); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("SilhouetteAutoCut", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (schemamatch.AutoHolistic{Knowledge: know}).Align(set); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationERMatchers compares the rule matcher against the
// learned logistic matcher on the Fig. 8(b) resolution.
func BenchmarkAblationERMatchers(b *testing.B) {
	know := kb.Demo()
	model, err := er.TrainLogistic(er.TrainingPairsFromFigures(know), er.TrainOptions{Knowledge: know})
	if err != nil {
		b.Fatal(err)
	}
	in := paperdata.Fig8bExpected()
	b.Run("Rule", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := er.Resolve(context.Background(), in, er.Options{Knowledge: know}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Learned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := er.ResolveLearned(context.Background(), in, model, know, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkIncrementalFD compares adding one late-arriving table to a
// maintained closure against recomputing the Full Disjunction from
// scratch, on the selective-key workload.
func BenchmarkIncrementalFD(b *testing.B) {
	in := ablationChainInput(400)
	split := len(in.Tuples) - 3*40 // the last 40 entities arrive late
	b.Run("Recompute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fd.ALITECtx(context.Background(), in)
		}
	})
	b.Run("IncrementalAdd", func(b *testing.B) {
		b.StopTimer()
		for i := 0; i < b.N; i++ {
			inc := fd.NewIncremental(in.Schema, in.Tuples[:split])
			b.StartTimer()
			inc.Add(in.Tuples[split:])
			_ = inc.Result()
			b.StopTimer()
		}
	})
}

// BenchmarkCancellationLatency measures the serving-grade cancellation
// bound: the time from cancelling a context to the FD closure returning,
// mid-flight on the X2 n=399 ALITE workload. The acceptance criterion is
// 50ms (in practice the checkpoint granularity keeps it far below); the
// interesting number is the custom cancel-ns/op metric, not ns/op, which is
// dominated by the deliberate mid-closure sleep.
func BenchmarkCancellationLatency(b *testing.B) {
	in, err := experiments.FragmentInput(150, 11)
	if err != nil {
		b.Fatal(err)
	}
	uncancelled, err := fd.ALITECtx(context.Background(), in)
	if err != nil || len(uncancelled) == 0 {
		b.Fatalf("workload broken: %d tuples, %v", len(uncancelled), err)
	}
	var total time.Duration
	for i := 0; i < b.N; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		// The worker re-runs the closure until the cancel lands mid-run, so
		// the measured latency is always checkpoint latency — sleeping until
		// "mid-closure" would be at the mercy of the scheduler's timer
		// resolution instead.
		go func() {
			for {
				if _, err := fd.ALITECtx(ctx, in); err != nil {
					errc <- err
					return
				}
			}
		}()
		time.Sleep(time.Millisecond)
		t0 := time.Now()
		cancel()
		<-errc
		total += time.Since(t0)
	}
	b.ReportMetric(float64(total.Nanoseconds())/float64(b.N), "cancel-ns/op")
}
