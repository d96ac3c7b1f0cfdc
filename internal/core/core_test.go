package core

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/discovery"
	"repro/internal/er"
	"repro/internal/integrate"
	"repro/internal/kb"
	"repro/internal/lake"
	"repro/internal/paperdata"
	"repro/internal/table"
	"repro/internal/tokenize"
)

func demoPipeline(t *testing.T) *Pipeline {
	t.Helper()
	p, err := New(paperdata.CovidLake(), Config{Knowledge: kb.Demo()})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFig1EndToEndPipeline(t *testing.T) {
	// The full paper walk-through: T1 discovers T2 (unionable) and T3
	// (joinable); ALITE integrates to Fig. 3; Example 3's correlations
	// follow.
	p := demoPipeline(t)
	q := paperdata.T1()
	city, _ := q.ColumnIndex(paperdata.ColCity)
	res, err := p.Run(context.Background(), RunRequest{Query: q, QueryColumn: city})
	if err != nil {
		t.Fatal(err)
	}
	// Discovery found both tables.
	names := make([]string, 0, len(res.Discovery.IntegrationSet))
	for _, tb := range res.Discovery.IntegrationSet {
		names = append(names, tb.Name)
	}
	if strings.Join(names, ",") != "T1,T2,T3" {
		t.Fatalf("integration set = %v", names)
	}
	// Integration matches Fig. 3 values.
	want := paperdata.Fig3Expected()
	got := res.Integration.Table.Clone()
	got.Columns = want.Columns
	if !got.EqualUnordered(want) {
		t.Fatalf("pipeline integration != Fig. 3:\n%s", res.Integration.Table)
	}
	// Analysis reproduces Example 3.
	r1, n1, err := p.Correlate(context.Background(), res.Integration.Table, paperdata.ColVaccRate, paperdata.ColDeathRate)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != 3 || math.Abs(math.Round(r1*100)/100-0.16) > 1e-9 {
		t.Errorf("corr(vacc,death) = %v over %d pairs, want 0.16 over 3", r1, n1)
	}
	r2, _, err := p.Correlate(context.Background(), res.Integration.Table, paperdata.ColCases, paperdata.ColVaccRate)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(math.Round(r2*10)/10-0.9) > 1e-9 {
		t.Errorf("corr(cases,vacc) = %v, want 0.9", r2)
	}
}

func TestDiscoverPerMethodResults(t *testing.T) {
	p := demoPipeline(t)
	q := paperdata.T1()
	resp, err := p.Discover(context.Background(), DiscoverRequest{Query: q, QueryColumn: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.PerMethod["santos-union"]) == 0 || resp.PerMethod["santos-union"][0].Table.Name != "T2" {
		t.Errorf("santos results = %+v", resp.PerMethod["santos-union"])
	}
	if len(resp.PerMethod["lsh-join"]) == 0 || resp.PerMethod["lsh-join"][0].Table.Name != "T3" {
		t.Errorf("lsh results = %+v", resp.PerMethod["lsh-join"])
	}
}

func TestDiscoverValidation(t *testing.T) {
	p := demoPipeline(t)
	if _, err := p.Discover(context.Background(), DiscoverRequest{}); err == nil {
		t.Error("nil query must error")
	}
	if _, err := p.Discover(context.Background(), DiscoverRequest{Query: paperdata.T1(), Methods: []string{"nope"}}); err == nil {
		t.Error("unknown method must error")
	}
	if _, err := p.Discover(context.Background(), DiscoverRequest{Query: paperdata.T1(), K: -1}); err == nil || !strings.Contains(err.Error(), "negative K") {
		t.Errorf("negative K = %v, want descriptive error", err)
	}
	for _, col := range []int{-1, paperdata.T1().NumCols()} {
		if _, err := p.Discover(context.Background(), DiscoverRequest{Query: paperdata.T1(), QueryColumn: col}); err == nil || !strings.Contains(err.Error(), "out of range") {
			t.Errorf("query column %d = %v, want out-of-range error", col, err)
		}
	}
}

// TestResolveEntitiesRequestScoped pins the ER scoping semantics: resolving
// a foreign (non-lake) table through the pipeline must produce exactly the
// resolution a direct er.Resolve over the lake's KB would — same clusters,
// same pair scores.
func TestResolveEntitiesRequestScoped(t *testing.T) {
	p := demoPipeline(t)
	tb := table.New("guest", "Vaccine", "Agency", "Country")
	tb.MustAddRow(table.StringValue("JnJ"), table.StringValue("FDA"), table.StringValue("USA"))
	tb.MustAddRow(table.StringValue("J&J"), table.StringValue("FDA"), table.StringValue("United States"))
	tb.MustAddRow(table.StringValue("Frobnicate Labs"), table.NullValue(), table.StringValue("Erewhon"))
	tb.MustAddRow(table.StringValue("Frobnicate  Labs"), table.NullValue(), table.StringValue("Erewhon"))
	got, err := p.ResolveEntities(context.Background(), tb, er.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := er.Resolve(context.Background(), tb, er.Options{Knowledge: p.Lake().Knowledge()})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Clusters) != len(want.Clusters) {
		t.Fatalf("scoped resolution: %d clusters, fresh annotator: %d", len(got.Clusters), len(want.Clusters))
	}
	for i := range got.Clusters {
		if len(got.Clusters[i]) != len(want.Clusters[i]) {
			t.Fatalf("cluster %d: scoped %v vs fresh %v", i, got.Clusters[i], want.Clusters[i])
		}
	}
	if len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("scoped pairs %d vs fresh %d", len(got.Pairs), len(want.Pairs))
	}
	for i := range got.Pairs {
		if got.Pairs[i] != want.Pairs[i] {
			t.Fatalf("pair %d: scoped %+v vs fresh %+v", i, got.Pairs[i], want.Pairs[i])
		}
	}
	// Repeat resolutions stay deterministic — each request gets a fresh
	// scope, never residue from the previous one.
	again, err := p.ResolveEntities(context.Background(), tb, er.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Clusters) != len(got.Clusters) {
		t.Fatalf("second scoped resolution diverged: %d vs %d clusters", len(again.Clusters), len(got.Clusters))
	}
}

// TestResolveEntitiesConcurrentWithAdd pins that the KB entity resolution
// reads is fixed at construction: resolutions of one user table run while
// AddTables grows the catalog, on a single lake and on a 3-shard one, and
// every result equals the one computed before the adds. Under -race it
// also pins that nothing a resolution reads is written by the adds.
func TestResolveEntitiesConcurrentWithAdd(t *testing.T) {
	user := table.New("guest", "City", "Country")
	for _, r := range [][2]string{
		{"Boston", "USA"}, {"Boston", "United States"}, {"Berlin", "Germany"},
		{"Lemuria", "Atlantis"}, {"Lemuria ", "Atlantis"},
	} {
		user.MustAddRow(table.StringValue(r[0]), table.StringValue(r[1]))
	}
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			p, err := New(paperdata.CovidLake(), Config{Knowledge: kb.Demo(), Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			resolve := func() string {
				res, err := p.ResolveEntities(context.Background(), user, er.Options{})
				if err != nil {
					return err.Error()
				}
				return fmt.Sprintf("%v %v\n%s", res.Clusters, res.Pairs, res.Resolved)
			}
			want := resolve()
			done := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						if got := resolve(); got != want {
							t.Errorf("resolution during AddTables:\n%s\nwant\n%s", got, want)
							return
						}
						select {
						case <-done:
							return
						default:
						}
					}
				}()
			}
			for i := 0; i < 8; i++ {
				extra := table.New(fmt.Sprintf("A%d", i), "City", "Country")
				extra.MustAddRow(table.StringValue("Lemuria"), table.StringValue("Atlantis"))
				extra.MustAddRow(table.StringValue(fmt.Sprintf("Town %d", i)), table.StringValue("USA"))
				extra.MustAddRow(table.StringValue("Berlin"), table.StringValue("Germany"))
				if err := p.AddTables(extra); err != nil {
					t.Error(err)
				}
			}
			close(done)
			wg.Wait()
			if got := resolve(); got != want {
				t.Errorf("resolution after AddTables:\n%s\nwant\n%s", got, want)
			}
		})
	}
}

func TestIntegrateUserProvidedSet(t *testing.T) {
	// §2.2: the integration set can be user-provided (traditional
	// integration) — the Fig. 7 vaccine tables without discovery.
	p := demoPipeline(t)
	resp, err := p.Integrate(context.Background(), IntegrateRequest{
		Tables: paperdata.VaccineSet(),
		RowIDs: func(name string, row int) string { return paperdata.TupleID(name, row) },
	})
	if err != nil {
		t.Fatal(err)
	}
	want := paperdata.Fig8bExpected()
	got := resp.Table.Clone()
	got.Columns = want.Columns
	if !got.EqualUnordered(want) {
		t.Fatalf("integrate != Fig. 8(b):\n%s", resp.Table)
	}
	if resp.Operator != "alite-fd" {
		t.Errorf("default operator = %q", resp.Operator)
	}
}

func TestIntegrateWithAlternativeOperator(t *testing.T) {
	p := demoPipeline(t)
	resp, err := p.Integrate(context.Background(), IntegrateRequest{Tables: paperdata.VaccineSet(), Operator: "outer-join"})
	if err != nil {
		t.Fatal(err)
	}
	want := paperdata.Fig8aExpected()
	got := resp.Table.Clone()
	got.Columns = want.Columns
	if !got.EqualUnordered(want) {
		t.Fatalf("outer-join != Fig. 8(a):\n%s", resp.Table)
	}
	if _, err := p.Integrate(context.Background(), IntegrateRequest{Tables: paperdata.VaccineSet(), Operator: "nope"}); err == nil {
		t.Error("unknown operator must error")
	}
	if _, err := p.Integrate(context.Background(), IntegrateRequest{}); err == nil {
		t.Error("empty set must error")
	}
}

func TestResolveEntitiesEndToEnd(t *testing.T) {
	// Fig. 8(d) via the pipeline: integrate with FD, then ER.
	p := demoPipeline(t)
	resp, err := p.Integrate(context.Background(), IntegrateRequest{Tables: paperdata.VaccineSet()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.ResolveEntities(context.Background(), resp.Table, er.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Resolved.NumRows() != 2 {
		t.Fatalf("ER over FD = %d entities, want 2:\n%s", res.Resolved.NumRows(), res.Resolved)
	}
	foundJJ := false
	for r := 0; r < res.Resolved.NumRows(); r++ {
		if res.Resolved.Cell(r, 0).Str() == "J&J" && res.Resolved.Cell(r, 1).Str() == "FDA" {
			foundJJ = true
		}
	}
	if !foundJJ {
		t.Error("resolved table must contain (J&J, FDA, ...)")
	}
}

func TestExtensibilityUserDiscovererAndOperator(t *testing.T) {
	// §3.2: register a custom discoverer (Fig. 4) and operator (Fig. 6)
	// and run the pipeline with them.
	p := demoPipeline(t)
	err := p.Discoverers().Register(discovery.SimilarityFunc{
		FuncName: "overlap-sim",
		Sim: func(q, c *table.Table) float64 {
			best := 0
			for qc := 0; qc < q.NumCols(); qc++ {
				for cc := 0; cc < c.NumCols(); cc++ {
					ov := tokenize.Overlap(
						tokenize.ValueSet(q.DistinctStrings(qc)),
						tokenize.ValueSet(c.DistinctStrings(cc)))
					if ov > best {
						best = ov
					}
				}
			}
			return float64(best)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = p.Operators().Register(integrate.Func{
		OpName: "user-outer-join",
		F:      integrate.FullOuterJoin{}.Run,
	})
	if err != nil {
		t.Fatal(err)
	}
	q := paperdata.T1()
	res, err := p.Run(context.Background(), RunRequest{Query: q, QueryColumn: 1, Methods: []string{"overlap-sim"}, Operator: "user-outer-join"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Discovery.IntegrationSet) < 2 {
		t.Errorf("custom discoverer found nothing: %v", res.Discovery.IntegrationSet)
	}
	if !strings.HasPrefix(res.Integration.Table.Name, "user-outer-join(") {
		t.Errorf("operator not applied: %q", res.Integration.Table.Name)
	}
}

func TestGenerateQueryTablePassthrough(t *testing.T) {
	p := demoPipeline(t)
	q, err := p.GenerateQueryTable("COVID-19 cases", 5, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumRows() != 5 || q.NumCols() != 5 {
		t.Error("generated table wrong shape")
	}
	// The generated covid query discovers the demo lake's tables.
	city, ok := q.ColumnIndex("City")
	if !ok {
		t.Fatal("generated table missing City")
	}
	resp, err := p.Discover(context.Background(), DiscoverRequest{Query: q, QueryColumn: city})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.PerMethod["santos-union"]) == 0 {
		t.Error("generated query should discover unionable tables")
	}
}

func TestCorrelateErrors(t *testing.T) {
	p := demoPipeline(t)
	tb := paperdata.T3()
	if _, _, err := p.Correlate(context.Background(), tb, "nope", paperdata.ColCases); err == nil {
		t.Error("unknown column must error")
	}
	if _, _, err := p.Correlate(context.Background(), tb, paperdata.ColCases, "nope"); err == nil {
		t.Error("unknown column must error")
	}
}

func TestFromDir(t *testing.T) {
	dir := t.TempDir()
	for _, tb := range paperdata.CovidLake() {
		if err := tb.WriteCSVFile(filepath.Join(dir, tb.Name+".csv")); err != nil {
			t.Fatal(err)
		}
	}
	p, err := FromDir(dir, Config{Knowledge: kb.Demo()})
	if err != nil {
		t.Fatal(err)
	}
	if p.Lake().Size() != 2 {
		t.Errorf("lake size = %d", p.Lake().Size())
	}
	if _, err := FromDir(filepath.Join(dir, "no"), Config{}); err == nil {
		t.Error("missing dir must error")
	}
}

// TestFromDirLakeChecks loads the COVID lake from CSV files without a
// knowledge base and checks the lake size, a missing directory and a
// directory holding no CSV files.
func TestFromDirLakeChecks(t *testing.T) {
	dir := t.TempDir()
	for _, tb := range paperdata.CovidLake() {
		if err := tb.WriteCSVFile(filepath.Join(dir, tb.Name+".csv")); err != nil {
			t.Fatal(err)
		}
	}
	p, err := FromDir(dir, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Lake().Size() != 2 {
		t.Errorf("FromDir size = %d", p.Lake().Size())
	}
	if _, err := FromDir(filepath.Join(dir, "missing"), Config{}); err == nil {
		t.Error("missing dir must error")
	}
	if _, err := FromDir(t.TempDir(), Config{}); err == nil {
		t.Error("dir without CSVs must error")
	}
}

// TestFromDirErrorPaths covers the loading failures FromDir must surface:
// an unreadable directory (a plain file in its place), malformed CSV
// content, and duplicate table names from files whose base names collide
// after extension stripping.
func TestFromDirErrorPaths(t *testing.T) {
	base := t.TempDir()

	notADir := filepath.Join(base, "file.txt")
	if err := os.WriteFile(notADir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := FromDir(notADir, Config{}); err == nil {
		t.Error("FromDir over a plain file must error")
	}

	malformed := filepath.Join(base, "malformed")
	if err := os.Mkdir(malformed, 0o755); err != nil {
		t.Fatal(err)
	}
	// An unterminated quote is a csv.Reader parse error.
	if err := os.WriteFile(filepath.Join(malformed, "bad.csv"), []byte("a,b\n\"unterminated,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := FromDir(malformed, Config{}); err == nil || !strings.Contains(err.Error(), "bad") {
		t.Errorf("malformed CSV error = %v, want mention of the file", err)
	}

	empty := filepath.Join(base, "emptyfile")
	if err := os.Mkdir(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(empty, "zero.csv"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := FromDir(empty, Config{}); err == nil {
		t.Error("zero-byte CSV must error")
	}

	dup := filepath.Join(base, "dup")
	if err := os.Mkdir(dup, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"t.csv", "t.CSV"} {
		if err := os.WriteFile(filepath.Join(dup, name), []byte("City\nBerlin\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := FromDir(dup, Config{}); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate table names error = %v", err)
	}

	if os.Geteuid() != 0 {
		locked := filepath.Join(base, "locked")
		if err := os.Mkdir(locked, 0o000); err != nil {
			t.Fatal(err)
		}
		defer os.Chmod(locked, 0o755)
		if _, err := FromDir(locked, Config{}); err == nil {
			t.Error("unreadable dir must error")
		}
	}
}

func TestPipelineMutableLake(t *testing.T) {
	p := demoPipeline(t)
	extra := table.New("T9", "City", "Cases")
	extra.MustAddRow(table.StringValue("Berlin"), table.IntValue(10))
	extra.MustAddRow(table.StringValue("Manchester"), table.IntValue(20))
	extra.MustAddRow(table.StringValue("Barcelona"), table.IntValue(30))
	if err := p.AddTables(extra); err != nil {
		t.Fatal(err)
	}
	if p.Lake().Size() != 3 {
		t.Fatalf("lake size = %d after AddTables", p.Lake().Size())
	}
	// The added table is discoverable end to end through the pipeline.
	q := paperdata.T1()
	city, _ := q.ColumnIndex(paperdata.ColCity)
	resp, err := p.Discover(context.Background(), DiscoverRequest{Query: q, QueryColumn: city, Methods: []string{"lsh-join"}})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range resp.PerMethod["lsh-join"] {
		found = found || r.Table.Name == "T9"
	}
	if !found {
		t.Error("added table not discovered")
	}
	if err := p.RemoveTables("T9"); err != nil {
		t.Fatal(err)
	}
	resp, err = p.Discover(context.Background(), DiscoverRequest{Query: q, QueryColumn: city, Methods: []string{"lsh-join"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range resp.PerMethod["lsh-join"] {
		if r.Table.Name == "T9" {
			t.Error("removed table still discovered")
		}
	}
	if err := p.RemoveTables("T9"); err == nil || !strings.Contains(err.Error(), "T9") {
		t.Errorf("removing a removed table = %v", err)
	}
	if err := p.AddTables(table.New("")); err == nil {
		t.Error("AddTables must propagate validation errors")
	}
}

// TestServedStagesNeverIntern: only building and mutating a catalog writes
// its value and token dictionaries. Every served stage over user tables
// full of unseen strings, ints and floats — integration under both
// operators, an end-to-end run, entity resolution and discovery — leaves
// the catalog's dictionary and every shard lake's interners as built, on a
// single lake and on a 3-shard composite.
func TestServedStagesNeverIntern(t *testing.T) {
	ctx := context.Background()
	var users []*table.Table
	for i := 0; i < 5; i++ {
		u := table.New(fmt.Sprintf("user%d", i), paperdata.ColCountry, paperdata.ColCity, paperdata.ColVaccRate, "Score", "Ratio")
		for r := 0; r < 4; r++ {
			u.MustAddRow(
				table.StringValue(fmt.Sprintf("Land %d-%d", i, r)),
				table.StringValue([]string{"Boston", "Berlin", fmt.Sprintf("Town %d-%d", i, r), "Toronto"}[r]),
				table.StringValue(fmt.Sprintf("%d%%", 40+10*i+r)),
				table.IntValue(int64(1000*i+r)),
				table.FloatValue(float64(i)+float64(r)/8),
			)
		}
		users = append(users, u)
	}
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			p, err := New(paperdata.CovidLake(), Config{Knowledge: kb.Demo(), Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			counts := func() string {
				n := 0
				if d := p.Lake().Dict(); d != nil {
					n = d.Len()
				}
				out := fmt.Sprintf("catalog dict %d;", n)
				for i, l := range p.Lake().(interface{ Shards() []*lake.Lake }).Shards() {
					out += fmt.Sprintf(" shard %d dict %d tokens %d;", i, l.Dict().Len(), l.Tokens().Len())
				}
				return out
			}
			want := counts()
			lakeTables, err := p.Lake().FetchTables(ctx, []string{"T2", "T3"})
			if err != nil {
				t.Fatal(err)
			}
			for _, u := range users {
				for _, op := range []string{"alite-fd", "outer-join"} {
					set := []*table.Table{u, lakeTables["T2"], lakeTables["T3"]}
					if _, err := p.Integrate(ctx, IntegrateRequest{Tables: set, Operator: op}); err != nil {
						t.Fatalf("%s %s: %v", u.Name, op, err)
					}
				}
				if _, err := p.Run(ctx, RunRequest{Query: u, QueryColumn: 1}); err != nil {
					t.Fatalf("%s run: %v", u.Name, err)
				}
				if _, err := p.ResolveEntities(ctx, u, er.Options{}); err != nil {
					t.Fatalf("%s resolve: %v", u.Name, err)
				}
				if _, err := p.Discover(ctx, DiscoverRequest{Query: u, QueryColumn: 1}); err != nil {
					t.Fatalf("%s discover: %v", u.Name, err)
				}
				if got := counts(); got != want {
					t.Fatalf("after serving %s: %s\nwant %s", u.Name, got, want)
				}
			}
		})
	}
}
