package lake

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/kb"
	"repro/internal/paperdata"
	"repro/internal/table"
)

func cityTable(name string, cities ...string) *table.Table {
	t := table.New(name, "City", "Cases")
	for i, c := range cities {
		t.MustAddRow(table.StringValue(c), table.IntValue(int64(100+i)))
	}
	return t
}

func TestAddIndexesNewTable(t *testing.T) {
	l := demoLake(t)
	extra := cityTable("T9", "Berlin", "Tokyo", "Boston")
	if err := l.Add(extra); err != nil {
		t.Fatal(err)
	}
	if l.Size() != 3 {
		t.Fatalf("Size = %d", l.Size())
	}
	if got, ok := l.Get("T9"); !ok || got != extra {
		t.Error("Get(T9) after Add")
	}
	if l.DomainFor("T9", 0) == nil {
		t.Error("DomainFor(T9, 0) = nil after Add")
	}
	if l.Santos().NumTables() != 3 {
		t.Errorf("santos tables = %d", l.Santos().NumTables())
	}
	// The new domain must be discoverable through all joinable paths.
	if res, _ := l.Josie().TopKCtx(context.Background(), []string{"Berlin", "Tokyo"}, 0); len(res) == 0 {
		t.Error("JOSIE cannot find added table")
	} else {
		found := false
		for _, r := range res {
			found = found || r.Set.Table == "T9"
		}
		if !found {
			t.Error("JOSIE results missing T9")
		}
	}
	if res, _ := l.Join().QueryCtx(context.Background(), []string{"Berlin", "Tokyo", "Boston"}, 0.9, 0); len(res) == 0 {
		t.Error("LSH cannot find added table")
	}
}

func TestAddValidationIsAtomic(t *testing.T) {
	l := demoLake(t)
	good := cityTable("TNew", "Berlin")
	cases := []struct {
		batch []*table.Table
		want  string
	}{
		{[]*table.Table{good, nil}, "nil table"},
		{[]*table.Table{good, table.New("")}, "empty name"},
		{[]*table.Table{good, cityTable("T2", "Berlin")}, "duplicate"},
		{[]*table.Table{good, cityTable("TNew", "Berlin")}, "duplicate"},
	}
	for _, c := range cases {
		err := l.Add(c.batch...)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Add(%v) error = %v, want %q", c.batch, err, c.want)
		}
		// The valid prefix of the batch must not have been indexed.
		if _, ok := l.Get("TNew"); ok {
			t.Fatal("failed Add left a batch table in the lake")
		}
		if l.Size() != 2 {
			t.Fatalf("failed Add changed lake size to %d", l.Size())
		}
	}
	if err := l.Add(); err != nil {
		t.Errorf("empty Add = %v", err)
	}
}

func TestRemoveContract(t *testing.T) {
	l := demoLake(t)
	if err := l.Remove("T2", "nope"); err == nil || !strings.Contains(err.Error(), "nope") {
		t.Fatalf("Remove with unknown name = %v", err)
	}
	if l.Size() != 2 {
		t.Fatal("failed Remove mutated the lake")
	}
	if err := l.Remove("T2", "T2"); err != nil { // duplicates tolerated
		t.Fatal(err)
	}
	// The post-removal contract: absent from the catalog, nil domains.
	if _, ok := l.Get("T2"); ok {
		t.Error("Get(T2) ok after Remove")
	}
	for c := 0; c < 3; c++ {
		if l.DomainFor("T2", c) != nil {
			t.Errorf("DomainFor(T2, %d) != nil after Remove", c)
		}
	}
	if l.Size() != 1 || len(l.Tables()) != 1 {
		t.Errorf("Size = %d after Remove", l.Size())
	}
	for _, d := range l.Domains() {
		if d.Table == "T2" {
			t.Error("Domains() still lists removed table")
		}
	}
	if l.Santos().NumTables() != 1 {
		t.Errorf("santos tables = %d", l.Santos().NumTables())
	}
	// Remove everything: an empty lake is valid and re-addable.
	if err := l.Remove("T3"); err != nil {
		t.Fatal(err)
	}
	if l.Size() != 0 {
		t.Fatalf("Size = %d", l.Size())
	}
	if err := l.Add(paperdata.CovidLake()...); err != nil {
		t.Fatal(err)
	}
	if l.Size() != 2 || l.Santos().NumTables() != 2 {
		t.Error("re-adding into an emptied lake failed")
	}
}

// TestStatsAccumulateAcrossMutations pins the telemetry contract: mutation
// work lands in the same per-stage fields the build populated.
func TestStatsAccumulateAcrossMutations(t *testing.T) {
	l := demoLake(t)
	before := l.Stats()
	if err := l.Add(cityTable("T9", "Berlin", "Lyon")); err != nil {
		t.Fatal(err)
	}
	after := l.Stats()
	if after.DomainExtraction < before.DomainExtraction || after.Josie < before.Josie ||
		after.LSH < before.LSH || after.Santos < before.Santos {
		t.Errorf("mutation stats regressed: %+v -> %+v", before, after)
	}
}

// TestCatalogFreezesKB pins that a catalog's knowledge base is fixed when
// the catalog is built, for every catalog shape: mutating Knowledge()
// panics. With SynthesizeKB the catalog holds a merged copy, so the
// caller's own KB stays mutable, and mutating it changes none of the
// catalog's annotations or SANTOS answers.
func TestCatalogFreezesKB(t *testing.T) {
	type catalog interface{ Knowledge() *kb.KB }
	type hasShards interface{ Shards() []*Lake }
	shapes := []struct {
		name  string
		build func(Options) (catalog, error)
	}{
		{"New", func(o Options) (catalog, error) { return New(paperdata.CovidLake(), o) }},
		{"NewSharded", func(o Options) (catalog, error) { return NewSharded(paperdata.CovidLake(), 3, o) }},
		{"NewComposite", func(o Options) (catalog, error) {
			k := o.Knowledge
			if o.SynthesizeKB {
				k = k.Merge(kb.Synthesize(paperdata.CovidLake(), kb.SynthesizeOptions{}))
			}
			return NewComposite(3, k), nil
		}},
	}
	towns := []string{"Atlantis", "El Dorado", "Lemuria", "Berlin"}
	query := cityTable("T10", towns...)
	// answers renders what the catalog computes from its KB: the column
	// annotation of the towns, and each shard's SANTOS ranking for a query
	// over them.
	answers := func(c catalog) string {
		ck := c.Knowledge().Compiled()
		codes := make([]uint32, len(towns))
		for i, s := range towns {
			codes[i] = ck.Code(s)
		}
		a, _ := ck.AnnotateColumnCodes(codes, ck.NewScratch())
		out := fmt.Sprintf("%+v", a)
		if sh, ok := c.(hasShards); ok {
			for _, l := range sh.Shards() {
				res, err := l.Santos().QueryCtx(context.Background(), query, 0, 0)
				out += fmt.Sprintf(" %v", err)
				for _, r := range res {
					out += fmt.Sprintf(" %s/%v/%d", r.Table.Name, r.Score, r.MatchedColumn)
				}
			}
		}
		return out
	}
	mutateTowns := func(k *kb.KB) {
		for _, town := range towns[:3] {
			k.AddEntity(town, kb.TypeCity)
		}
	}
	for _, shape := range shapes {
		for _, synth := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/synth=%v", shape.name, synth), func(t *testing.T) {
				own := kb.Demo()
				c, err := shape.build(Options{Knowledge: own, SynthesizeKB: synth})
				if err != nil {
					t.Fatal(err)
				}
				before := answers(c)
				func() {
					defer func() {
						if recover() == nil {
							t.Error("mutating the catalog's Knowledge() did not panic")
						}
					}()
					mutateTowns(c.Knowledge())
				}()
				if !synth {
					if c.Knowledge() != own {
						t.Fatal("without synthesis the catalog must hold the caller's KB")
					}
					return
				}
				if c.Knowledge() == own {
					t.Fatal("with synthesis the catalog must hold a merged copy")
				}
				mutateTowns(own) // the caller's KB stays mutable
				if !own.HasEntity("Atlantis") {
					t.Fatal("the caller's KB did not take the mutation")
				}
				if after := answers(c); after != before {
					t.Errorf("the caller's KB mutation reached the catalog:\n before %s\n after  %s", before, after)
				}
			})
		}
	}
}
