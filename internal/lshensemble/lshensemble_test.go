package lshensemble

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/table"
)

// interned gives each domain its values' IDs in dict, as lake extraction
// gives its domains (test domains hold normalized, deduplicated values).
func interned(dict *table.TokenDict, domains []Domain) []Domain {
	for i := range domains {
		domains[i].IDs = dict.InternAll(domains[i].Values, nil)
	}
	return domains
}

// mkDomain builds a domain of n synthetic members starting at offset.
func mkDomain(table string, col, n, offset int) Domain {
	vals := make([]string, n)
	for i := range vals {
		vals[i] = fmt.Sprintf("val%05d", i+offset)
	}
	return Domain{Table: table, Column: col, Values: vals}
}

func TestDomainKey(t *testing.T) {
	d := Domain{Table: "t", Column: 3}
	if d.Key() != "t[3]" {
		t.Errorf("Key = %q", d.Key())
	}
}

func TestBuildEmptyIndex(t *testing.T) {
	ix := Build(nil, Options{}, table.NewTokenDict())
	if ix.NumDomains() != 0 {
		t.Error("empty build should have no domains")
	}
	if got, _ := ix.QueryCtx(context.Background(), []string{"x"}, 0.5, 10); got != nil {
		t.Errorf("query on empty index = %v", got)
	}
}

func TestEmptyQuery(t *testing.T) {
	dict := table.NewTokenDict()
	ix := Build(interned(dict, []Domain{mkDomain("a", 0, 10, 0)}), Options{}, dict)
	if got, _ := ix.QueryCtx(context.Background(), nil, 0.5, 10); got != nil {
		t.Errorf("empty query = %v", got)
	}
	if got, _ := ix.QueryCtx(context.Background(), []string{"", "  "}, 0.5, 10); got != nil {
		t.Errorf("all-null query = %v", got)
	}
}

func TestExactContainmentMatch(t *testing.T) {
	// Query fully contained in domain A, half contained in B, absent from C.
	domains := []Domain{
		{Table: "A", Column: 0, Values: []string{"berlin", "barcelona", "boston", "new delhi"}},
		{Table: "B", Column: 0, Values: []string{"berlin", "boston", "tokyo", "paris"}},
		{Table: "C", Column: 0, Values: []string{"lyon", "rome"}},
	}
	dict := table.NewTokenDict()
	ix := Build(interned(dict, domains), Options{NumHashes: 256, NumPartitions: 2}, dict)
	got, _ := ix.QueryCtx(context.Background(), []string{"Berlin", "Barcelona", "Boston", "New Delhi"}, 0.9, 10)
	if len(got) != 1 || got[0].Domain.Table != "A" || got[0].Containment != 1 {
		t.Fatalf("threshold 0.9: got %+v", got)
	}
	got, _ = ix.QueryCtx(context.Background(), []string{"Berlin", "Barcelona", "Boston", "New Delhi"}, 0.4, 10)
	if len(got) != 2 || got[0].Domain.Table != "A" || got[1].Domain.Table != "B" {
		t.Fatalf("threshold 0.4: got %+v", got)
	}
	if got[1].Containment != 0.5 {
		t.Errorf("B containment = %v, want 0.5", got[1].Containment)
	}
}

func TestNoFalsePositives(t *testing.T) {
	// Verification guarantees every result meets the threshold exactly.
	rng := rand.New(rand.NewSource(7))
	var domains []Domain
	for i := 0; i < 50; i++ {
		n := 5 + rng.Intn(200)
		domains = append(domains, mkDomain(fmt.Sprintf("t%d", i), 0, n, rng.Intn(500)))
	}
	dict := table.NewTokenDict()
	ix := Build(interned(dict, domains), Options{NumHashes: 128, NumPartitions: 4}, dict)
	query := make([]string, 60)
	for i := range query {
		query[i] = fmt.Sprintf("val%05d", 100+i)
	}
	for _, th := range []float64{0.3, 0.5, 0.8} {
		got, _ := ix.QueryCtx(context.Background(), query, th, 0)
		for _, r := range got {
			if r.Containment < th {
				t.Errorf("threshold %v: result %s has containment %v", th, r.Domain.Key(), r.Containment)
			}
		}
	}
}

func TestRecallAgainstExact(t *testing.T) {
	// The ensemble should find nearly everything the exact scan finds.
	rng := rand.New(rand.NewSource(42))
	var domains []Domain
	for i := 0; i < 200; i++ {
		n := 20 + rng.Intn(300)
		domains = append(domains, mkDomain(fmt.Sprintf("t%d", i), 0, n, rng.Intn(400)))
	}
	dict := table.NewTokenDict()
	ix := Build(interned(dict, domains), Options{NumHashes: 256, NumPartitions: 8}, dict)
	query := make([]string, 80)
	for i := range query {
		query[i] = fmt.Sprintf("val%05d", 200+i)
	}
	truth := ExactQuery(domains, query, 0.5, 0)
	got, _ := ix.QueryCtx(context.Background(), query, 0.5, 0)
	gotSet := make(map[string]bool)
	for _, r := range got {
		gotSet[r.Domain.Key()] = true
	}
	found := 0
	for _, r := range truth {
		if gotSet[r.Domain.Key()] {
			found++
		}
	}
	if len(truth) == 0 {
		t.Fatal("test setup produced no true results")
	}
	recall := float64(found) / float64(len(truth))
	if recall < 0.9 {
		t.Errorf("recall = %v (%d/%d), want >= 0.9", recall, found, len(truth))
	}
}

func TestTopKTruncation(t *testing.T) {
	var domains []Domain
	for i := 0; i < 10; i++ {
		domains = append(domains, mkDomain(fmt.Sprintf("t%d", i), 0, 20, 0))
	}
	dict := table.NewTokenDict()
	ix := Build(interned(dict, domains), Options{NumHashes: 128, NumPartitions: 2}, dict)
	query := make([]string, 20)
	for i := range query {
		query[i] = fmt.Sprintf("val%05d", i)
	}
	got, _ := ix.QueryCtx(context.Background(), query, 0.5, 3)
	if len(got) != 3 {
		t.Errorf("top-3 returned %d results", len(got))
	}
}

func TestRankingDeterministic(t *testing.T) {
	domains := []Domain{
		{Table: "B", Column: 0, Values: []string{"x", "y"}},
		{Table: "A", Column: 0, Values: []string{"x", "y"}},
	}
	dict := table.NewTokenDict()
	ix := Build(interned(dict, domains), Options{NumHashes: 64}, dict)
	got, _ := ix.QueryCtx(context.Background(), []string{"x", "y"}, 0.5, 0)
	if len(got) != 2 || got[0].Domain.Table != "A" {
		t.Errorf("tie-break must be by key: %+v", got)
	}
}

func TestQueryNormalization(t *testing.T) {
	// Query values are normalized the same way domains are assumed to be.
	domains := []Domain{{Table: "A", Column: 0, Values: []string{"united states", "canada"}}}
	dict := table.NewTokenDict()
	ix := Build(interned(dict, domains), Options{NumHashes: 128}, dict)
	got, _ := ix.QueryCtx(context.Background(), []string{"United  States", "CANADA"}, 0.9, 0)
	if len(got) != 1 || got[0].Containment != 1 {
		t.Errorf("normalized query should fully match: %+v", got)
	}
}

func TestExactQueryBaseline(t *testing.T) {
	domains := []Domain{
		{Table: "A", Column: 0, Values: []string{"a", "b", "c"}},
		{Table: "B", Column: 0, Values: []string{"a", "z"}},
	}
	got := ExactQuery(domains, []string{"a", "b"}, 0.5, 0)
	if len(got) != 2 || got[0].Domain.Table != "A" || got[0].Containment != 1 || got[1].Containment != 0.5 {
		t.Errorf("ExactQuery = %+v", got)
	}
	if ExactQuery(domains, nil, 0.5, 0) != nil {
		t.Error("empty query must return nil")
	}
	if got := ExactQuery(domains, []string{"a", "b"}, 0.5, 1); len(got) != 1 {
		t.Error("top-k truncation broken")
	}
}

func TestPartitionUpperBounds(t *testing.T) {
	// Domains of wildly different sizes must still be found (the partition
	// conversion depends on per-partition upper bounds).
	var domains []Domain
	domains = append(domains, mkDomain("small", 0, 10, 0))
	domains = append(domains, mkDomain("large", 0, 5000, 0)) // superset of small
	for i := 0; i < 20; i++ {
		domains = append(domains, mkDomain(fmt.Sprintf("noise%d", i), 0, 100, 100000+i*500))
	}
	dict := table.NewTokenDict()
	ix := Build(interned(dict, domains), Options{NumHashes: 256, NumPartitions: 4}, dict)
	query := make([]string, 10)
	for i := range query {
		query[i] = fmt.Sprintf("val%05d", i)
	}
	got, _ := ix.QueryCtx(context.Background(), query, 0.9, 0)
	keys := make(map[string]bool)
	for _, r := range got {
		keys[r.Domain.Table] = true
	}
	if !keys["small"] || !keys["large"] {
		t.Errorf("expected both small and large domains, got %v", keys)
	}
}
