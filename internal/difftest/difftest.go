package difftest

import (
	"context"
	"fmt"
	"math"
	"math/rand"

	"repro/internal/discovery"
	"repro/internal/kb"
	"repro/internal/lake"
	"repro/internal/table"
)

// Differential-equivalence helpers shared by the lake rebuild harness
// (internal/lake/differential_test.go) and the persistence crash-recovery
// matrix (internal/persist): a fixed small vocabulary that makes joinable
// and unionable overlaps dense, table/KB generators over it, and signature
// renderers that serialize discovery answers with float64 scores at full
// bit precision — so "byte-identical" comparisons mean exactly that.

// DiffCities and DiffCountries are the differential vocabulary.
var (
	DiffCities    = []string{"berlin", "paris", "tokyo", "boston", "lyon", "madrid", "rome", "oslo", "cairo", "lima", "new york", "sydney"}
	DiffCountries = []string{"germany", "france", "japan", "usa", "spain", "italy"}
)

// DiffCountryOf maps each city to one fixed country so the city->country
// relationship annotates consistently across every generated table.
func DiffCountryOf(city string) string {
	for i, c := range DiffCities {
		if c == city {
			return DiffCountries[i%len(DiffCountries)]
		}
	}
	return DiffCountries[0]
}

// DiffKB is the curated knowledge base of the differential lake: city and
// country types under a shared root, a located-in relationship, and a few
// aliases.
func DiffKB() *kb.KB {
	k := kb.New()
	k.AddType("place", "")
	k.AddType("city", "place")
	k.AddType("country", "place")
	for _, c := range DiffCities {
		k.AddEntity(c, "city")
	}
	for _, c := range DiffCountries {
		k.AddEntity(c, "country")
	}
	for _, c := range DiffCities {
		k.AddRelation(c, "located in", DiffCountryOf(c))
	}
	k.AddAlias("nyc", "new york")
	k.AddAlias("deutschland", "germany")
	return k
}

// DiffTable fabricates one lake table: a city column, usually a country
// column (row-aligned with the cities, so SANTOS sees the located-in
// relationship), and a numeric measure column.
func DiffTable(rng *rand.Rand, name string) *table.Table {
	withCountry := rng.Intn(4) != 0
	cols := []string{"city", "metric"}
	if withCountry {
		cols = []string{"city", "country", "metric"}
	}
	t := table.New(name, cols...)
	rows := 4 + rng.Intn(7)
	for r := 0; r < rows; r++ {
		city := DiffCities[rng.Intn(len(DiffCities))]
		metric := table.IntValue(int64(rng.Intn(1000)))
		if withCountry {
			t.MustAddRow(table.StringValue(city), table.StringValue(DiffCountryOf(city)), metric)
		} else {
			t.MustAddRow(table.StringValue(city), metric)
		}
	}
	return t
}

// DiffMethods is the discovery method set the signatures cover.
var DiffMethods = []string{"santos-union", "lsh-join", "josie-join", "syntactic-union"}

// DiscoverySig renders one full discovery run — every method's ranked
// results and the merged integration set — into a byte-comparable string.
// Scores are rendered from their exact float64 bits: "identical" means
// identical, not approximately equal. The target may be a single *lake.Lake,
// a *lake.Sharded, or a cluster coordinator over remote shard processes:
// the sharded and multi-process differential harnesses compare the forms'
// signatures directly. A partial run (unreachable shards) renders as an
// error, so degraded answers can never masquerade as equivalent ones.
func DiscoverySig(reg *discovery.Registry, l discovery.Target, q *table.Table, col, k int) string {
	perMethod, set, shardErrs, err := discovery.Discover(context.Background(), reg, l, q, col, k, DiffMethods)
	if err != nil {
		return "err:" + err.Error()
	}
	if len(shardErrs) > 0 {
		return fmt.Sprintf("err: partial run, %d shard(s) down: %v", len(shardErrs), shardErrs[0])
	}
	s := ""
	for _, m := range DiffMethods {
		s += m + ":"
		for _, r := range perMethod[m] {
			s += fmt.Sprintf("%s|%016x|%d;", r.Table.Name, math.Float64bits(r.Score), r.Column)
		}
		s += "\n"
	}
	s += "set:"
	for _, t := range set {
		s += t.Name + ";"
	}
	return s
}

// IndexSig renders raw index-level answers — JOSIE exact top-k, LSH
// Ensemble containment, SANTOS union search — for one query table. Unlike
// the discovery layer, which filters results through the lake catalog (and
// so would mask an index still returning a removed table as a ghost), this
// compares what the indexes themselves answer.
func IndexSig(l *lake.Lake, q *table.Table, col int) string {
	ctx := context.Background() // never cancelled: the joinable queries cannot fail
	vals := q.DistinctStrings(col)
	s := "josie:"
	overlaps, _ := l.Josie().TopKCtx(ctx, vals, 5)
	for _, r := range overlaps {
		s += fmt.Sprintf("%s|%d;", r.Set.Key(), r.Overlap)
	}
	s += "\nlsh:"
	containments, _ := l.Join().QueryCtx(ctx, vals, 0.4, 0)
	for _, r := range containments {
		s += fmt.Sprintf("%s|%016x;", r.Domain.Key(), math.Float64bits(r.Containment))
	}
	s += "\nsantos:"
	if res, err := l.Santos().QueryCtx(ctx, q, col, 0); err != nil {
		s += "err:" + err.Error()
	} else {
		for _, r := range res {
			s += fmt.Sprintf("%s|%016x|%d;", r.Table.Name, math.Float64bits(r.Score), r.MatchedColumn)
		}
	}
	return s
}

// LakeSig renders the discovery and raw index signatures of l for a set of
// query tables — the whole-lake fingerprint the persistence tests compare
// between a recovered lake and a fresh build.
func LakeSig(l *lake.Lake, queries []*table.Table) string {
	reg := discovery.NewRegistry()
	s := ""
	for _, q := range queries {
		s += "== " + q.Name + "\n"
		s += DiscoverySig(reg, l, q, 0, 0) + "\n"
		s += IndexSig(l, q, 0) + "\n"
	}
	return s
}
