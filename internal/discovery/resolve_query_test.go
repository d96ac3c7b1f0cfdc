// resolve_query_test pins the single query path: the joinable discoverers
// resolve the query column once (lake.ResolveQuery) and search by token ID,
// whether the query table is the lake's own pointer (cached domain) or a
// copy of it — what the wire delivers to /v1/discover, a coordinator shard
// or the CLI (transient domain).
package discovery_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/difftest"
	"repro/internal/discovery"
	"repro/internal/lake"
	"repro/internal/table"
)

// messyTable mixes every cell shape query resolution has to get right: null
// cells, numeric cells in a textual column, cells that normalize to the empty
// string, duplicates that only collide after normalization, and a numeric
// column — not indexed, so its tokens are outside the lake vocabulary.
func messyTable() *table.Table {
	t := table.New("messy", "city", "code", "note")
	s, i, f, null := table.StringValue, table.IntValue, table.FloatValue, table.NullValue()
	t.MustAddRow(s("Berlin"), i(101), s("!!!"))
	t.MustAddRow(null, i(7), s("paris"))
	t.MustAddRow(s("42"), f(2.5), null)
	t.MustAddRow(s(" TOKYO "), i(101), s("--"))
	t.MustAddRow(s("tokyo"), i(9001), s("Paris"))
	t.MustAddRow(i(42), i(7), s("rome"))
	t.MustAddRow(s("a town no other table has"), null, s("..."))
	return t
}

func resolveLakeTables() []*table.Table {
	rng := rand.New(rand.NewSource(41))
	tables := []*table.Table{messyTable()}
	for i := 0; i < 24; i++ {
		tables = append(tables, difftest.DiffTable(rng, fmt.Sprintf("t%02d", i)))
	}
	return tables
}

// methodSig runs one method and renders its ranking with exact float64 bits
// (or its error — a method that rejects the column must reject the copy too).
func methodSig(t discovery.Target, q *table.Table, col int, method string) string {
	per, _, _, err := discovery.Discover(context.Background(), discovery.NewRegistry(), t, q, col, 0, []string{method})
	if err != nil {
		return "err:" + err.Error()
	}
	s := ""
	for _, r := range per[method] {
		s += fmt.Sprintf("%s|%016x|%d;", r.Table.Name, math.Float64bits(r.Score), r.Column)
	}
	return s
}

func TestCopiedQueryRanksLikeLakePointer(t *testing.T) {
	tables := resolveLakeTables()
	opts := lake.Options{Knowledge: difftest.DiffKB()}
	plain, err := lake.New(tables, opts)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := lake.NewSharded(tables, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The fixture covers both arms: indexed columns have a cached domain,
	// and the numeric column's tokens are unknown to the lake.
	if plain.DomainFor("messy", 0) == nil || plain.DomainFor("messy", 1) != nil {
		t.Fatal("fixture: messy.city must be indexed and messy.code must not be")
	}
	if plain.Tokens().Lookup("9001") != 0 {
		t.Fatal("fixture: a numeric-column value is in the lake vocabulary")
	}
	nonEmpty := 0
	for name, target := range map[string]discovery.Target{"plain": plain, "sharded": sharded} {
		for _, own := range tables {
			for col := 0; col < own.NumCols(); col++ {
				for _, m := range []string{"santos-union", "lsh-join", "josie-join"} {
					want := methodSig(target, own, col, m)
					if got := methodSig(target, own.Clone(), col, m); got != want {
						t.Errorf("%s/%s: a copy of %s[%d] ranks differently from the lake's own pointer\n copy: %s\n  own: %s", name, m, own.Name, col, got, want)
					}
					if want != "" && !strings.HasPrefix(want, "err:") {
						nonEmpty++
					}
				}
			}
		}
	}
	if nonEmpty == 0 {
		t.Fatal("every ranking was empty: the comparison proved nothing")
	}
}

// TestForeignQueriesNeverIntern: resolution looks tokens and values up; no
// number of foreign queries may grow the lake's dictionaries.
func TestForeignQueriesNeverIntern(t *testing.T) {
	l, err := lake.New(resolveLakeTables(), lake.Options{Knowledge: difftest.DiffKB()})
	if err != nil {
		t.Fatal(err)
	}
	tokens, values := l.Tokens().Len(), l.Dict().Len()
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 50; i++ {
		q := difftest.DiffTable(rng, fmt.Sprintf("foreign%d", i))
		unseen := make([]table.Value, q.NumCols())
		for c := range unseen {
			unseen[c] = table.StringValue(fmt.Sprintf("unseen value %d/%d", i, c))
		}
		q.MustAddRow(unseen...)
		for col := 0; col < q.NumCols(); col++ {
			for _, m := range difftest.DiffMethods {
				methodSig(l, q, col, m)
			}
		}
	}
	if got := l.Tokens().Len(); got != tokens {
		t.Errorf("token dictionary grew from %d to %d under foreign queries", tokens, got)
	}
	if got := l.Dict().Len(); got != values {
		t.Errorf("value dictionary grew from %d to %d under foreign queries", values, got)
	}
}
