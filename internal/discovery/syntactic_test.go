package discovery_test

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/difftest"
	"repro/internal/discovery"
	"repro/internal/lake"
	"repro/internal/table"
	"repro/internal/tokenize"
)

// referenceSyntacticUnion is syntactic-union over value strings: each
// non-empty query column's QueryDomain value set is matched by
// tokenize.Jaccard to the value sets of every lake domain of a table,
// which it reads from the catalog's tables (QueryDomain of each domain's
// column), and the table scores the average best match. It renders the
// ranking as methodSig does, with exact float64 bits.
func referenceSyntacticUnion(l *lake.Lake, q *table.Table) string {
	var qdoms [][]string
	for c := 0; c < q.NumCols(); c++ {
		if qd, _ := lake.QueryDomain(q, c); len(qd) > 0 {
			qdoms = append(qdoms, qd)
		}
	}
	perTable := make(map[string][][]string)
	for _, d := range l.Domains() {
		t, _ := l.Get(d.Table)
		vals, _ := lake.QueryDomain(t, d.Column)
		perTable[d.Table] = append(perTable[d.Table], vals)
	}
	type scored struct {
		name  string
		score float64
	}
	var ranked []scored
	for name, doms := range perTable {
		if name == q.Name || len(qdoms) == 0 {
			continue
		}
		total := 0.0
		for _, qd := range qdoms {
			bestSim := 0.0
			for _, ld := range doms {
				if s := tokenize.Jaccard(qd, ld); s > bestSim {
					bestSim = s
				}
			}
			total += bestSim
		}
		if total > 0 {
			ranked = append(ranked, scored{name, total / float64(len(qdoms))})
		}
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].score != ranked[j].score {
			return ranked[i].score > ranked[j].score
		}
		return ranked[i].name < ranked[j].name
	})
	s := ""
	for _, r := range ranked {
		s += fmt.Sprintf("%s|%016x|%d;", r.name, math.Float64bits(r.score), -1)
	}
	return s
}

// messyVariant is messyTable under another name, so the lake's own messy
// table is a candidate: out-of-vocabulary tokens, numbers in a text column
// and values that collide only after normalization, plus one row of its own.
func messyVariant(name, extra string) *table.Table {
	t := messyTable().Clone()
	t.Name = name
	t.MustAddRow(table.StringValue(extra), table.IntValue(7), table.StringValue(" ROME"))
	return t
}

// TestCrossCheckSyntacticUnion pins syntactic-union's token-ID Jaccard to
// the string reference: byte-identical rankings and score bits on a Lake
// and on a Sharded, for the lake's own tables, copies of them and foreign
// messy queries, after every step of a seeded Add/Remove schedule.
func TestCrossCheckSyntacticUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
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
	nonEmpty := 0
	check := func(step int) {
		t.Helper()
		live := plain.Tables()
		own := live[rng.Intn(len(live))]
		foreign := difftest.DiffTable(rng, fmt.Sprintf("foreign%d", step))
		row := []table.Value{table.StringValue(fmt.Sprintf("unseen city %d", step))}
		for len(row) < foreign.NumCols() {
			row = append(row, table.IntValue(42))
		}
		foreign.MustAddRow(row...)
		queries := []*table.Table{own, own.Clone(), messyTable(), messyVariant("messy-variant", "TOKYO"), foreign}
		for _, q := range queries {
			want := referenceSyntacticUnion(plain, q)
			if want != "" {
				nonEmpty++
			}
			for name, target := range map[string]discovery.Target{"plain": plain, "sharded": sharded} {
				for _, col := range []int{0, 1} {
					if got := methodSig(target, q, col, "syntactic-union"); got != want {
						t.Errorf("step %d, %s: %s[%d] ranks\n %s\nwant the string reference\n %s", step, name, q.Name, col, got, want)
					}
				}
			}
		}
	}
	check(0)
	next := 0
	for step := 1; step <= 12; step++ {
		live := plain.Tables()
		if rng.Intn(2) == 0 || len(live) < 6 {
			batch := []*table.Table{difftest.DiffTable(rng, fmt.Sprintf("add%02d", next))}
			if rng.Intn(3) == 0 {
				batch = append(batch, messyVariant(fmt.Sprintf("messy%02d", next), fmt.Sprintf("Town %d", next)))
			}
			next++
			if err := plain.Add(batch...); err != nil {
				t.Fatal(err)
			}
			if err := sharded.Add(batch...); err != nil {
				t.Fatal(err)
			}
		} else {
			doomed := live[rng.Intn(len(live))].Name
			if err := plain.Remove(doomed); err != nil {
				t.Fatal(err)
			}
			if err := sharded.Remove(doomed); err != nil {
				t.Fatal(err)
			}
		}
		check(step)
	}
	if nonEmpty == 0 {
		t.Fatal("every reference ranking was empty: the comparison proved nothing")
	}
}
