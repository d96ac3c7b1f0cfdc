// race_test.go exercises the mutable lake's concurrency contract under the
// race detector (CI runs this package with -race): mutations are exclusive
// with each other, while discovery queries and catalog accessors run
// concurrently with them mid-churn.
package lake_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/difftest"
	"repro/internal/josie"
	"repro/internal/lake"
	"repro/internal/lshensemble"
	"repro/internal/santos"
	"repro/internal/table"
)

func TestQueriesConcurrentWithMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	pool := make([]*table.Table, 16)
	for i := range pool {
		pool[i] = difftest.DiffTable(rng, fmt.Sprintf("r%02d", i))
	}
	opts := lake.Options{Knowledge: difftest.DiffKB()}
	l, err := lake.New(pool[:8], opts)
	if err != nil {
		t.Fatal(err)
	}
	// A foreign query table: never added, so query-side extraction and
	// SANTOS query annotation run while the lake churns underneath.
	foreign := difftest.DiffTable(rng, "foreign")
	ctx := context.Background()
	const rounds = 40
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				vals := foreign.DistinctStrings(0)
				l.Josie().TopKCtx(ctx, vals, 5)
				l.Join().QueryCtx(ctx, vals, 0.4, 0)
				if _, err := l.Santos().QueryCtx(ctx, foreign, 0, 0); err != nil {
					t.Errorf("worker %d: santos: %v", w, err)
					return
				}
				l.Get("r03")
				l.DomainFor("r03", 0)
				l.Tables()
				l.Domains()
				l.Size()
				l.Stats()
			}
		}(w)
	}
	// The mutator: churn the second half of the pool in and out, with
	// periodic compaction.
	for round := 0; round < rounds; round++ {
		batch := pool[8+round%8]
		if err := l.Add(batch); err != nil {
			t.Errorf("Add: %v", err)
			break
		}
		if round%5 == 4 {
			l.Compact()
		}
		if err := l.Remove(batch.Name); err != nil {
			t.Errorf("Remove: %v", err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if l.Size() != 8 {
		t.Errorf("post-churn size = %d", l.Size())
	}
}

// TestViewPublishedPerMutation pins the lake's mutation contract: every Add
// and Remove publishes a fresh immutable view — the tables, SANTOS, the LSH
// Ensemble and JOSIE. Everything loaded before a mutation answers identically
// afterwards — also while the mutation runs, since readers race the writer
// here — and the indexes published afterwards answer exactly as fresh
// builds over the lake's surviving tables and domains.
func TestViewPublishedPerMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pool := make([]*table.Table, 12)
	for i := range pool {
		pool[i] = difftest.DiffTable(rng, fmt.Sprintf("j%02d", i))
	}
	foreign := difftest.DiffTable(rng, "foreign")
	queries := [][]string{foreign.DistinctStrings(0)}
	for _, p := range pool {
		queries = append(queries, p.DistinctStrings(0))
	}
	josieSig := func(ix *josie.Index) string {
		var b strings.Builder
		for _, q := range queries {
			rs, _ := ix.TopKCtx(context.Background(), q, 0)
			for _, r := range rs {
				fmt.Fprintf(&b, "%s|%d;", r.Set.Key(), r.Overlap)
			}
			b.WriteByte('\n')
		}
		return b.String()
	}
	joinSig := func(ix *lshensemble.Index) string {
		var b strings.Builder
		for _, q := range queries {
			for _, th := range []float64{0.2, 0.5} {
				rs, _ := ix.QueryCtx(context.Background(), q, th, 0)
				for _, r := range rs {
					fmt.Fprintf(&b, "%s|%x;", r.Domain.Key(), math.Float64bits(r.Containment))
				}
				b.WriteByte('\n')
			}
		}
		return b.String()
	}
	santosSig := func(ix *santos.Index) string {
		var b strings.Builder
		for _, q := range append([]*table.Table{foreign}, pool...) {
			rs, err := ix.QueryCtx(context.Background(), q, 0, 0)
			fmt.Fprintf(&b, "%v:", err)
			for _, r := range rs {
				fmt.Fprintf(&b, "%s|%x|%d;", r.Table.Name, math.Float64bits(r.Score), r.MatchedColumn)
			}
			b.WriteByte('\n')
		}
		return b.String()
	}
	tablesSig := func(ts []*table.Table) string {
		var b strings.Builder
		for _, t := range ts {
			fmt.Fprintf(&b, "%s;", t.Name)
		}
		return b.String()
	}
	// loaded is what a reader captured before a mutation, and sig what it
	// answers.
	type loaded struct {
		josie  *josie.Index
		santos *santos.Index
		join   *lshensemble.Index
		tables []*table.Table
	}
	sig := func(v loaded) [4]string {
		return [4]string{josieSig(v.josie), santosSig(v.santos), joinSig(v.join), tablesSig(v.tables)}
	}
	parts := [4]string{"JOSIE", "SANTOS", "LSH Ensemble", "Tables"}
	l, err := lake.New(pool[:6], lake.Options{Knowledge: difftest.DiffKB()})
	if err != nil {
		t.Fatal(err)
	}
	// Even rounds add pool[6..11], odd rounds remove pool[0..5].
	for round := 0; round < 12; round++ {
		old := loaded{l.Josie(), l.Santos(), l.Join(), l.Tables()}
		want := sig(old)
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got := sig(old)
				for i := range got {
					if got[i] != want[i] {
						t.Errorf("round %d: a loaded %s changed its answers during a mutation", round, parts[i])
					}
				}
			}()
		}
		if round%2 == 0 {
			err = l.Add(pool[6+round/2])
		} else {
			err = l.Remove(pool[round/2].Name)
		}
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		got := sig(old)
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d: a loaded %s changed its answers after the mutation\n got:\n%s\nwant:\n%s", round, parts[i], got[i], want[i])
			}
		}
		if l.Josie() == old.josie || l.Santos() == old.santos || l.Join() == old.join {
			t.Fatalf("round %d: the mutation published no new index", round)
		}
		if got, want := josieSig(l.Josie()), josieSig(josie.Build(l.Domains(), l.Tokens())); got != want {
			t.Fatalf("round %d: published JOSIE diverged from a build over Domains()\n got:\n%s\nwant:\n%s", round, got, want)
		}
		if got, want := santosSig(l.Santos()), santosSig(santos.Build(l.Tables(), l.Knowledge())); got != want {
			t.Fatalf("round %d: published SANTOS diverged from a build over Tables()\n got:\n%s\nwant:\n%s", round, got, want)
		}
		if got, want := joinSig(l.Join()), joinSig(lshensemble.Build(l.Domains(), l.Join().Options(), l.Tokens())); got != want {
			t.Fatalf("round %d: published LSH Ensemble diverged from a build over Domains()\n got:\n%s\nwant:\n%s", round, got, want)
		}
	}
}

// TestShardedReadsRaceWriters pins that a Sharded's catalog reads take no
// lock yet never tear: readers call Size, Tables and TableNames while a
// writer adds and removes tables, and every read equals one catalog order
// the writer published.
func TestShardedReadsRaceWriters(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pool := make([]*table.Table, 16)
	for i := range pool {
		pool[i] = difftest.DiffTable(rng, fmt.Sprintf("s%02d", i))
	}
	s, err := lake.NewSharded(pool[:8], 3, lake.Options{Knowledge: difftest.DiffKB()})
	if err != nil {
		t.Fatal(err)
	}
	names := func(ts []*table.Table) []string {
		out := make([]string, len(ts))
		for i, t := range ts {
			out[i] = t.Name
		}
		return out
	}
	// published holds every catalog order the writer left behind, in order.
	var mu sync.Mutex
	published := [][]string{names(s.Tables())}
	var reads [][]string
	var sizes []int
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// The writer starts once every reader has read, so reads race it even
	// at GOMAXPROCS 1, where a short writer loop could otherwise finish
	// before any reader is scheduled.
	var ready sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		ready.Add(1)
		go func() {
			defer wg.Done()
			readOnce := sync.OnceFunc(ready.Done)
			defer readOnce()
			var rs [][]string
			var ns []int
			for {
				select {
				case <-stop:
					mu.Lock()
					reads, sizes = append(reads, rs...), append(sizes, ns...)
					mu.Unlock()
					return
				default:
				}
				tn, err := s.TableNames(context.Background())
				if err != nil {
					t.Error(err)
					return
				}
				rs = append(rs, names(s.Tables()), tn)
				ns = append(ns, s.Size())
				readOnce()
			}
		}()
	}
	ready.Wait()
	mutate := func(apply func() error) {
		if err := apply(); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		published = append(published, names(s.Tables()))
		mu.Unlock()
	}
	// Each round adds an extra table, removes it with a base table in one
	// batch, and puts the base table back at the end of the order.
	for round := 0; round < 20; round++ {
		extra, base := pool[8+round%8], pool[round%8]
		mutate(func() error { return s.Add(extra) })
		mutate(func() error { return s.Remove(extra.Name, base.Name) })
		mutate(func() error { return s.Add(base) })
	}
	close(stop)
	wg.Wait()
	lens := map[int]bool{}
	for _, p := range published {
		lens[len(p)] = true
	}
	for _, r := range reads {
		if !slices.ContainsFunc(published, func(p []string) bool { return slices.Equal(p, r) }) {
			t.Fatalf("read %v equals no published catalog order", r)
		}
	}
	for _, n := range sizes {
		if !lens[n] {
			t.Fatalf("Size %d equals no published catalog size", n)
		}
	}
	if len(reads) == 0 {
		t.Fatal("no reads ran")
	}
}
