// race_test.go exercises the mutable lake's concurrency contract under the
// race detector (CI runs this package with -race): mutations are exclusive
// with each other, while discovery queries and catalog accessors run
// concurrently with them mid-churn.
package lake_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/difftest"
	"repro/internal/josie"
	"repro/internal/lake"
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
				l.Josie().TopK(vals, 5)
				l.Join().Query(vals, 0.4, 0)
				if _, err := l.Santos().Query(foreign, 0, 0); err != nil {
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

// TestJosiePublishedPerMutation pins JOSIE's mutation contract: every Add
// and Remove publishes a fresh immutable build. An index loaded before a
// mutation answers identically afterwards — also while the mutation runs,
// since readers race the writer here — and the index published afterwards
// answers exactly as josie.BuildWithDict over the lake's surviving domains.
func TestJosiePublishedPerMutation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pool := make([]*table.Table, 12)
	for i := range pool {
		pool[i] = difftest.DiffTable(rng, fmt.Sprintf("j%02d", i))
	}
	queries := [][]string{difftest.DiffTable(rng, "foreign").DistinctStrings(0)}
	for _, p := range pool {
		queries = append(queries, p.DistinctStrings(0))
	}
	sig := func(ix *josie.Index) string {
		var b strings.Builder
		for _, q := range queries {
			for _, r := range ix.TopK(q, 0) {
				fmt.Fprintf(&b, "%s|%d;", r.Set.Key(), r.Overlap)
			}
			b.WriteByte('\n')
		}
		return b.String()
	}
	l, err := lake.New(pool[:6], lake.Options{Knowledge: difftest.DiffKB()})
	if err != nil {
		t.Fatal(err)
	}
	// Even rounds add pool[6..11], odd rounds remove pool[0..5].
	for round := 0; round < 12; round++ {
		old := l.Josie()
		want := sig(old)
		var wg sync.WaitGroup
		for w := 0; w < 2; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := sig(old); got != want {
					t.Errorf("round %d: a loaded index changed its answers during a mutation", round)
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
		if got := sig(old); got != want {
			t.Fatalf("round %d: a loaded index changed its answers after the mutation\n got:\n%s\nwant:\n%s", round, got, want)
		}
		if l.Josie() == old {
			t.Fatalf("round %d: the mutation published no new index", round)
		}
		if got, want := sig(l.Josie()), sig(josie.BuildWithDict(l.Domains(), l.Tokens())); got != want {
			t.Fatalf("round %d: published index diverged from a build over Domains()\n got:\n%s\nwant:\n%s", round, got, want)
		}
	}
}
