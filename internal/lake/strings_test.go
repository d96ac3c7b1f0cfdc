package lake_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/difftest"
	"repro/internal/lake"
	"repro/internal/persist"
	"repro/internal/table"
)

// TestDomainsKeepNoStrings pins that a lake domain is its token IDs: after
// New, NewSharded, an Add, a Remove and a persist.Open recovery, every
// Domains() and DomainFor entry has nil Values, and its IDs, rendered
// through the lake's token dictionary (and by Domain.AppendStrings), are the
// column's QueryDomain value set, in order. The build synthesizes a KB, so
// the KB phase still reads the value strings before they are dropped.
func TestDomainsKeepNoStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	tables := make([]*table.Table, 9)
	for i := range tables {
		tables[i] = difftest.DiffTable(rng, fmt.Sprintf("s%02d", i))
	}
	opts := lake.Options{Knowledge: difftest.DiffKB(), SynthesizeKB: true}
	l, err := lake.New(tables, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkDomainsKeepNoStrings(t, "New", l)
	sh, err := lake.NewSharded(tables, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sh.Shards() {
		checkDomainsKeepNoStrings(t, fmt.Sprintf("NewSharded shard %d", i), s)
	}
	if err := l.Add(difftest.DiffTable(rng, "added")); err != nil {
		t.Fatal(err)
	}
	checkDomainsKeepNoStrings(t, "Add", l)
	if err := l.Remove(tables[0].Name); err != nil {
		t.Fatal(err)
	}
	checkDomainsKeepNoStrings(t, "Remove", l)

	fsys := persist.NewMemFS()
	st, err := persist.Create("lake", l, persist.Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	// A logged Add, so recovery replays a WAL record over the snapshot.
	if err := st.Add(difftest.DiffTable(rng, "logged")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := persist.Open("lake", persist.Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	checkDomainsKeepNoStrings(t, "persist.Open", re.Lake())
}

func checkDomainsKeepNoStrings(t *testing.T, stage string, l *lake.Lake) {
	t.Helper()
	var entries []*table.Domain
	domains := l.Domains()
	for i := range domains {
		entries = append(entries, &domains[i])
	}
	for _, tb := range l.Tables() {
		for c := 0; c < tb.NumCols(); c++ {
			if d := l.DomainFor(tb.Name, c); d != nil {
				entries = append(entries, d)
			}
		}
	}
	if len(entries) == 0 {
		t.Fatalf("%s: no domains", stage)
	}
	for _, d := range entries {
		if d.Values != nil {
			t.Errorf("%s: lake domain %s keeps %d value strings", stage, d.Key(), len(d.Values))
		}
		tb, ok := l.Get(d.Table)
		if !ok {
			t.Fatalf("%s: domain %s of a table not in the catalog", stage, d.Key())
		}
		want, err := lake.QueryDomain(tb, d.Column)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]string, len(d.IDs))
		for i, id := range d.IDs {
			if got[i], ok = l.Tokens().Token(id); !ok {
				t.Fatalf("%s: %s holds ID %d, unknown to the lake's dictionary", stage, d.Key(), id)
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: %s IDs render as %q, want QueryDomain's %q", stage, d.Key(), got, want)
		}
		if s := d.AppendStrings(nil); !slices.Equal(s, want) {
			t.Errorf("%s: %s AppendStrings = %q, want %q", stage, d.Key(), s, want)
		}
	}
}
