package lake

import (
	"errors"
	"testing"

	"repro/internal/kb"
	"repro/internal/paperdata"
	"repro/internal/table"
)

func demoLake(t *testing.T) *Lake {
	t.Helper()
	l, err := New(paperdata.CovidLake(), Options{Knowledge: kb.Demo()})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestNewBuildsAllIndexes(t *testing.T) {
	l := demoLake(t)
	if l.Size() != 2 {
		t.Fatalf("size = %d", l.Size())
	}
	if l.Santos() == nil || l.Join() == nil || l.Josie() == nil {
		t.Fatal("indexes missing")
	}
	if l.Santos().NumTables() != 2 {
		t.Error("santos index incomplete")
	}
	// Domains: T2 has City+Country textual; T3 has City. Rate/cases are
	// textual strings too ("83%", "1.4M") — so expect at least 3 domains.
	if len(l.Domains()) < 3 {
		t.Errorf("domains = %d", len(l.Domains()))
	}
	if _, ok := l.Get("T3"); !ok {
		t.Error("Get(T3) failed")
	}
	if _, ok := l.Get("nope"); ok {
		t.Error("Get(nope) should fail")
	}
}

// TestBuildInternsNoCells: New and Add intern domain tokens but no cells,
// so the value dictionary Dict returns stays empty.
func TestBuildInternsNoCells(t *testing.T) {
	l := demoLake(t)
	if n := l.Dict().Len(); n != 0 {
		t.Errorf("after New the value dictionary holds %d values", n)
	}
	tokens := l.Tokens().Len()
	if err := l.Add(paperdata.T1(), paperdata.T4()); err != nil {
		t.Fatal(err)
	}
	if n := l.Dict().Len(); n != 0 {
		t.Errorf("after Add the value dictionary holds %d values", n)
	}
	if l.Tokens().Len() <= tokens {
		t.Errorf("Add interned no tokens: %d before, %d after", tokens, l.Tokens().Len())
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New([]*table.Table{nil}, Options{}); err == nil {
		t.Error("nil table must error")
	}
	if _, err := New([]*table.Table{table.New("")}, Options{}); err == nil {
		t.Error("empty name must error")
	}
	dup := []*table.Table{table.New("x", "a"), table.New("x", "b")}
	if _, err := New(dup, Options{}); err == nil {
		t.Error("duplicate names must error")
	}
	empty, err := New(nil, Options{})
	if err != nil || empty.Size() != 0 {
		t.Error("empty lake must build")
	}
}

func TestSynthesizeKBOption(t *testing.T) {
	l, err := New(paperdata.CovidLake(), Options{SynthesizeKB: true})
	if err != nil {
		t.Fatal(err)
	}
	// The synthesized KB knows the lake's own values.
	if !l.Knowledge().HasEntity("berlin") {
		t.Error("synthesized KB should know lake values")
	}
	merged, err := New(paperdata.CovidLake(), Options{Knowledge: kb.Demo(), SynthesizeKB: true})
	if err != nil {
		t.Fatal(err)
	}
	if !merged.Knowledge().HasEntity("berlin") || !merged.Knowledge().SameEntity("USA", "United States") {
		t.Error("merged KB must keep curated aliases and synthesized entities")
	}
}

func TestQueryDomain(t *testing.T) {
	q := paperdata.T1()
	d, err := QueryDomain(q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(d) != 3 || d[0] != "berlin" {
		t.Errorf("QueryDomain = %v", d)
	}
	if _, err := QueryDomain(q, 9); err == nil {
		t.Error("out of range must error")
	}
}

// TestPinnedHandleRefusesWithErrPinned: Add and Remove on a pinned handle
// of a Lake or a Sharded answer ErrPinned, which callers can tell apart
// from a caller's bad batch.
func TestPinnedHandleRefusesWithErrPinned(t *testing.T) {
	l := demoLake(t)
	sharded, err := NewSharded(paperdata.CovidLake(), 2, Options{Knowledge: kb.Demo()})
	if err != nil {
		t.Fatal(err)
	}
	q := l.Tables()[0]
	hs, _ := l.Pin(q, 0)
	shs, _ := sharded.Pin(q, 0)
	for i, h := range append(hs, shs...) {
		if err := h.Add(table.New("added", "a")); !errors.Is(err, ErrPinned) {
			t.Errorf("handle %d: Add = %v, want ErrPinned", i, err)
		}
		if err := h.Remove(q.Name); !errors.Is(err, ErrPinned) {
			t.Errorf("handle %d: Remove = %v, want ErrPinned", i, err)
		}
	}
}
