package kb

import "testing"

// The tests below keep the read-only scope contract pinned under the names
// it was first written for. Entity resolution now annotates through a fresh
// annotator per call, and QueryScope is the one scope kind left; it owes its
// root the same three guarantees: it borrows the root's extended codes, its
// identity does not drift while the root grows, and it never writes the root.

// scopeKB builds a tiny KB with an alias, for scope identity checks.
func scopeKB() *KB {
	k := New()
	k.AddEntity("united states", "country")
	k.AddAlias("usa", "united states")
	return k
}

func TestERScopeBorrowsRootExtendedIDs(t *testing.T) {
	root := NewAnnotator(scopeKB().Compiled())
	rc := root.CodeString("Wakanda") // the root allocates an extended code
	scope := root.QueryScope()
	// Another rendering of the same canonical reaches the root's code
	// through the canonical, not the rendering cache.
	if got := scope.CodeString("wakanda"); got != rc {
		t.Fatalf("scope did not borrow root code: got %d, want %d", got, rc)
	}
	if got := scope.CodeString("USA"); got != root.CodeString("United States") {
		t.Fatalf("alias code differs between scope (%d) and root", got)
	}
	if _, ext := scope.Size(); ext != 0 {
		t.Fatalf("scope allocated %d extended codes for canonicals the root holds", ext)
	}
}

func TestERScopeIdentityStableUnderRootGrowth(t *testing.T) {
	root := NewAnnotator(scopeKB().Compiled())
	scope := root.QueryScope()
	first := scope.CodeString("Wakanda") // unknown everywhere: the scope allocates
	if first <= CodeEmpty {
		t.Fatalf("foreign canonical got code %d, want an extended code", first)
	}
	// The root learns the same canonical, and another one, while the scope
	// lives; the scope keeps one code per canonical for its whole life.
	root.CodeString("wakanda")
	root.CodeString("Elbonia")
	if got := scope.CodeString("  WAKANDA  "); got != first {
		t.Fatalf("scope identity drifted after root growth: got %d, want %d", got, first)
	}
	if SameCode(scope.CodeString("Elbonia"), first) {
		t.Fatal("distinct canonicals share a code in the scope after root growth")
	}
}

func TestERScopeNeverWritesRoot(t *testing.T) {
	root := NewAnnotator(scopeKB().Compiled())
	scope := root.QueryScope()
	scope.CodeString("Narnia")
	scope.CodeString("USA")
	if raw, ext := root.Size(); raw != 0 || ext != 0 {
		t.Fatalf("root caches (raw %d, ext %d) after scope reads, want none", raw, ext)
	}
	// The root has never seen the canonical, so it allocates its own
	// extended code, and holds exactly that one.
	root.CodeString("Narnia")
	if _, ext := root.Size(); ext != 1 {
		t.Fatalf("root ext has %d entries, want exactly the root's own allocation", ext)
	}
}
