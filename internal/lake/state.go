package lake

import (
	"fmt"
	"time"

	"repro/internal/josie"
	"repro/internal/kb"
	"repro/internal/lshensemble"
	"repro/internal/par"
	"repro/internal/santos"
	"repro/internal/table"
)

// This file is the persistence surface of the lake: Export flattens
// everything preprocessing computed into a State of plain tables, strings
// and integers, and Restore rebuilds a query-identical Lake from it — no
// domain extraction, no MinHash signing, no KB annotation. What Restore
// still recomputes is exactly the cheap deterministic derivations:
// dictionary maps (the snapshot is the intern log, so a bulk one-pass
// reconstruction reproduces every ID), token
// fingerprints (cached FNV-1a per token), the JOSIE CSR layout (a counting
// pass over persisted token IDs), LSH band tables (re-banding persisted
// signatures), and the compiled KB engine (kb.Compile assigns the same
// dense IDs to equal KB content, which keeps the persisted SANTOS type IDs
// and packed edge keys meaningful).

// DomainState is one extracted column domain in snapshot form. The member
// strings are not stored: TokenIDs index into State.Tokens
// (member j is Tokens[TokenIDs[j]-1]), mirroring how the live lake keeps
// domains in the integer token universe.
type DomainState struct {
	Table      string
	Column     int
	ColumnName string
	TokenIDs   []uint32
	// Signature is the domain's cached MinHash signature under State.LSH's
	// geometry (exactly NumHashes words).
	Signature []uint64
}

// State is the flattened, restorable form of a Lake. It references the
// live lake's tables (Export does not deep-copy rows — tables are treated
// as immutable lake-wide); everything else is detached.
type State struct {
	Tables []*table.Table
	// KB is the lake's knowledge base content (curated plus any build-time
	// synthesis, already merged).
	KB  kb.Dump
	LSH lshensemble.Options
	// DictVals is the value dictionary in ID order (vals[i] interned under
	// ID i+1); cells must round-trip exactly (kind and payload), since
	// Equal-collapsed representatives are what the dictionary stores.
	DictVals []table.Value
	// Tokens is the token dictionary in ID order.
	Tokens  []string
	Domains []DomainState
	Santos  []santos.TableState
}

// Export flattens the lake. It holds the catalog read lock, so it is
// exclusive with mutations and captures a consistent cut of all three
// indexes and both dictionaries.
func (l *Lake) Export() (State, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	st := State{
		Tables:   append([]*table.Table(nil), l.tables...),
		KB:       l.knowledge.Dump(),
		LSH:      l.joinIx.Options(),
		DictVals: l.dict.Snapshot(),
		Tokens:   l.tokens.Snapshot(),
		Santos:   l.santosIx.Export(),
	}
	sigs := l.joinIx.ExportSignatures()
	st.Domains = make([]DomainState, len(l.domains))
	for i := range l.domains {
		d := &l.domains[i]
		sig, ok := sigs[d.Key()]
		if !ok {
			return State{}, fmt.Errorf("lake: export: no cached signature for domain %s", d.Key())
		}
		st.Domains[i] = DomainState{
			Table:      d.Table,
			Column:     d.Column,
			ColumnName: d.ColumnName,
			TokenIDs:   append([]uint32(nil), d.IDs...),
			Signature:  append([]uint64(nil), sig...),
		}
	}
	return st, nil
}

// Restore rebuilds a Lake from an exported State. The result answers every
// discovery, integration and resolution query identically to the exporting
// lake (and therefore — by the differential rebuild-equivalence guarantee
// every mutation maintains — to a fresh New over the same tables).
// Restore validates the state's internal references and fails with a
// descriptive error rather than building a corrupt lake.
//
// Restore takes ownership of the state's backing slices (DictVals, Tokens):
// callers must not reuse a State after passing it in. Both persistence
// callers decode a fresh State per Restore, so the alternative — copying a
// multi-megabyte dictionary on the warm-restart critical path — would only
// ever protect dead stores.
func Restore(s State) (*Lake, error) {
	if err := CheckAdd("lake: restore", s.Tables, nil); err != nil {
		return nil, err
	}
	l := &Lake{}
	l.setTables(s.Tables)
	// The snapshots are the dictionaries' intern logs, so the bulk restore
	// constructors reproduce every ID of the exporting lake; they reject a
	// log that sequential interning would have assigned differently (e.g. a
	// duplicate value that Equal-collapses onto an earlier ID).
	//
	// Restoration runs as two concurrent dependency chains over disjoint
	// state — the value-dictionary side (KB → dict → annotator → SANTOS) and
	// the token side (tokens → domains → LSH + JOSIE) share nothing until
	// both finish, so neither waits on the other's slowest stage.
	var dictErr, tokErr, domErr, santosErr, lshErr error
	par.Do(
		func() {
			t := time.Now()
			l.knowledge = kb.FromDump(s.KB)
			l.knowledge.Compiled() // memoized: clocked here, reused by refreshAnnotator below
			l.stats.KBPrep = time.Since(t)
			if l.dict, dictErr = table.RestoreDict(s.DictVals); dictErr != nil {
				return
			}
			l.refreshAnnotator()
			t = time.Now()
			l.santosIx, santosErr = santos.Restore(l.tables, l.Annotator(), s.Santos)
			l.stats.Santos = time.Since(t)
		},
		func() {
			t0 := time.Now()
			if l.tokens, tokErr = table.RestoreTokenDict(s.Tokens); tokErr != nil {
				return
			}
			l.domains = make([]lshensemble.Domain, len(s.Domains))
			sigs := make([][]uint64, len(s.Domains))
			domErrs := make([]error, len(s.Domains))
			par.For(len(s.Domains), func(i int) {
				ds := &s.Domains[i]
				vals := make([]string, len(ds.TokenIDs))
				for j, id := range ds.TokenIDs {
					if id == 0 || int64(id) > int64(len(s.Tokens)) {
						domErrs[i] = fmt.Errorf("lake: restore: domain %s[%d]: token ID %d out of range", ds.Table, ds.Column, id)
						return
					}
					vals[j] = s.Tokens[id-1]
				}
				// Restore owns the state (see the doc comment), so the token
				// IDs are adopted without a copy. Fingerprints stay nil: they
				// are only ever read to sign a domain, and restored domains
				// carry their persisted signatures — domains added later come
				// through lake extraction, which caches fingerprints itself.
				l.domains[i] = lshensemble.Domain{
					Table:      ds.Table,
					Column:     ds.Column,
					ColumnName: ds.ColumnName,
					Values:     vals,
					IDs:        ds.TokenIDs,
				}
				sigs[i] = ds.Signature
			})
			for _, err := range domErrs {
				if err != nil {
					domErr = err
					return
				}
			}
			l.domainIdx = make(map[colRef]int, len(l.domains))
			for i, d := range l.domains {
				l.domainIdx[colRef{d.Table, d.Column}] = i
			}
			l.stats.DomainExtraction = time.Since(t0)
			par.Do(
				func() {
					t := time.Now()
					l.joinIx, lshErr = lshensemble.Restore(l.domains, sigs, s.LSH, l.tokens)
					l.stats.LSH = time.Since(t)
				},
				func() {
					t := time.Now()
					l.josieIx = josie.BuildWithDict(josieSets(l.domains), l.tokens)
					l.stats.Josie = time.Since(t)
				},
			)
		},
	)
	if dictErr != nil {
		return nil, fmt.Errorf("lake: restore: %w", dictErr)
	}
	if tokErr != nil {
		return nil, fmt.Errorf("lake: restore: %w", tokErr)
	}
	if domErr != nil {
		return nil, domErr
	}
	if santosErr != nil {
		return nil, fmt.Errorf("lake: restore: %w", santosErr)
	}
	if lshErr != nil {
		return nil, fmt.Errorf("lake: restore: %w", lshErr)
	}
	return l, nil
}
