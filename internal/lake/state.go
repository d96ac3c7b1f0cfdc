package lake

import (
	"repro/internal/kb"
	"repro/internal/lshensemble"
	"repro/internal/table"
)

// State is what a lake is, as opposed to what preprocessing derives from
// it: the tables, the knowledge base they are annotated with, and the LSH
// geometry. The value dictionary and the discovery indexes are not part of
// it — New rebuilds them from exactly these inputs, so a lake rebuilt from
// a State answers every query as the exporting lake does (the
// rebuild-equivalence guarantee every mutation maintains). It references
// the live lake's tables (Export does not deep-copy rows — tables are
// treated as immutable lake-wide).
type State struct {
	Tables []*table.Table
	// KB is the lake's knowledge base content, fixed at build: curated plus
	// any build-time synthesis, already merged.
	KB  kb.Dump
	LSH lshensemble.Options
}

// Export flattens the lake. It holds the catalog read lock, so it is
// exclusive with mutations and captures a consistent cut of the catalog.
func (l *Lake) Export() State {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return State{
		Tables: append([]*table.Table(nil), l.tables...),
		KB:     l.knowledge.Dump(),
		LSH:    l.joinIx.Options(),
	}
}
