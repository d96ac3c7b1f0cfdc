package lake

import (
	"repro/internal/kb"
	"repro/internal/lshensemble"
	"repro/internal/table"
)

// State is what a lake is, as opposed to what preprocessing derives from
// it: the tables, the knowledge base they are annotated with, and the LSH
// geometry — what a snapshot holds. The token dictionary and the discovery
// indexes are not part of it: New rebuilds them from exactly these inputs,
// so a lake rebuilt from a State answers every query as the lake it was
// taken from does (the rebuild-equivalence guarantee every mutation
// maintains). persist decodes a snapshot into one.
type State struct {
	Tables []*table.Table
	// KB is the lake's knowledge base content, fixed at build: curated plus
	// any build-time synthesis, already merged.
	KB  kb.Dump
	LSH lshensemble.Options
}
