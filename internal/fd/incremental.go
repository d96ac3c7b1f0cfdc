package fd

import "context"

// Incremental maintains a Full Disjunction as tuples arrive (for example,
// as the user adds one more discovered table to the integration set). It
// retains the complementation *closure* — not just the maximal result —
// because subsumed tuples still matter: in Fig. 8, t13 = (⊥, FDA, United
// States) is subsumed by f8 once T4 and T5 are integrated, yet it is
// exactly the tuple that later merges with t15 to derive f13. Maintaining
// only the maximal tuples would lose that fact, which is the same
// information loss that makes outer-join chains order-dependent.
//
// Work per Add is proportional to the incoming tuples and the merges they
// trigger; already-processed pairs are never revisited.
type Incremental struct {
	schema []string
	c      *closer
}

// NewIncremental starts an incremental FD over the given integration
// schema, optionally seeded with initial aligned tuples.
func NewIncremental(schema []string, initial []Tuple) *Incremental {
	inc := &Incremental{
		schema: append([]string(nil), schema...),
		c:      newCloser(nil, initial),
	}
	inc.Add(initial)
	return inc
}

// Add ingests aligned tuples (padded to the schema, e.g. by OuterUnion)
// and extends the closure to its new fixpoint.
func (inc *Incremental) Add(tuples []Tuple) {
	inc.c.run(context.Background(), inc.c.seed(tuples))
}

// Result returns the current Full Disjunction: the subsumption-maximal
// tuples of the closure, canonically ordered. The closure state is not
// consumed; more tuples can be added afterwards.
func (inc *Incremental) Result() []Tuple {
	return inc.c.finalize()
}

// ClosureSize reports how many distinct tuples (source and merged) the
// closure currently holds — the state an incremental integration pays to
// keep.
func (inc *Incremental) ClosureSize() int { return len(inc.c.tuples) }

// Schema returns the integration schema.
func (inc *Incremental) Schema() []string { return inc.schema }
