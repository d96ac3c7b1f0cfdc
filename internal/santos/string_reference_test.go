package santos

// The string reference path the cross-check suite pins the compiled engine
// against: row pairs as rendered strings and the type-match score over the
// string type hierarchy.

import (
	"repro/internal/kb"
	"repro/internal/table"
)

// rowPairs extracts row-aligned (a,b) string pairs where both cells are
// non-null. It is retained as part of the string reference path the
// cross-check suite pins the compiled engine against.
func rowPairs(t *table.Table, a, b int) [][2]string {
	var out [][2]string
	for _, row := range t.Rows {
		if row[a].IsNull() || row[b].IsNull() {
			continue
		}
		out = append(out, [2]string{row[a].String(), row[b].String()})
	}
	return out
}

// typeMatchScore scores how well candidate type ct matches query type qt,
// walking the string hierarchy. Reference implementation for the
// cross-check suite; queries use typeMatchScoreID.
func typeMatchScore(knowledge *kb.KB, qt, ct string) float64 {
	if qt == ct {
		return 1
	}
	w := 1.0
	for _, anc := range knowledge.Ancestors(ct) {
		w *= supertypeDecay
		if anc == qt {
			return w
		}
	}
	w = 1.0
	for _, anc := range knowledge.Ancestors(qt) {
		w *= supertypeDecay
		if anc == ct {
			return w
		}
	}
	return 0
}
