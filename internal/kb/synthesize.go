package kb

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/table"
	"repro/internal/tokenize"
)

// sortStrings sorts in place; split out so builtin.go stays import-light.
func sortStrings(xs []string) { sort.Strings(xs) }

// minJaccard is the column-pair value-overlap threshold at or above which
// two columns draw from the same synthesized type. It must stay positive:
// Synthesize only compares columns that share a value, and the pairs it
// never compares have Jaccard 0.
const minJaccard = 0.3

// maxPairsPerTable caps the relationship pairs recorded per column pair
// within one table (guards against quadratic blowup on very tall tables).
const maxPairsPerTable = 2000

// SynthesizeOptions is Synthesize's options argument. It has no fields;
// callers pass SynthesizeOptions{}.
type SynthesizeOptions struct{}

// Synthesize builds a knowledge base from the data lake itself, mirroring
// SANTOS's synthesized KB: when no curated KB covers a domain, the lake's
// own value co-occurrence structure supplies semantics.
//
//   - Columns that are mostly textual are clustered by value-set Jaccard
//     similarity (union-find over pairs at or above minJaccard); each
//     cluster becomes a synthesized type "syn:<representative>". Candidate
//     pairs come from a posting list per shared value, so only columns
//     that share a value are compared; the clusters, and so the KB, do not
//     depend on the order candidates are found in.
//   - Every distinct value of a clustered column becomes an entity of the
//     cluster's type.
//   - For each table and each ordered pair of clustered columns, row-aligned
//     value pairs become relationships labeled
//     "syn:<typeA>-><typeB>", so two tables that relate the same kinds of
//     things in the same way share relationship labels.
//
// Synthesize extracts each table's TextualDomains and runs SynthesizeDomains
// into an empty KB.
func Synthesize(tables []*table.Table, _ SynthesizeOptions) *KB {
	domains := make([][]table.Domain, len(tables))
	for i, t := range tables {
		domains[i] = TextualDomains(t)
	}
	k := New()
	SynthesizeDomains(k, tables, domains)
	return k
}

// TextualDomains returns the domains of t's mostly textual columns
// (MostlyTextual) with a non-empty value set (table.Table.ValueSet), in
// column order and without token IDs: the columns KB synthesis clusters and
// a lake's joinable-search indexes search.
func TextualDomains(t *table.Table) []table.Domain {
	var out []table.Domain
	for c := 0; c < t.NumCols(); c++ {
		if !MostlyTextual(t, c) {
			continue
		}
		if vals := t.ValueSet(c); len(vals) > 0 {
			out = append(out, table.NewDomain(t, c, vals, nil))
		}
	}
	return out
}

// SynthesizeDomains is Synthesize over domains already extracted, into k:
// domains[i] is TextualDomains(tables[i]). A lake build passes the domains
// it indexes, so each column's value set is computed once. The domains come
// per table, not as one flat list, because table names may repeat: a
// domain's Table name cannot say whose rows its relationships come from.
//
// k ends up exactly as k.Merge(Synthesize(tables)) would be, without the
// copy: a type k declares keeps its parent, entity types and relation
// labels are appended after k's own, and relation endpoints are keyed by
// tokenize.Normalize alone, never resolved through k's aliases. Domain
// values are stored as they are, already normalized. k must not be frozen.
func SynthesizeDomains(k *KB, tables []*table.Table, domains [][]table.Domain) {
	m := k.mutable()
	var cols []*table.Domain // every domain, in table then column order
	for ti := range domains {
		for j := range domains[ti] {
			cols = append(cols, &domains[ti][j])
		}
	}
	// Union-find clustering of columns by value overlap.
	parent := make([]int, len(cols))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if ra > rb {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	// Each value gets a dense ID and a posting list of the columns holding
	// it. Column i counts its overlap with every earlier column j through
	// the postings of its own values (value sets are distinct, so a column
	// enters a posting list once), then tests exactly tokenize.Jaccard's
	// expression against the threshold.
	valueID := make(map[string]int32)
	var postings [][]int32
	inter := make([]int32, len(cols))
	var touched []int32
	for i, d := range cols {
		for _, v := range d.Values {
			id, ok := valueID[v]
			if !ok {
				id = int32(len(postings))
				valueID[v] = id
				postings = append(postings, nil)
			}
			for _, j := range postings[id] {
				if inter[j] == 0 {
					touched = append(touched, j)
				}
				inter[j]++
			}
			postings[id] = append(postings[id], int32(i))
		}
		for _, j := range touched {
			n := int(inter[j])
			if float64(n)/float64(len(cols[j].Values)+len(d.Values)-n) >= minJaccard {
				union(int(j), i)
			}
			inter[j] = 0
		}
		touched = touched[:0]
	}
	// Name each cluster after its lexicographically-smallest member key so
	// synthesis is deterministic regardless of table order quirks.
	clusterName := make(map[int]string)
	for i, d := range cols {
		r := find(i)
		key := fmt.Sprintf("%s.%d", d.Table, d.Column)
		if cur, ok := clusterName[r]; !ok || key < cur {
			clusterName[r] = key
		}
	}

	types := make([]string, len(cols)) // parallel to cols
	for i, d := range cols {
		types[i] = "syn:" + clusterName[find(i)]
		if _, ok := m.parent[types[i]]; !ok {
			m.parent[types[i]] = ""
		}
		for _, v := range d.Values {
			m.entityTypes[v] = appendUnique(m.entityTypes[v], types[i])
		}
	}
	// Relationship extraction from row co-occurrence: every domain is
	// clustered, so table ti's clustered columns are its domains, the next
	// len(domains[ti]) entries of cols.
	first := 0
	for ti, t := range tables {
		ds, ts := cols[first:first+len(domains[ti])], types[first:]
		first += len(ds)
		for ai := range ds {
			for bi := ai + 1; bi < len(ds); bi++ {
				a, b := ds[ai].Column, ds[bi].Column
				label := "syn:" + ts[ai] + "->" + ts[bi]
				added := 0
				for _, row := range t.Rows {
					if added >= maxPairsPerTable {
						break
					}
					va, vb := row[a], row[b]
					if va.IsNull() || vb.IsNull() {
						continue
					}
					m.relate(tokenize.Normalize(va.String()), label, tokenize.Normalize(vb.String()))
					added++
				}
			}
		}
	}
}

// MostlyTextual reports whether at least half of the column's non-null
// cells are strings: numeric measure columns carry no entity semantics.
func MostlyTextual(t *table.Table, c int) bool {
	text, nonNull := 0, 0
	for _, row := range t.Rows {
		v := row[c]
		if v.IsNull() {
			continue
		}
		nonNull++
		if v.Kind() == table.String {
			text++
		}
	}
	return nonNull > 0 && text*2 >= nonNull
}

// Merge returns a KB containing everything in k plus everything in other;
// conflicting aliases and type parents keep k's entry. Merging with New()
// copies k. A frozen KB is read through its Dump. A lake build does not
// merge: it synthesizes straight into a copy of its curated KB
// (SynthesizeDomains).
func (k *KB) Merge(other *KB) *KB {
	out := New()
	m := out.mutable()
	for _, src := range []*KB{k, other} {
		d, c := src.form()
		var decl Dump
		if c != nil {
			decl = c.dump()
		} else {
			decl = d.declarations()
		}
		for _, t := range decl.Types {
			if _, ok := m.parent[t.Type]; !ok {
				m.parent[t.Type] = t.Parent
			}
		}
		for _, e := range decl.Entities {
			m.entityTypes[e.Entity] = appendUnique(m.entityTypes[e.Entity], e.Types...)
		}
		for _, a := range decl.Aliases {
			if _, ok := m.alias[a.Alias]; !ok {
				m.alias[a.Alias] = a.Canonical
			}
		}
		for _, r := range decl.Relations {
			key := r.Subject + "\x1f" + r.Object
			m.relations[key] = appendUnique(m.relations[key], r.Labels...)
		}
	}
	return out
}

// appendUnique appends the items dst does not hold yet. Type and label
// lists are short, so a scan beats building a set.
func appendUnique(dst []string, items ...string) []string {
	for _, it := range items {
		if !slices.Contains(dst, it) {
			dst = append(dst, it)
		}
	}
	return dst
}
