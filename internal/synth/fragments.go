package synth

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/kb"
	"repro/internal/table"
)

// FragmentOptions configures Fragments.
type FragmentOptions struct {
	// Seed drives all randomness. Default 1.
	Seed int64
	// Entities is the number of real-world entities fragmented across the
	// tables. Default 20.
	Entities int
}

const (
	// aliasRate is the probability a mention uses the alias spelling
	// instead of the canonical one (the J&J-vs-JnJ effect).
	aliasRate = 0.4
	// fragmentNullRate is the probability an agency cell is a missing null
	// (the t12/t14 effect).
	fragmentNullRate = 0.25
)

func (o FragmentOptions) withDefaults() FragmentOptions {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Entities <= 0 {
		o.Entities = 20
	}
	return o
}

// FragmentSet scales the paper's Fig. 7 shape to many entities: every
// entity has a name, an approving agency and a country, scattered across
// three tables — TA(Name, Agency), TB(Country, Agency), TC(Name, Country)
// — with alias spellings and missing nulls. FD must reconnect the
// fragments; outer joins lose facts; ER over the FD result outperforms ER
// over the outer-join result (experiments X1 and X6).
type FragmentSet struct {
	// Tables holds TA, TB, TC in order.
	Tables []*table.Table
	// Knowledge contains the alias ground truth (canonical spellings), as
	// a curated KB would in the demo.
	Knowledge *kb.KB
	// EntityOf maps every canonical name and country value to its entity
	// index.
	EntityOf map[string]int
	// Options echoes the (defaulted) generation options.
	Options FragmentOptions
}

// Fragments generates a fragment set.
func Fragments(opts FragmentOptions) *FragmentSet {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	know := kb.New()
	fs := &FragmentSet{
		Knowledge: know,
		EntityOf:  make(map[string]int),
		Options:   opts,
	}
	type entity struct {
		name, nameAlias       string
		country, countryAlias string
		agency                string
	}
	agencies := []string{"FDA", "EMA", "MHRA", "WHO", "TGA"}
	ents := make([]entity, opts.Entities)
	for i := range ents {
		// Names are long and distinctive (no shared template words) so
		// string similarity between DIFFERENT entities stays below the ER
		// conflict veto, exactly as distinct vaccine names do in Fig. 7.
		nameBase := titleCase(syntheticName(rng) + syntheticName(rng))
		countryBase := titleCase(syntheticName(rng) + syntheticName(rng))
		e := entity{
			name:      fmt.Sprintf("%s %d", nameBase, i),
			nameAlias: fmt.Sprintf("%s-%d", strings.ToUpper(nameBase[:3]), i),
			country:   fmt.Sprintf("%sia %d", countryBase, i),
			agency:    agencies[rng.Intn(len(agencies))],
		}
		e.countryAlias = fmt.Sprintf("%s-%d", strings.ToUpper(countryBase[:4]), i)
		ents[i] = e
		know.AddAlias(e.nameAlias, e.name)
		know.AddAlias(e.countryAlias, e.country)
		fs.EntityOf[know.Canonical(e.name)] = i
		fs.EntityOf[know.Canonical(e.country)] = i
	}
	ta := table.New("TA", "Name", "Agency")
	tb := table.New("TB", "Country", "Agency")
	tc := table.New("TC", "Name", "Country")
	spell := func(canonical, alias string) string {
		if rng.Float64() < aliasRate {
			return alias
		}
		return canonical
	}
	agencyCell := func(e entity) table.Value {
		if rng.Float64() < fragmentNullRate {
			return table.NullValue()
		}
		return table.StringValue(e.agency)
	}
	for _, e := range ents {
		// Every entity lands in TC (the connector) and in a random subset
		// of TA/TB, mirroring how open data fragments facts.
		tc.MustAddRow(table.StringValue(spell(e.name, e.nameAlias)), table.StringValue(spell(e.country, e.countryAlias)))
		if rng.Float64() < 0.8 {
			ta.MustAddRow(table.StringValue(spell(e.name, e.nameAlias)), agencyCell(e))
		}
		if rng.Float64() < 0.8 {
			tb.MustAddRow(table.StringValue(spell(e.country, e.countryAlias)), agencyCell(e))
		}
	}
	fs.Tables = []*table.Table{ta, tb, tc}
	return fs
}

// LabelRows assigns a ground-truth entity label to each row of an
// integrated table: the entity of the canonicalized Name cell, else of the
// Country cell, else a unique per-row label (unresolvable fragments). The
// columns are located by header.
func (fs *FragmentSet) LabelRows(t *table.Table) []string {
	nameCol, _ := t.ColumnIndex("Name")
	countryCol, hasCountry := t.ColumnIndex("Country")
	labels := make([]string, t.NumRows())
	for r := 0; r < t.NumRows(); r++ {
		labels[r] = fmt.Sprintf("row-%d", r)
		if v := t.Cell(r, nameCol); !v.IsNull() {
			if e, ok := fs.EntityOf[fs.Knowledge.Canonical(v.String())]; ok {
				labels[r] = fmt.Sprintf("e%d", e)
				continue
			}
		}
		if hasCountry {
			if v := t.Cell(r, countryCol); !v.IsNull() {
				if e, ok := fs.EntityOf[fs.Knowledge.Canonical(v.String())]; ok {
					labels[r] = fmt.Sprintf("e%d", e)
				}
			}
		}
	}
	return labels
}

// CompleteTuples counts rows with no nulls at all — the completeness
// metric of experiment X1.
func CompleteTuples(t *table.Table) int {
	n := 0
	for _, row := range t.Rows {
		complete := true
		for _, v := range row {
			if v.IsNull() {
				complete = false
				break
			}
		}
		if complete {
			n++
		}
	}
	return n
}
