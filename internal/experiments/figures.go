package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/analyze"
	"repro/internal/core"
	"repro/internal/discovery"
	"repro/internal/er"
	"repro/internal/integrate"
	"repro/internal/kb"
	"repro/internal/paperdata"
	"repro/internal/table"
	"repro/internal/tokenize"
)

// paperRowIDs names rows with the paper's global tuple IDs t1..t16.
func paperRowIDs(tableName string, row int) string { return paperdata.TupleID(tableName, row) }

// demoPipeline builds the demo pipeline over the Fig. 2 lake {T2, T3}.
func demoPipeline() (*core.Pipeline, error) {
	return core.New(paperdata.CovidLake(), core.Config{Knowledge: kb.Demo()})
}

// sameValues compares two tables modulo row order and header spelling.
func sameValues(got, want *table.Table) bool {
	g := got.Clone()
	g.Columns = want.Columns
	g.Name = want.Name
	return g.EqualUnordered(want)
}

// Fig1 runs the full pipeline of Fig. 1 end to end: discover from T1,
// integrate with ALITE, analyze with a correlation.
func Fig1() Row {
	row := Row{ID: "F1", Name: "Fig. 1 pipeline end-to-end", Paper: "discover -> align&integrate -> analyze"}
	p, err := demoPipeline()
	if err != nil {
		row.Measured = err.Error()
		return row
	}
	q := paperdata.T1()
	city, _ := q.ColumnIndex(paperdata.ColCity)
	res, err := p.Run(context.Background(), core.RunRequest{Query: q, QueryColumn: city})
	if err != nil {
		row.Measured = err.Error()
		return row
	}
	r, _, err := p.Correlate(context.Background(), res.Integration.Table, paperdata.ColVaccRate, paperdata.ColDeathRate)
	if err != nil {
		row.Measured = err.Error()
		return row
	}
	row.Measured = fmt.Sprintf("set={T1,T2,T3}, %d integrated tuples, corr=%.2f", res.Integration.Table.NumRows(), r)
	row.Pass = len(res.Discovery.IntegrationSet) == 3 && res.Integration.Table.NumRows() == 7
	return row
}

// Fig2 reproduces Example 1: SANTOS retrieves T2 as unionable and LSH
// Ensemble retrieves T3 as joinable for query T1 with intent column City.
func Fig2() Row {
	row := Row{ID: "F2", Name: "Fig. 2 discovery example", Paper: "SANTOS->T2 (unionable), LSH Ensemble->T3 (joinable)"}
	p, err := demoPipeline()
	if err != nil {
		row.Measured = err.Error()
		return row
	}
	q := paperdata.T1()
	city, _ := q.ColumnIndex(paperdata.ColCity)
	resp, err := p.Discover(context.Background(), core.DiscoverRequest{Query: q, QueryColumn: city})
	if err != nil {
		row.Measured = err.Error()
		return row
	}
	u := resp.PerMethod["santos-union"]
	j := resp.PerMethod["lsh-join"]
	uTop := len(u) > 0 && u[0].Table.Name == "T2"
	jTop := len(j) > 0 && j[0].Table.Name == "T3"
	row.Measured = fmt.Sprintf("santos top-1=%s, lsh top-1=%s", nameOrNone(u), nameOrNone(j))
	row.Pass = uTop && jTop
	return row
}

func nameOrNone(rs []discovery.Result) string {
	if len(rs) == 0 {
		return "none"
	}
	return rs[0].Table.Name
}

// Fig3 reproduces the integrated table FD(T1,T2,T3) exactly, including
// provenance and null kinds.
func Fig3() Row {
	row := Row{ID: "F3", Name: "Fig. 3 FD(T1,T2,T3)", Paper: "7 tuples f1-f7 with TIDs"}
	p, err := demoPipeline()
	if err != nil {
		row.Measured = err.Error()
		return row
	}
	resp, err := p.Integrate(context.Background(), core.IntegrateRequest{
		Tables: []*table.Table{paperdata.T1(), paperdata.T2(), paperdata.T3()},
		RowIDs: paperRowIDs,
	})
	if err != nil {
		row.Measured = err.Error()
		return row
	}
	match := sameValues(resp.Table, paperdata.Fig3Expected())
	provOK := provenanceMatches(resp, 1, paperdata.Fig3Provenance())
	row.Measured = fmt.Sprintf("%d tuples, values match=%v, provenance match=%v", resp.Table.NumRows(), match, provOK)
	row.Pass = match && provOK
	return row
}

func provenanceMatches(resp *core.IntegrateResponse, keyPos int, want map[string][]string) bool {
	for _, tu := range resp.Tuples {
		key := tu.Values[keyPos].String()
		exp, ok := want[key]
		if !ok || len(exp) != len(tu.Prov) {
			return false
		}
		for i := range exp {
			if exp[i] != tu.Prov[i] {
				return false
			}
		}
	}
	return true
}

// Example3 reproduces the paper's correlations: 0.16 between vaccination
// and death rates, 0.9 between case counts and vaccination rates.
func Example3() Row {
	row := Row{ID: "E3", Name: "Example 3 analytics", Paper: "corr(vacc,death)=0.16, corr(cases,vacc)=0.9; Boston lowest, Toronto highest"}
	fig3 := paperdata.Fig3Expected()
	vacc, _ := fig3.ColumnIndex(paperdata.ColVaccRate)
	death, _ := fig3.ColumnIndex(paperdata.ColDeathRate)
	cases, _ := fig3.ColumnIndex(paperdata.ColCases)
	city, _ := fig3.ColumnIndex(paperdata.ColCity)
	r1, _, err1 := analyze.Pearson(fig3, vacc, death)
	r2, _, err2 := analyze.Pearson(fig3, cases, vacc)
	min, max, err3 := analyze.ExtremesBy(fig3, city, vacc)
	if err1 != nil || err2 != nil || err3 != nil {
		row.Measured = "error computing analytics"
		return row
	}
	row.Measured = fmt.Sprintf("corr(vacc,death)=%.2f, corr(cases,vacc)=%.1f, min=%s, max=%s", r1, r2, min.Label, max.Label)
	row.Pass = math.Abs(math.Round(r1*100)/100-0.16) < 1e-9 &&
		math.Abs(math.Round(r2*10)/10-0.9) < 1e-9 &&
		min.Label == "Boston" && max.Label == "Toronto"
	return row
}

// Fig4 registers the paper's user-defined inner-join-based discovery
// function and checks it finds the joinable table.
func Fig4() Row {
	row := Row{ID: "F4", Name: "Fig. 4 user-defined discovery", Paper: "user similarity function plugs into the pipeline"}
	p, err := demoPipeline()
	if err != nil {
		row.Measured = err.Error()
		return row
	}
	userSim := discovery.SimilarityFunc{
		FuncName: "inner-join-size",
		Sim: func(q, c *table.Table) float64 {
			best := 0
			for qc := 0; qc < q.NumCols(); qc++ {
				qd := q.ValueSet(qc)
				for cc := 0; cc < c.NumCols(); cc++ {
					if ov := tokenize.Overlap(qd, c.ValueSet(cc)); ov > best {
						best = ov
					}
				}
			}
			return float64(best)
		},
	}
	if err := p.Discoverers().Register(userSim); err != nil {
		row.Measured = err.Error()
		return row
	}
	resp, err := p.Discover(context.Background(), core.DiscoverRequest{Query: paperdata.T1(), QueryColumn: 1, Methods: []string{"inner-join-size"}})
	if err != nil {
		row.Measured = err.Error()
		return row
	}
	rs := resp.PerMethod["inner-join-size"]
	row.Measured = fmt.Sprintf("custom method returned %d tables, top=%s", len(rs), nameOrNone(rs))
	row.Pass = len(rs) == 1 && rs[0].Table.Name == "T3"
	return row
}

// Fig5 generates the paper's 5x5 COVID query table from a prompt.
func Fig5() Row {
	row := Row{ID: "F5", Name: "Fig. 5 query-table generation", Paper: "GPT-3 generates a 5x5 COVID-19 table from a prompt"}
	p, err := demoPipeline()
	if err != nil {
		row.Measured = err.Error()
		return row
	}
	q, err := p.GenerateQueryTable("Generate a query table about COVID-19 cases", 5, 5, 1)
	if err != nil {
		row.Measured = err.Error()
		return row
	}
	_, hasCity := q.ColumnIndex("City")
	row.Measured = fmt.Sprintf("generated %dx%d table with City column=%v (template substitute for GPT-3)", q.NumRows(), q.NumCols(), hasCity)
	row.Pass = q.NumRows() == 5 && q.NumCols() == 5 && hasCity
	return row
}

// Fig6 registers a user-defined outer-join operator and checks it matches
// the built-in.
func Fig6() Row {
	row := Row{ID: "F6", Name: "Fig. 6 user-defined integration operator", Paper: "user implements outer join as an alternative operator"}
	p, err := demoPipeline()
	if err != nil {
		row.Measured = err.Error()
		return row
	}
	if err := p.Operators().Register(integrate.Func{OpName: "my-outer-join", F: integrate.FullOuterJoin{}.Run}); err != nil {
		row.Measured = err.Error()
		return row
	}
	user, err := p.Integrate(context.Background(), core.IntegrateRequest{Tables: paperdata.VaccineSet(), Operator: "my-outer-join"})
	if err != nil {
		row.Measured = err.Error()
		return row
	}
	match := sameValues(user.Table, paperdata.Fig8aExpected())
	row.Measured = fmt.Sprintf("custom operator output (%d tuples) equals built-in outer join=%v", user.Table.NumRows(), match)
	row.Pass = match
	return row
}

// Fig8a reproduces the outer join T4⟗T5⟗T6.
func Fig8a() Row {
	row := Row{ID: "F8a", Name: "Fig. 8(a) outer join of T4,T5,T6", Paper: "5 tuples f8-f12; J&J approver missing"}
	p, err := demoPipeline()
	if err != nil {
		row.Measured = err.Error()
		return row
	}
	resp, err := p.Integrate(context.Background(), core.IntegrateRequest{Tables: paperdata.VaccineSet(), Operator: "outer-join", RowIDs: paperRowIDs})
	if err != nil {
		row.Measured = err.Error()
		return row
	}
	match := sameValues(resp.Table, paperdata.Fig8aExpected())
	row.Measured = fmt.Sprintf("%d tuples, values match=%v", resp.Table.NumRows(), match)
	row.Pass = match
	return row
}

// Fig8b reproduces FD(T4,T5,T6) including the recovered J&J fact.
func Fig8b() Row {
	row := Row{ID: "F8b", Name: "Fig. 8(b) FD of T4,T5,T6", Paper: "3 tuples f8,f12,f13; f13 recovers (J&J, FDA, United States)"}
	p, err := demoPipeline()
	if err != nil {
		row.Measured = err.Error()
		return row
	}
	resp, err := p.Integrate(context.Background(), core.IntegrateRequest{Tables: paperdata.VaccineSet(), RowIDs: paperRowIDs})
	if err != nil {
		row.Measured = err.Error()
		return row
	}
	match := sameValues(resp.Table, paperdata.Fig8bExpected())
	provOK := provenanceMatches(resp, 0, paperdata.Fig8bProvenance())
	row.Measured = fmt.Sprintf("%d tuples, values match=%v, provenance match=%v", resp.Table.NumRows(), match, provOK)
	row.Pass = match && provOK
	return row
}

// Fig8c runs ER over the outer-join result: f9/f10 stay unresolved.
func Fig8c() Row {
	row := Row{ID: "F8c", Name: "Fig. 8(c) ER over outer join", Paper: "4 entities; f9/f10 unresolved; J&J approver unknown"}
	res, err := er.Resolve(context.Background(), paperdata.Fig8aExpected(), er.Options{Knowledge: kb.Demo()})
	if err != nil {
		row.Measured = err.Error()
		return row
	}
	jjApproverKnown := false
	for r := 0; r < res.Resolved.NumRows(); r++ {
		if res.Resolved.Cell(r, 0).Str() == "J&J" && !res.Resolved.Cell(r, 1).IsNull() {
			jjApproverKnown = true
		}
	}
	row.Measured = fmt.Sprintf("%d entities, J&J approver known=%v", res.Resolved.NumRows(), jjApproverKnown)
	row.Pass = res.Resolved.NumRows() == 4 && !jjApproverKnown
	return row
}

// Fig8d runs ER over the FD result: two entities, J&J fully resolved.
func Fig8d() Row {
	row := Row{ID: "F8d", Name: "Fig. 8(d) ER over FD", Paper: "2 entities incl. (J&J, FDA, United States)"}
	res, err := er.Resolve(context.Background(), paperdata.Fig8bExpected(), er.Options{Knowledge: kb.Demo()})
	if err != nil {
		row.Measured = err.Error()
		return row
	}
	match := sameValues(res.Resolved, paperdata.Fig8dExpected())
	row.Measured = fmt.Sprintf("%d entities, values match=%v", res.Resolved.NumRows(), match)
	row.Pass = match
	return row
}
