// Lakesearch runs discovery at scale on a generated open-data lake with
// known ground truth: it generates a lake of unionable families, joinable
// companions and noise tables, queries it with every discovery method, and
// scores the results against the truth — the experiment a user would run
// before trusting a discovery method on their own lake.
//
//	go run ./examples/lakesearch
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	dialite "repro"
)

func main() {
	ctx := context.Background()
	// A lake with ground truth: 8 families x 4 partitions, 2 joinable
	// companions each, 10 noise tables — 58 tables.
	lake := dialite.GenerateSyntheticLake(dialite.SyntheticLakeOptions{
		Seed:              7,
		Families:          8,
		TablesPerFamily:   4,
		RowsPerTable:      40,
		JoinablePerFamily: 2,
		NoiseTables:       10,
	})
	start := time.Now()
	p, err := dialite.New(lake.Tables, dialite.Config{SynthesizeKB: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("preprocessed %d tables in %v (SANTOS annotations, LSH Ensemble, JOSIE index)\n\n",
		len(lake.Tables), time.Since(start).Round(time.Millisecond))

	queries := []string{"family0_part0", "family3_part1", "family6_part2"}
	methods := []string{"santos-union", "lsh-join", "josie-join", "syntactic-union"}

	queryTables, err := p.Lake().FetchTables(ctx, queries)
	if err != nil {
		log.Fatal(err)
	}
	for _, qname := range queries {
		q, ok := queryTables[qname]
		if !ok {
			log.Fatalf("query table %s missing", qname)
		}
		keyCol := lake.Truth.KeyColumn[qname]
		fmt.Printf("query %s (key column %d)\n", qname, keyCol)
		for _, m := range methods {
			resp, err := p.Discover(ctx, dialite.DiscoverRequest{
				Query:       q,
				QueryColumn: keyCol,
				Methods:     []string{m},
				K:           5,
			})
			if err != nil {
				log.Fatal(err)
			}
			results := resp.PerMethod[m]
			fmt.Printf("  %-16s", m)
			for _, r := range results {
				marker := " "
				if contains(lake.Truth.UnionableWith[qname], r.Table.Name) {
					marker = "U" // true unionable partner
				} else if contains(lake.Truth.JoinableWith[qname], r.Table.Name) {
					marker = "J" // true joinable companion
				}
				fmt.Printf("  %s:%s", r.Table.Name, marker)
			}
			fmt.Println()
		}
		fmt.Println()
	}
	fmt.Println("U = ground-truth unionable partner, J = ground-truth joinable companion")
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
