package lake

import (
	"fmt"

	"repro/internal/table"
)

// This file is the catalog's batch planner: the one admission rule for
// Add/Remove batches and the one ShardIndex partition loop. Every catalog
// shape — Lake, Sharded, cluster.Coordinator, persist.Store — plans its
// mutations through these functions, so a batch is accepted, rejected
// (with the same message) and routed identically whichever one receives it.
// op prefixes every error ("lake: add", "persist: remove", ...).

// CheckAdd validates a batch of new tables atomically: a nil table, an empty
// name, rows without columns (persist's table codec spends no bytes on an
// empty row, so it could not bound their count on decode), or a name
// duplicating an earlier batch member or a table already in the catalog
// rejects the whole batch. lookup is the catalog's Get; nil checks the
// batch against itself only (a build from scratch, or a coordinator whose
// shards make the catalog-side check).
func CheckAdd(op string, tables []*table.Table, lookup func(name string) (*table.Table, bool)) error {
	batch := make(map[string]bool, len(tables))
	for _, t := range tables {
		if t == nil {
			return fmt.Errorf("%s: nil table", op)
		}
		if t.Name == "" {
			return fmt.Errorf("%s: table with empty name", op)
		}
		if len(t.Columns) == 0 && len(t.Rows) > 0 {
			return fmt.Errorf("%s: table %q has rows but no columns", op, t.Name)
		}
		dup := batch[t.Name]
		if !dup && lookup != nil {
			_, dup = lookup(t.Name)
		}
		if dup {
			return fmt.Errorf("%s: duplicate table name %q", op, t.Name)
		}
		batch[t.Name] = true
	}
	return nil
}

// CheckRemove validates a batch of doomed names atomically — the first name
// (in input order) that lookup, the catalog's Get, reports absent rejects
// the whole batch — and returns the names deduplicated in first-seen order
// (duplicates within a batch are tolerated). A nil lookup skips the
// membership check: the coordinator dedupes first, fetches the doomed
// tables from its shards, and checks membership against what came back.
func CheckRemove(op string, names []string, lookup func(name string) (*table.Table, bool)) ([]string, error) {
	unique := make([]string, 0, len(names))
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		if lookup != nil {
			if _, ok := lookup(n); !ok {
				return nil, fmt.Errorf("%s: no table %q", op, n)
			}
		}
		if !seen[n] {
			seen[n] = true
			unique = append(unique, n)
		}
	}
	return unique, nil
}

// PartitionTables routes a batch of tables to n shards by ShardIndex of
// their names, preserving batch order within each shard.
func PartitionTables(tables []*table.Table, n int) [][]*table.Table {
	return partition(tables, n, func(t *table.Table) string { return t.Name })
}

// PartitionNames is PartitionTables for a batch of bare table names.
func PartitionNames(names []string, n int) [][]string {
	return partition(names, n, func(s string) string { return s })
}

func partition[T any](items []T, n int, name func(T) string) [][]T {
	parts := make([][]T, n)
	for _, it := range items {
		i := ShardIndex(name(it), n)
		parts[i] = append(parts[i], it)
	}
	return parts
}
