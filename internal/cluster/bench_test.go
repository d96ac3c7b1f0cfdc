package cluster_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/difftest"
	"repro/internal/discovery"
)

// BenchmarkClusterDiscovery measures a full coordinator discovery fan-out —
// all diff methods sent to each of three HTTP shard servers in one
// /v1/discover call per shard, merged, and the integration set's tables
// resolved — against in-process httptest shards. It is the cluster-mode
// counterpart of the in-process sharded discovery benchmarks: the delta
// between the two is the serialization + HTTP cost of the scatter-gather
// seam.
func BenchmarkClusterDiscovery(b *testing.B) {
	pool := diffPool(91, 12)
	tc := startCluster(b, pool, 3)
	reg := discovery.NewRegistry()
	query := difftest.DiffTable(rand.New(rand.NewSource(17)), "benchq")
	ctx := context.Background()

	// One warm-up fan-out so connection setup is off the clock.
	if _, _, serrs, err := discovery.Discover(ctx, reg, tc.coord, query, 0, 5, difftest.DiffMethods); err != nil || len(serrs) > 0 {
		b.Fatalf("warm-up fan-out failed: err=%v shardErrs=%v", err, serrs)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		perMethod, _, serrs, err := discovery.Discover(ctx, reg, tc.coord, query, 0, 5, difftest.DiffMethods)
		if err != nil {
			b.Fatal(err)
		}
		if len(serrs) > 0 {
			b.Fatalf("benchmark run went partial: %v", serrs)
		}
		if len(perMethod) != len(difftest.DiffMethods) {
			b.Fatalf("got %d method result sets, want %d", len(perMethod), len(difftest.DiffMethods))
		}
	}
}
