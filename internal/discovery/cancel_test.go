package discovery

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/lake"
	"repro/internal/paperdata"
	"repro/internal/table"
	"repro/internal/testutil"
)

// blockingDiscoverer parks inside Discover until its context is cancelled —
// a stand-in for a slow index scan, making "cancel lands mid-fan-out"
// deterministic instead of timing-dependent.
type blockingDiscoverer struct {
	started chan struct{}
}

func (b blockingDiscoverer) Name() string { return "blocking" }

func (b blockingDiscoverer) Discover(ctx context.Context, l *lake.Lake, q *table.Table, queryCol, k int) ([]Result, error) {
	close(b.started)
	<-ctx.Done()
	return nil, ctx.Err()
}

func TestRunAllCancelMidFanOut(t *testing.T) {
	l := demoLake(t)
	q := paperdata.T1()
	before := runtime.NumGoroutine()
	blocker := blockingDiscoverer{started: make(chan struct{})}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-blocker.started // the fan-out is provably mid-flight
		cancel()
	}()
	t0 := time.Now()
	out, _, err := RunAll(ctx, l, q, cityCol(t, q), 10, []Discoverer{blocker, SantosUnion{}, LSHJoin{}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunAll = (%v, %v), want ctx.Err()", out, err)
	}
	if lat := time.Since(t0); lat > time.Second {
		t.Fatalf("cancelled fan-out took %v to return", lat)
	}
	// Every worker drained before RunAll returned: nothing may leak.
	testutil.WaitGoroutinesSettle(t, before)
	cancel()
}

func TestDiscoverPreCancelled(t *testing.T) {
	l := demoLake(t)
	q := paperdata.T1()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, _, err := Discover(ctx, NewRegistry(), l, q, cityCol(t, q), 10, []string{"santos-union", "lsh-join"})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Discover err = %v", err)
	}
}

// TestBuiltinsObserveCancellation pins that each built-in discoverer
// returns ctx.Err() on an already-expired context — the checkpoint inside
// its index scan, not just the fan-out dispatcher.
func TestBuiltinsObserveCancellation(t *testing.T) {
	l := demoLake(t)
	q := paperdata.T1()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, d := range []Discoverer{SantosUnion{}, LSHJoin{}, JosieJoin{}, SyntacticUnion{}} {
		if _, err := d.Discover(ctx, l, q, cityCol(t, q), 5); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want Canceled", d.Name(), err)
		}
	}
}
