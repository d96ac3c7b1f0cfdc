package par

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
)

// withProcs runs fn under GOMAXPROCS(procs): 1 takes the sequential
// branches, 4 the worker pool even on a smaller machine.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

func TestForRunsEachIndexOnce(t *testing.T) {
	for _, procs := range []int{1, 4} {
		for _, n := range []int{0, 1, 1000} {
			calls := make([]atomic.Int32, n)
			withProcs(procs, func() { For(n, func(i int) { calls[i].Add(1) }) })
			for i := range calls {
				if c := calls[i].Load(); c != 1 {
					t.Errorf("GOMAXPROCS %d, n %d: index %d ran %d times", procs, n, i, c)
				}
			}
		}
	}
}

func TestForCtxAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, procs := range []int{1, 4} {
		var calls atomic.Int32
		var err error
		withProcs(procs, func() { err = ForCtx(ctx, 100, func(int) { calls.Add(1) }) })
		if !errors.Is(err, context.Canceled) || calls.Load() != 0 {
			t.Errorf("GOMAXPROCS %d: ForCtx on a cancelled ctx ran %d items, returned %v; want 0, context.Canceled", procs, calls.Load(), err)
		}
	}
}

// TestForCtxCancelMidRun: cancellation stops the claiming of new items, but
// every item already started has returned by the time ForCtx does, and no
// worker goroutine outlives it.
func TestForCtxCancelMidRun(t *testing.T) {
	const n = 1000
	for _, procs := range []int{1, 4} {
		before := runtime.NumGoroutine()
		ctx, cancel := context.WithCancel(context.Background())
		var started, finished atomic.Int32
		var err error
		withProcs(procs, func() {
			err = ForCtx(ctx, n, func(i int) {
				started.Add(1)
				switch {
				case i == 10:
					cancel()
					// Still running well after the cancellation, which a
					// ForCtx that stopped waiting on done would return at.
					time.Sleep(5 * time.Millisecond)
				case i > 10: // claimed beside item 10: still running when it cancels
					<-ctx.Done()
				}
				finished.Add(1)
			})
		})
		s, f := started.Load(), finished.Load()
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("GOMAXPROCS %d: ForCtx returned %v, want context.Canceled", procs, err)
		}
		if s != f {
			t.Errorf("GOMAXPROCS %d: ForCtx returned with %d of %d started items still running", procs, s-f, s)
		}
		if s == n {
			t.Errorf("GOMAXPROCS %d: cancellation stopped no item", procs)
		}
		testutil.WaitGoroutinesSettle(t, before)
	}
}

func TestDoRunsEveryFunction(t *testing.T) {
	var order []int
	withProcs(1, func() {
		Do(func() { order = append(order, 0) }, func() { order = append(order, 1) }, func() { order = append(order, 2) })
	})
	if want := []int{0, 1, 2}; !reflect.DeepEqual(order, want) {
		t.Errorf("Do under GOMAXPROCS(1) ran %v, want %v in order", order, want)
	}
	var ran [3]atomic.Int32
	withProcs(4, func() { Do(func() { ran[0].Add(1) }, func() { ran[1].Add(1) }, func() { ran[2].Add(1) }) })
	for i := range ran {
		if c := ran[i].Load(); c != 1 {
			t.Errorf("Do under GOMAXPROCS(4): function %d ran %d times", i, c)
		}
	}
}
