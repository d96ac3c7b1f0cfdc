// Package par holds the small parallel-execution helpers the lake
// preprocessing pipeline is built from. Every helper preserves determinism
// by construction: work item i always writes result slot i, so output order
// is independent of scheduling.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// For runs fn(0..n-1) across up to GOMAXPROCS workers and returns when all
// calls have finished. fn must be safe to call concurrently; calls are
// distributed dynamically, so uneven item costs still balance. It is
// ForCtx under an uncancellable context (the nil done channel makes every
// cancellation poll a predictable branch).
func For(n int, fn func(i int)) {
	_ = ForCtx(context.Background(), n, fn)
}

// ForCtx is For with cooperative cancellation: workers stop claiming new
// work items once ctx is done, and ForCtx returns ctx.Err() as it stands
// once the workers are done — nil when ctx was never cancelled, and the
// error even when every item ran before the cancellation landed. Items
// already started always run to completion and every worker goroutine has
// exited before ForCtx returns — cancellation can leave trailing items
// unprocessed, never a leaked goroutine. fn is responsible for its own
// intra-item cancellation checks when single items are long-running.
func ForCtx(ctx context.Context, n int, fn func(i int)) error {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	done := ctx.Done()
	if workers <= 1 {
		for i := 0; i < n; i++ {
			select {
			case <-done:
				return ctx.Err()
			default:
			}
			fn(i)
		}
		return ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// Do runs the given functions concurrently and returns when all have
// finished. On a single-CPU machine (GOMAXPROCS=1) concurrency cannot help
// independent CPU-bound work, so the functions run sequentially instead of
// paying goroutine and scheduling overhead; callers must not rely on the
// functions making progress concurrently.
func Do(fns ...func()) {
	if len(fns) <= 1 || runtime.GOMAXPROCS(0) <= 1 {
		for _, fn := range fns {
			fn()
		}
		return
	}
	var wg sync.WaitGroup
	for _, fn := range fns {
		wg.Add(1)
		go func(fn func()) {
			defer wg.Done()
			fn()
		}(fn)
	}
	wg.Wait()
}
