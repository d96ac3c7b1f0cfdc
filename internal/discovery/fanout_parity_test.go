// fanout_parity_test drives the SAME shard lakes through both ways RunAll
// reaches a shard — the in-process closure (Shards() + Discoverer.Discover)
// and a stub Remote (DiscoverShard + ResolveTables, name-only stubs on the
// "wire") — and asserts the one fan-out treats them identically: merged
// rankings, ShardError lists, first-error-by-slot precedence and panic
// containment. A feature added to the spine is tested here once, not once
// per transport. An in-process discoverer reads its shard through the run's
// pinned handle, a Remote's through the shard lake itself; both share the
// shard's token dictionary, which is how a scenario tells shards apart.
// What a mid-run mutation does differs by design — an in-process run reads
// its pin, a remote one retries — and is pinned in pin_test.go.
package discovery_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/difftest"
	"repro/internal/discovery"
	"repro/internal/lake"
	"repro/internal/table"
)

// stubRemote reaches a Sharded's shard lakes the way a cluster coordinator
// reaches shard processes. It deliberately has no Shards method, so RunAll
// can only take the Remote arm.
type stubRemote struct {
	sh       *lake.Sharded
	resolves atomic.Int64
}

func (r *stubRemote) Epochs() []uint64 { return r.sh.Epochs() }
func (r *stubRemote) NumShards() int   { return r.sh.NumShards() }

// DiscoverShard runs the methods one after another on the shard, each in
// its own slot: a method's panic is contained and answered for that method,
// as a shard process answers for the methods it runs.
func (r *stubRemote) DiscoverShard(ctx context.Context, shard int, ds []discovery.Discoverer, q *discovery.Query) ([][]discovery.Result, []error) {
	per, errs := make([][]discovery.Result, len(ds)), make([]error, len(ds))
	for i, d := range ds {
		func() {
			defer func() {
				if v := recover(); v != nil {
					errs[i] = &discovery.PanicError{Method: d.Name(), Value: v}
				}
			}()
			rs, err := d.Discover(ctx, r.sh.Shards()[shard], q.Table, q.Column, q.K)
			out := make([]discovery.Result, len(rs))
			for j, res := range rs {
				res.Table = table.New(res.Table.Name) // only the name crosses the wire
				out[j] = res
			}
			per[i], errs[i] = out, err
		}()
	}
	return per, errs
}

func (r *stubRemote) ResolveTables(ctx context.Context, names []string, _ []uint64) (map[string]*table.Table, error) {
	r.resolves.Add(1)
	out := make(map[string]*table.Table, len(names))
	for _, n := range names {
		if t, ok := r.sh.Get(n); ok {
			out[n] = t
		}
	}
	return out, nil
}

const parityShards = 3

// parityFixture builds a fresh 3-shard catalog (scenarios may mutate it).
func parityFixture(t *testing.T) (*lake.Sharded, *table.Table) {
	t.Helper()
	cities := func(name string, vals ...string) *table.Table {
		tbl := table.New(name, "city")
		for _, v := range vals {
			tbl.MustAddRow(table.StringValue(v))
		}
		return tbl
	}
	tables := []*table.Table{
		cities("t0", "berlin", "paris", "tokyo"),
		cities("t1", "berlin", "paris"),
		cities("t2", "berlin", "lyon"),
		cities("t3", "tokyo", "paris", "oslo"),
		cities("t4", "berlin", "paris", "tokyo", "rome"),
		cities("t5", "madrid"),
		cities("t6", "paris", "tokyo"),
		cities("t7", "berlin"),
	}
	sh, err := lake.NewSharded(tables, parityShards, lake.Options{Knowledge: difftest.DiffKB()})
	if err != nil {
		t.Fatal(err)
	}
	for i, shard := range sh.Shards() {
		if shard.Size() == 0 {
			t.Fatalf("fixture leaves shard %d empty; parity needs every shard to rank something", i)
		}
	}
	return sh, cities("query", "berlin", "paris", "tokyo")
}

// onShard wraps a discoverer with a per-shard side effect: fn runs after
// the wrapped method answered and may replace its error.
func onShard(name string, inner discovery.Discoverer, fn func(shard *lake.Lake, err error) error) discovery.Discoverer {
	return funcDiscoverer{name: name, fn: func(ctx context.Context, l *lake.Lake, q *table.Table, queryCol, k int) ([]discovery.Result, error) {
		rs, err := inner.Discover(ctx, l, q, queryCol, k)
		if err = fn(l, err); err != nil {
			return nil, err
		}
		return rs, nil
	}}
}

func TestFanOutParityAcrossTransports(t *testing.T) {
	errDown := fmt.Errorf("shard process gone: %w", discovery.ErrShardUnavailable)
	failOn := func(sh *lake.Sharded, shard int, fail error) func(*lake.Lake, error) error {
		victim := sh.Shards()[shard].Tokens()
		return func(l *lake.Lake, err error) error {
			if l.Tokens() == victim {
				return fail
			}
			return err
		}
	}
	scenarios := []struct {
		name string
		k    int
		// build returns the discoverers for one run over sh, plus a counter of
		// per-shard calls the scenario wants compared across transports.
		build func(sh *lake.Sharded, calls *atomic.Int64) []discovery.Discoverer
		check func(t *testing.T, out [][]discovery.Result, serrs []discovery.ShardError, err error, calls int64)
	}{
		{
			name: "merged rankings",
			k:    4,
			build: func(*lake.Sharded, *atomic.Int64) []discovery.Discoverer {
				return []discovery.Discoverer{discovery.JosieJoin{}, discovery.LSHJoin{}, discovery.SantosUnion{}, discovery.SyntacticUnion{}}
			},
			check: func(t *testing.T, out [][]discovery.Result, serrs []discovery.ShardError, err error, _ int64) {
				if err != nil || len(serrs) != 0 {
					t.Fatalf("clean run: serrs=%v err=%v", serrs, err)
				}
				if len(out) != 4 || len(out[0]) != 4 {
					t.Fatalf("josie slot = %+v, want the global top 4", out)
				}
				for _, r := range out[0] {
					if r.Table.NumCols() == 0 {
						t.Errorf("ranked table %q was not materialized", r.Table.Name)
					}
				}
			},
		},
		{
			name: "unavailable shard degrades to a partial run",
			build: func(sh *lake.Sharded, _ *atomic.Int64) []discovery.Discoverer {
				return []discovery.Discoverer{
					onShard("down-1-a", discovery.JosieJoin{}, failOn(sh, 1, errDown)),
					onShard("down-1-b", discovery.LSHJoin{}, failOn(sh, 1, errDown)),
				}
			},
			check: func(t *testing.T, out [][]discovery.Result, serrs []discovery.ShardError, err error, _ int64) {
				if err != nil {
					t.Fatal(err)
				}
				if len(serrs) != 1 || serrs[0].Shard != 1 || !errors.Is(serrs[0], discovery.ErrShardUnavailable) {
					t.Fatalf("shard errors = %v, want exactly shard 1 (deduplicated across discoverers)", serrs)
				}
				for _, rs := range out {
					for _, r := range rs {
						if lake.ShardIndex(r.Table.Name, parityShards) == 1 {
							t.Errorf("down shard's table %q still ranked", r.Table.Name)
						}
					}
				}
			},
		},
		{
			name: "first hard error by slot beats later errors and tolerated ones",
			build: func(sh *lake.Sharded, _ *atomic.Int64) []discovery.Discoverer {
				return []discovery.Discoverer{
					// slots 0..2: shard 0 unavailable (tolerable), shard 2 hard-fails.
					onShard("d0", discovery.JosieJoin{}, func(l *lake.Lake, err error) error {
						switch l.Tokens() {
						case sh.Shards()[0].Tokens():
							return errDown
						case sh.Shards()[2].Tokens():
							return errors.New("slot 2 failed")
						}
						return err
					}),
					// slot 3: a later hard failure that must lose.
					onShard("d1", discovery.JosieJoin{}, failOn(sh, 0, errors.New("slot 3 failed"))),
				}
			},
			check: func(t *testing.T, out [][]discovery.Result, serrs []discovery.ShardError, err error, _ int64) {
				if err == nil || err.Error() != "slot 2 failed" || out != nil || serrs != nil {
					t.Fatalf("got (%v, %v, %v), want only the slot-2 error", out, serrs, err)
				}
			},
		},
		{
			name: "panic contained as a typed slot error",
			build: func(sh *lake.Sharded, _ *atomic.Int64) []discovery.Discoverer {
				return []discovery.Discoverer{
					discovery.JosieJoin{},
					onShard("bad-hook", discovery.JosieJoin{}, func(l *lake.Lake, err error) error {
						if l.Tokens() == sh.Shards()[1].Tokens() {
							panic("user hook exploded")
						}
						return err
					}),
				}
			},
			check: func(t *testing.T, _ [][]discovery.Result, _ []discovery.ShardError, err error, _ int64) {
				var pe *discovery.PanicError
				if !errors.As(err, &pe) || pe.Method != "bad-hook" || err.Error() != `discovery: "bad-hook" panicked: user hook exploded` {
					t.Fatalf("err = %v, want the bad-hook *PanicError", err)
				}
			},
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			type outcome struct {
				out   [][]discovery.Result
				serrs []discovery.ShardError
				err   string
				calls int64
			}
			run := func(target func(*lake.Sharded) discovery.Target) outcome {
				sh, query := parityFixture(t)
				var calls atomic.Int64
				ds := sc.build(sh, &calls)
				out, serrs, err := discovery.RunAll(context.Background(), target(sh), query, 0, sc.k, ds)
				sc.check(t, out, serrs, err, calls.Load())
				o := outcome{out: out, serrs: serrs, calls: calls.Load()}
				if err != nil {
					o.err = err.Error()
				}
				// Table pointers differ between two fixtures; compare by value.
				for _, rs := range o.out {
					for i := range rs {
						rs[i].Table = rs[i].Table.Clone()
					}
				}
				return o
			}
			var remote *stubRemote
			local := run(func(sh *lake.Sharded) discovery.Target { return sh })
			viaRemote := run(func(sh *lake.Sharded) discovery.Target {
				remote = &stubRemote{sh: sh}
				return remote
			})
			if !reflect.DeepEqual(local, viaRemote) {
				t.Errorf("transports diverge\nin-process: %+v\n    remote: %+v", local, viaRemote)
			}
			if viaRemote.err == "" && remote.resolves.Load() == 0 {
				t.Error("remote run never materialized its stubs: the Remote arm was not exercised")
			}
		})
	}
}

// TestRunAllEveryShardDownFails pins the one case the partial-read contract
// does not tolerate: when no slot answered because every shard is
// unavailable, an empty ranking marked partial would be a silent miss, so
// RunAll fails with the first slot's error on both transports. One shard
// answering anything keeps the run partial (see the parity scenarios).
func TestRunAllEveryShardDownFails(t *testing.T) {
	errDown := fmt.Errorf("shard process gone: %w", discovery.ErrShardUnavailable)
	down := func(*lake.Lake, error) error { return errDown }
	for name, target := range map[string]func(*lake.Sharded) discovery.Target{
		"in-process": func(sh *lake.Sharded) discovery.Target { return sh },
		"remote":     func(sh *lake.Sharded) discovery.Target { return &stubRemote{sh: sh} },
	} {
		sh, query := parityFixture(t)
		ds := []discovery.Discoverer{onShard("a", discovery.JosieJoin{}, down), onShard("b", discovery.LSHJoin{}, down)}
		out, serrs, err := discovery.RunAll(context.Background(), target(sh), query, 0, 0, ds)
		if err != errDown || out != nil || serrs != nil {
			t.Errorf("%s: every shard down = (%v, %v, %v), want only the first slot's error", name, out, serrs, err)
		}
	}
}
