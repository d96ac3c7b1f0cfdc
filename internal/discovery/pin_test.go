// pin_test pins what an in-process discovery run reads: one published view
// per shard, loaded once before the fan-out. Every discoverer of the run
// reads that pin through a read-only *lake.Lake handle, so a mutation
// landing mid-run — on a Lake, routed through a Sharded, or made directly
// on one shard — never mixes two catalog states into one answer, and no
// attempt is repeated. Run under -race: the mutations happen on fan-out
// workers while other workers read.
package discovery_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/difftest"
	"repro/internal/discovery"
	"repro/internal/lake"
	"repro/internal/table"
)

func cityTable(name string, vals ...string) *table.Table {
	tbl := table.New(name, "city")
	for _, v := range vals {
		tbl.MustAddRow(table.StringValue(v))
	}
	return tbl
}

// nameOnShard returns the first name prefix0, prefix1, … that routes to
// shard of n.
func nameOnShard(prefix string, shard, n int) string {
	for i := 0; ; i++ {
		if name := fmt.Sprintf("%s%d", prefix, i); lake.ShardIndex(name, n) == shard {
			return name
		}
	}
}

// render writes a ranking as names, scores and columns, so rankings from
// two catalogs over the same tables compare by value.
func render(rs []discovery.Result) string {
	s := ""
	for _, r := range rs {
		s += fmt.Sprintf("%s/%v/%d;", r.Table.Name, r.Score, r.Column)
	}
	return s
}

// TestRunAllRoutedBatchNeverTearsShards runs one routed batch through a
// Sharded from inside every fan-out attempt: the slot on shard 0 reads, then
// removes (or re-adds) a victim on shard 0 and another on shard 1 in one
// Sharded.Remove (Add); the slot on shard 1 waits for that batch before it
// reads. An answer that saw shard 0 before the batch and shard 1 after it
// holds a state the catalog never held. Every answer must instead equal the
// catalog's answer before or after its batch, and carry the epoch vector
// it was read under. Slot order puts the mutating slot first, which is the
// order GOMAXPROCS=1 runs them in.
func TestRunAllRoutedBatchNeverTearsShards(t *testing.T) {
	const n = 3
	anchor0, anchor1 := nameOnShard("anchor", 0, n), nameOnShard("anchor", 1, n)
	victim0, victim1 := nameOnShard("victim", 0, n), nameOnShard("victim", 1, n)
	base := []*table.Table{cityTable(anchor0, "berlin", "lyon"), cityTable(anchor1, "paris", "oslo")}
	victims := []*table.Table{cityTable(victim0, "berlin", "paris", "tokyo"), cityTable(victim1, "berlin", "paris", "tokyo")}
	all := append(append([]*table.Table(nil), base...), victims...)
	opts := lake.Options{Knowledge: difftest.DiffKB()}
	query := cityTable("query", "berlin", "paris", "tokyo")

	var josie discovery.JosieJoin
	answerOver := func(tables []*table.Table) string {
		sh, err := lake.NewSharded(tables, n, opts)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := discovery.RunAll(context.Background(), sh, query, 0, 0, []discovery.Discoverer{josie})
		if err != nil {
			t.Fatal(err)
		}
		return render(out[0])
	}
	withVictims, withoutVictims := answerOver(all), answerOver(base)
	if withVictims == withoutVictims {
		t.Fatal("the victims do not change the answer; the test checks nothing")
	}

	sh, err := lake.NewSharded(all, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The shard-0 slot sends once per attempt and the shard-1 slot of the
	// same attempt receives once; at GOMAXPROCS=1 the sender runs first, so
	// its send must not block.
	batched := make(chan struct{}, 1)
	tearing := funcDiscoverer{name: "tearing", fn: func(ctx context.Context, l *lake.Lake, q *table.Table, queryCol, k int) ([]discovery.Result, error) {
		if _, onShard1 := l.Get(anchor1); onShard1 {
			select {
			case <-batched:
			case <-time.After(10 * time.Second):
				return nil, errors.New("timed out waiting for the routed batch")
			}
			return josie.Discover(ctx, l, q, queryCol, k)
		}
		rs, err := josie.Discover(ctx, l, q, queryCol, k)
		if _, onShard0 := l.Get(anchor0); onShard0 && err == nil {
			if _, present := sh.Get(victim0); present {
				err = sh.Remove(victim0, victim1)
			} else {
				err = sh.Add(victims...)
			}
			batched <- struct{}{}
		}
		return rs, err
	}}
	reg := discovery.NewRegistry()
	if err := reg.Register(tearing); err != nil {
		t.Fatal(err)
	}
	for round := range 4 {
		a, err := discovery.DiscoverAnswer(context.Background(), reg, sh, query, 0, 0, []string{"tearing"})
		if err != nil {
			t.Fatal(err)
		}
		if got := render(a.PerMethod["tearing"]); got != withVictims && got != withoutVictims {
			t.Fatalf("round %d: answer %s mixes shards before and after the routed batch\nwith the victims:    %s\nwithout the victims: %s", round, got, withVictims, withoutVictims)
		}
		if a.Epochs == nil {
			t.Fatalf("round %d: an in-process answer carries no epoch vector", round)
		}
	}
}

// TestRunAllPinsTornMutation lands one mutation in the middle of a run —
// on a Lake, routed through a Sharded, and directly on one shard of a
// Sharded — after one discoverer answered on the victim's shard and before
// another reads it. Both must answer from the pinned catalog (the victim
// still ranked, exactly as a fresh catalog over the same tables ranks it),
// each discoverer runs once per shard, the answer carries the vector
// sampled before the run, and the mutation itself lands.
func TestRunAllPinsTornMutation(t *testing.T) {
	const n = 3
	victim := cityTable("victim", "berlin", "paris", "tokyo")
	tables := []*table.Table{victim, cityTable("other", "berlin", "lyon")}
	opts := lake.Options{Knowledge: difftest.DiffKB()}
	query := cityTable("query", "berlin", "paris", "tokyo")
	var josie discovery.JosieJoin
	fresh, err := lake.New(tables, opts)
	if err != nil {
		t.Fatal(err)
	}
	pinned, _, err := discovery.RunAll(context.Background(), fresh, query, 0, 0, []discovery.Discoverer{josie})
	if err != nil {
		t.Fatal(err)
	}
	want := render(pinned[0])
	if !hasTable(pinned[0], "victim") {
		t.Fatalf("fixture: the victim is not ranked: %s", want)
	}

	for _, c := range []struct {
		name string
		// build returns the target, the victim's shard, the mid-run
		// mutation and a live lookup of the victim.
		build func(t *testing.T) (target discovery.Target, shard *lake.Lake, mutate func() error, live func() bool)
	}{
		{"lake", func(t *testing.T) (discovery.Target, *lake.Lake, func() error, func() bool) {
			l, err := lake.New(tables, opts)
			if err != nil {
				t.Fatal(err)
			}
			return l, l, func() error { return l.Remove("victim") }, func() bool { _, ok := l.Get("victim"); return ok }
		}},
		{"routed", func(t *testing.T) (discovery.Target, *lake.Lake, func() error, func() bool) {
			sh, err := lake.NewSharded(tables, n, opts)
			if err != nil {
				t.Fatal(err)
			}
			return sh, sh.Shards()[sh.ShardFor("victim")], func() error { return sh.Remove("victim") }, func() bool { _, ok := sh.Get("victim"); return ok }
		}},
		{"direct shard", func(t *testing.T) (discovery.Target, *lake.Lake, func() error, func() bool) {
			sh, err := lake.NewSharded(tables, n, opts)
			if err != nil {
				t.Fatal(err)
			}
			owner := sh.Shards()[sh.ShardFor("victim")]
			return sh, owner, func() error { return owner.Remove("victim") }, func() bool { _, ok := owner.Get("victim"); return ok }
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			target, shard, mutate, live := c.build(t)
			ns := len(target.(interface{ Shards() []*lake.Lake }).Shards())
			var (
				once                    sync.Once
				mutated                 = make(chan struct{})
				firstCalls, secondCalls atomic.Int64
			)
			first := funcDiscoverer{name: "mutate-after-read", fn: func(ctx context.Context, l *lake.Lake, q *table.Table, queryCol, k int) ([]discovery.Result, error) {
				firstCalls.Add(1)
				rs, err := josie.Discover(ctx, l, q, queryCol, k)
				if l.Tokens() == shard.Tokens() {
					once.Do(func() {
						err = errors.Join(err, mutate())
						close(mutated)
					})
				}
				return rs, err
			}}
			second := funcDiscoverer{name: "wait-then-read", fn: func(ctx context.Context, l *lake.Lake, q *table.Table, queryCol, k int) ([]discovery.Result, error) {
				select {
				case <-mutated:
				case <-time.After(10 * time.Second):
					return nil, errors.New("timed out waiting for the mid-run mutation")
				}
				secondCalls.Add(1)
				return josie.Discover(ctx, l, q, queryCol, k)
			}}
			reg := discovery.NewRegistry()
			for _, d := range []discovery.Discoverer{first, second} {
				if err := reg.Register(d); err != nil {
					t.Fatal(err)
				}
			}
			before := target.Epochs()
			a, err := discovery.DiscoverAnswer(context.Background(), reg, target, query, 0, 0, []string{first.name, second.name})
			if err != nil {
				t.Fatal(err)
			}
			if live() {
				t.Fatal("the mid-run mutation did not land")
			}
			if f, s := firstCalls.Load(), secondCalls.Load(); f != int64(ns) || s != int64(ns) {
				t.Errorf("discoverers ran %d/%d times, want once per shard (%d)", f, s, ns)
			}
			for _, m := range []string{first.name, second.name} {
				if got := render(a.PerMethod[m]); got != want {
					t.Errorf("%s answered %s, want the pinned catalog's %s", m, got, want)
				}
			}
			if !slices.Equal(a.Epochs, before) {
				t.Errorf("answer epochs %v, want the vector sampled before the run %v", a.Epochs, before)
			}
		})
	}
}

// TestRunAllPinnedHandleRefusesMutation: a discoverer holds a read-only
// handle, so an Add or Remove through it is refused and leaves the live
// catalog as it was — size, tables and epoch vector — on a Lake and on a
// Sharded.
func TestRunAllPinnedHandleRefusesMutation(t *testing.T) {
	tables := []*table.Table{cityTable("kept", "berlin", "paris"), cityTable("other", "lyon")}
	opts := lake.Options{Knowledge: difftest.DiffKB()}
	plain, err := lake.New(tables, opts)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := lake.NewSharded(tables, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]interface {
		discovery.Target
		Get(string) (*table.Table, bool)
		Size() int
	}{"lake": plain, "sharded": sharded} {
		before := c.Epochs()
		var attempts, refusals atomic.Int64
		mutating := funcDiscoverer{name: "mutating", fn: func(ctx context.Context, l *lake.Lake, q *table.Table, queryCol, k int) ([]discovery.Result, error) {
			attempts.Add(1)
			if l.Add(cityTable("added", "oslo")) != nil {
				refusals.Add(1)
			}
			for _, tbl := range l.Tables() {
				attempts.Add(1)
				if l.Remove(tbl.Name) != nil {
					refusals.Add(1)
				}
			}
			return nil, nil
		}}
		if _, _, err := discovery.RunAll(context.Background(), c, tables[0], 0, 0, []discovery.Discoverer{mutating}); err != nil {
			t.Fatal(err)
		}
		if a := attempts.Load(); a <= int64(len(tables)) || refusals.Load() != a {
			t.Errorf("%s: %d of %d mutations through a pinned handle refused, want all", name, refusals.Load(), a)
		}
		if _, added := c.Get("added"); added || c.Size() != len(tables) || !slices.Equal(c.Epochs(), before) {
			t.Errorf("%s: a refused mutation changed the live catalog (size %d, epochs %v -> %v)", name, c.Size(), before, c.Epochs())
		}
		for _, tbl := range tables {
			if _, ok := c.Get(tbl.Name); !ok {
				t.Errorf("%s: %q was removed through a pinned handle", name, tbl.Name)
			}
		}
	}
}

// TestRunAllRemoteRetriesTornRead pins the retry a remote run keeps: it
// cannot pin shard processes, so it samples the epoch vector around the
// fan-out. A routed Remove landing after the victim's shard answered moves
// the vector, and the run re-executes once and answers the settled catalog
// under a clean vector; a mutation landing in every attempt leaves the
// final attempt torn, answered with no vector.
func TestRunAllRemoteRetriesTornRead(t *testing.T) {
	for _, everyAttempt := range []bool{false, true} {
		sh, query := parityFixture(t)
		owner := sh.Shards()[sh.ShardFor("t0")].Tokens()
		var calls, mutations atomic.Int64
		d := funcDiscoverer{name: "mutates-mid-run", fn: func(ctx context.Context, l *lake.Lake, q *table.Table, queryCol, k int) ([]discovery.Result, error) {
			calls.Add(1)
			rs, err := discovery.JosieJoin{}.Discover(ctx, l, q, queryCol, k)
			if l.Tokens() == owner && (everyAttempt || mutations.Load() == 0) {
				mutations.Add(1)
				if _, ok := sh.Get("t0"); ok {
					err = errors.Join(err, sh.Remove("t0"))
				} else {
					err = errors.Join(err, sh.Add(cityTable("t0", "berlin", "paris", "tokyo")))
				}
			}
			return rs, err
		}}
		reg := discovery.NewRegistry()
		if err := reg.Register(d); err != nil {
			t.Fatal(err)
		}
		a, err := discovery.DiscoverAnswer(context.Background(), reg, &stubRemote{sh: sh}, query, 0, 0, []string{d.name})
		if err != nil {
			t.Fatal(err)
		}
		if calls.Load() != 2*parityShards {
			t.Fatalf("everyAttempt=%v: %d shard calls, want %d (one torn attempt + one retry)", everyAttempt, calls.Load(), 2*parityShards)
		}
		if everyAttempt {
			if a.Epochs != nil {
				t.Errorf("a torn final attempt carries epochs %v, want none", a.Epochs)
			}
			continue
		}
		if hasTable(a.PerMethod[d.name], "t0") {
			t.Errorf("removed table survived the retry: %+v", a.PerMethod[d.name])
		}
		if !slices.Equal(a.Epochs, sh.Epochs()) {
			t.Errorf("retried answer epochs %v, want the settled vector %v", a.Epochs, sh.Epochs())
		}
	}
}

// TestRunAllResolvesQueryOncePerShard pins query preparation on a pin: the
// joinable discoverers of one run get one resolved domain per shard, every
// shard's domain shares one extraction of the value set, another column of
// the same query is resolved on its own, and a pinned run, plain or
// sharded, ranks a copy of a lake table and the lake's own pointer exactly
// as the discoverers do on the live unsharded lake.
func TestRunAllResolvesQueryOncePerShard(t *testing.T) {
	tables := resolveLakeTables()
	opts := lake.Options{Knowledge: difftest.DiffKB()}
	plain, err := lake.New(tables, opts)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := lake.NewSharded(tables, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	joinable := []discovery.Discoverer{discovery.LSHJoin{}, discovery.JosieJoin{}}
	for name, target := range map[string]discovery.Target{"plain": plain, "sharded": sharded} {
		var mu sync.Mutex
		domains := make(map[*table.TokenDict][]*table.Domain)
		var ds []discovery.Discoverer
		for _, inner := range joinable {
			ds = append(ds, funcDiscoverer{name: inner.Name(), fn: func(ctx context.Context, l *lake.Lake, q *table.Table, queryCol, k int) ([]discovery.Result, error) {
				rs, err := inner.Discover(ctx, l, q, queryCol, k)
				d, derr := l.ResolveQuery(q, queryCol)
				other, oerr := l.ResolveQuery(q, 2)
				if derr != nil || oerr != nil {
					return nil, errors.Join(derr, oerr)
				}
				if want, _ := lake.QueryDomain(q, 2); !slices.Equal(other.Values, want) {
					return nil, fmt.Errorf("column 2 resolved to %v, want %v", other.Values, want)
				}
				mu.Lock()
				domains[l.Tokens()] = append(domains[l.Tokens()], d)
				mu.Unlock()
				return rs, err
			}})
		}
		query := messyTable().Clone()
		if _, _, err := discovery.RunAll(context.Background(), target, query, 0, 0, ds); err != nil {
			t.Fatal(err)
		}
		var values *string
		for _, ds := range domains {
			if len(ds) != len(joinable) || ds[0] != ds[1] {
				t.Fatalf("%s: one shard resolved the query column into %d domains %p, want one shared by lsh-join and josie-join", name, len(ds), ds)
			}
			if values == nil {
				values = &ds[0].Values[0]
			} else if values != &ds[0].Values[0] {
				t.Errorf("%s: two shards extracted the query's value set separately", name)
			}
		}
		if len(domains) != len(target.(interface{ Shards() []*lake.Lake }).Shards()) {
			t.Errorf("%s: %d shards resolved the query, want every shard", name, len(domains))
		}

		for _, q := range []*table.Table{tables[0], query} {
			out, _, err := discovery.RunAll(context.Background(), target, q, 0, 0, joinable)
			if err != nil {
				t.Fatal(err)
			}
			for i, d := range joinable {
				live, err := d.Discover(context.Background(), plain, q, 0, 0)
				if err != nil {
					t.Fatal(err)
				}
				if render(out[i]) != render(live) || len(live) == 0 {
					t.Errorf("%s: %s on %p: the pinned run ranks %s, the live lake %s", name, d.Name(), q, render(out[i]), render(live))
				}
			}
		}
	}
}
