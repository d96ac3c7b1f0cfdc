package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/lake"
	"repro/internal/persist"
	"repro/internal/serve"
	"repro/internal/table"
)

// deployment is the program under test, listening on loopback in this
// process, plus the handles the benchmark reads public surfaces through.
type deployment struct {
	url    string         // the front door clients talk to
	pipe   *core.Pipeline // the pipeline behind it
	server *serve.Server  // the front door

	lakes []*lake.Lake   // the single lake, or the shard lakes
	store *persist.Store // churn-mixed only
	dir   string         // churn-mixed only: the store's directory

	// kbSynthesize and kbCompile are clocked only where the benchmark runs
	// the two steps itself (cluster-fanout, and every traced run); elsewhere
	// lake.BuildStats.KBPrep covers both.
	kbSynthesize, kbCompile time.Duration

	stops []func() // listeners, last started first
}

// stop shuts every listener down and waits for its goroutine. The front
// door's shutdown closes the persist store.
func (d *deployment) stop() {
	for i := len(d.stops) - 1; i >= 0; i-- {
		d.stops[i]()
	}
	d.stops = nil
}

// listen serves s on a loopback port until the returned stop is called.
func listen(s *serve.Server) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, fmt.Errorf("listen: %w", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Serve(ctx, ln) }()
	return "http://" + ln.Addr().String(), func() { cancel(); <-done }, nil
}

// knowledgeFor runs KB synthesis and compilation the way lake.New does, as
// separately clocked steps.
func knowledgeFor(tables []*table.Table, d *deployment) *kb.KB {
	t0 := time.Now()
	knowledge := kb.Demo().Merge(kb.Synthesize(tables, kb.SynthesizeOptions{}))
	d.kbSynthesize = time.Since(t0)
	t0 = time.Now()
	knowledge.Compiled()
	d.kbCompile = time.Since(t0)
	return knowledge
}

// buildPipeline builds the lake as `dialite serve -lake DIR -synth` does.
// With splitKB the KB steps are clocked apart; the lake is the same either
// way.
func (d *deployment) buildPipeline(tables []*table.Table, splitKB bool) error {
	cfg := core.Config{Knowledge: kb.Demo(), SynthesizeKB: true}
	if splitKB {
		cfg = core.Config{Knowledge: knowledgeFor(tables, d)}
	}
	p, err := core.New(tables, cfg)
	if err != nil {
		return err
	}
	d.pipe = p
	d.lakes = []*lake.Lake{p.Lake().(*lake.Lake)}
	return nil
}

// open starts the front door on a loopback port.
func (d *deployment) open() error {
	url, stop, err := listen(d.server)
	if err != nil {
		return err
	}
	d.url = url
	d.stops = append(d.stops, stop)
	return nil
}

// bootSingle serves one in-memory lake.
func bootSingle(tables []*table.Table, splitKB bool) (*deployment, error) {
	d := &deployment{}
	if err := d.buildPipeline(tables, splitKB); err != nil {
		return nil, err
	}
	d.server = serve.New(d.pipe, serve.Config{})
	return d, d.open()
}

// bootDurable is bootSingle behind a persist store in dir, with the store's
// default snapshot and fsync policy.
func bootDurable(tables []*table.Table, splitKB bool, dir string) (*deployment, error) {
	d := &deployment{dir: dir}
	if err := d.buildPipeline(tables, splitKB); err != nil {
		return nil, err
	}
	var err error
	if d.store, err = persist.Create(dir, d.lakes[0], persist.Options{}); err != nil {
		return nil, err
	}
	d.server = serve.NewWarming(serve.Config{})
	d.server.Attach(d.pipe, d.store)
	return d, d.open()
}

// restart is a warm restart without the process exit: the server drains and
// closes the store, then a fresh server binds a port while persist.Open
// recovers the lake, as `dialite serve -persist DIR` does on an existing
// directory. It returns once the recovered lake is attached.
func (d *deployment) restart() error {
	d.stop()
	d.server = serve.NewWarming(serve.Config{})
	if err := d.open(); err != nil {
		return err
	}
	st, err := persist.Open(d.dir, persist.Options{})
	if err != nil {
		return err
	}
	d.store = st
	d.lakes = []*lake.Lake{st.Lake()}
	d.pipe = core.FromLake(st.Lake())
	d.server.Attach(d.pipe, st)
	return nil
}

// bootCluster serves the tables from shardCount shard servers behind a
// coordinator: tables placed by lake.ShardIndex, one KB synthesized over the
// full table set and shared, as lake.NewSharded does.
func bootCluster(tables []*table.Table) (*deployment, error) {
	d := &deployment{}
	knowledge := knowledgeFor(tables, d)
	parts := make([][]*table.Table, shardCount)
	for _, t := range tables {
		i := lake.ShardIndex(t.Name, shardCount)
		parts[i] = append(parts[i], t)
	}
	addrs := make([]string, shardCount)
	for i, part := range parts {
		l, err := lake.New(part, lake.Options{Knowledge: knowledge})
		if err != nil {
			d.stop()
			return nil, err
		}
		d.lakes = append(d.lakes, l)
		url, stop, err := listen(serve.New(core.FromLake(l), serve.Config{}))
		if err != nil {
			d.stop()
			return nil, err
		}
		addrs[i] = url
		d.stops = append(d.stops, stop)
	}
	coord, err := cluster.New(cluster.Config{Addrs: addrs, Knowledge: knowledge})
	if err != nil {
		d.stop()
		return nil, err
	}
	d.stops = append(d.stops, coord.CloseIdleConnections)
	d.pipe = core.FromCatalog(coord)
	d.server = serve.New(d.pipe, serve.Config{})
	if err := d.open(); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// buildStats sums lake.BuildStats over the deployment's lakes.
func (d *deployment) buildStats() lake.BuildStats {
	var sum lake.BuildStats
	for _, l := range d.lakes {
		s := l.Stats()
		sum.KBPrep += s.KBPrep
		sum.DomainExtraction += s.DomainExtraction
		sum.Santos += s.Santos
		sum.LSH += s.LSH
		sum.Josie += s.Josie
	}
	return sum
}

func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "bench: cleaning %s: %v\n", dir, err)
	}
}
