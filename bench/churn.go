package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lake"
	"repro/internal/persist"
	"repro/internal/serve"
	"repro/internal/table"
)

// churn-mixed: one reader in a closed loop over non-repeating discover
// queries, one writer on an open-loop schedule of persisted adds and
// removes, then warm restarts of the persisted lake.

var churnWorkload = workload{
	name: "churn-mixed",
	boot: func(in *inputs, splitKB bool, dir string) (*deployment, error) {
		return bootDurable(in.lake.Tables, splitKB, dir)
	},
	measure: measureChurn,
	trace:   traceChurn,
}

const (
	// readerSample: every readerSample-th reader answer is parsed, checked
	// for shape and scored for recall; the others are checked for status.
	readerSample = 8
	restarts     = 5 // warm restarts timed by a traced run
)

// churnRound is what one round of mixed traffic observed.
type churnRound struct {
	reads       []time.Duration
	readsFailed int
	recalls     []float64
	mutations   []time.Duration // scheduled send → ack
	late        []time.Duration // scheduled send → actual send
	mutFailed   int
	snapshots   int           // auto-snapshots the store took
	stallMax    time.Duration // largest ack that overlapped one
	elapsed     time.Duration
}

// churn is the state that carries across rounds.
type churn struct {
	e        *env
	pool     []*query
	cursor   int // reader's position in the pool
	schedule []mutation
	done     int // mutations sent so far
	interval time.Duration
	reader   *client
	writer   *client
}

// newChurn prepares a run of warm-up plus timed mutations and dry-runs the
// reader's pool.
func newChurn(e *env, timed int) (*churn, error) {
	ch := &churn{
		e:        e,
		pool:     e.in.churnPool(e.cfg.seed),
		schedule: e.in.churnSchedule(e.cfg.seed, warmUpMutations(e.cfg.scale())+timed),
		interval: time.Duration(float64(time.Second) / e.cfg.scale().mutationRate),
	}
	if err := dryRunDiscover(e.in, e.d.url+"/v1/discover", ch.pool, nil); err != nil {
		return nil, fmt.Errorf("dry run: %w", err)
	}
	h := sha256.New()
	for _, q := range ch.pool {
		h.Write(q.sum[:])
	}
	for _, mu := range ch.schedule {
		h.Write(mu.body)
	}
	e.res.Stream = hex.EncodeToString(h.Sum(nil))
	cs := newClients(clientCount)
	ch.reader, ch.writer = cs[0], cs[1]
	policy := fmt.Sprintf("persist: default policy — WAL fsynced before every ack, auto-snapshot every 256 records; fsync timings are this sandbox's, not a device's (dir %s)", e.d.dir)
	e.res.Notes = append(e.res.Notes, policy)
	return ch, nil
}

// round sends the next n scheduled mutations at the schedule's pace while
// the reader loops; it ends when the last mutation is acknowledged.
func (ch *churn) round(n int) churnRound {
	var (
		r    churnRound
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	d := ch.e.d
	discoverURL, addURL, removeURL := d.url+"/v1/discover", d.url+"/v1/lake/add", d.url+"/v1/lake/remove"
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			q := ch.pool[ch.cursor%len(ch.pool)]
			ch.cursor++
			t0 := time.Now()
			status, body, err := ch.reader.post(discoverURL, q.body)
			r.reads = append(r.reads, time.Since(t0))
			ok := err == nil && status == http.StatusOK
			if ok && i%readerSample == 0 {
				set, err := integrationSet(body, q.name)
				ok = err == nil
				r.recalls = append(r.recalls, ch.e.in.recall(q, set))
			}
			if !ok {
				r.readsFailed++
			}
		}
	}()
	snapSeq := d.store.Status().SnapshotSeq
	for j, mu := range ch.schedule[ch.done : ch.done+n] {
		due := start.Add(time.Duration(j) * ch.interval)
		time.Sleep(time.Until(due))
		r.late = append(r.late, time.Since(due))
		url := removeURL
		if mu.add {
			url = addURL
		}
		status, _, err := ch.writer.post(url, mu.body)
		ack := time.Since(due)
		r.mutations = append(r.mutations, ack)
		if err != nil || status != http.StatusOK {
			r.mutFailed++
		}
		if seq := d.store.Status().SnapshotSeq; seq != snapSeq {
			snapSeq = seq
			r.snapshots++
			r.stallMax = max(r.stallMax, ack)
		}
	}
	ch.done += n
	stop.Store(true)
	wg.Wait()
	r.elapsed = time.Since(start)
	return r
}

// survivors lists the tables the lake must hold after the mutations sent so
// far: the generated lake plus every added table not removed since.
func (ch *churn) survivors() []string {
	live := map[string]bool{}
	for _, t := range ch.e.in.lake.Tables {
		live[t.Name] = true
	}
	for _, mu := range ch.schedule[:ch.done] {
		live[mu.name] = mu.add
	}
	var names []string
	for n, ok := range live {
		if ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// restart is close → persist.Open → first /v1/discover answered (what a
// caller times), then a check that the recovered lake lists exactly the
// surviving tables.
func (ch *churn) restart() error {
	closeClients([]*client{ch.reader})
	if err := ch.e.d.restart(); err != nil {
		return fmt.Errorf("warm restart: %w", err)
	}
	q := ch.pool[0]
	status, body, err := ch.reader.post(ch.e.d.url+"/v1/discover", q.body)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("first discover after restart: status %d: %v", status, err)
	}
	if _, err := integrationSet(body, q.name); err != nil {
		return fmt.Errorf("first discover after restart: %w", err)
	}
	status, body, err = ch.reader.do(http.MethodGet, ch.e.d.url+"/v1/lake", nil)
	if err != nil || status != http.StatusOK {
		return fmt.Errorf("GET /v1/lake after restart: status %d: %v", status, err)
	}
	var listed serve.LakeResponse
	if err := json.Unmarshal(body, &listed); err != nil {
		return err
	}
	sort.Strings(listed.Tables)
	ch.e.res.Attempted++
	if want := ch.survivors(); fmt.Sprint(listed.Tables) != fmt.Sprint(want) {
		ch.e.res.Failed++
		fmt.Fprintf(os.Stderr, "bench: recovered lake lists %d tables, want the %d survivors\n", len(listed.Tables), len(want))
	}
	return nil
}

// warmUpMutations covers the stretch in which every step is an add, so that
// the timed rounds see the alternating steady state.
func warmUpMutations(sc scale) int { return sc.removeLag + 10 }

// warmUp runs the untimed stretch; nothing may fail in it.
func (ch *churn) warmUp() error {
	if w := ch.round(warmUpMutations(ch.e.cfg.scale())); w.readsFailed+w.mutFailed > 0 {
		return fmt.Errorf("%d reads and %d mutations failed in warm-up", w.readsFailed, w.mutFailed)
	}
	return nil
}

func (ch *churn) count(r churnRound) {
	ch.e.res.Attempted += len(r.reads) + len(r.mutations)
	ch.e.res.Failed += r.readsFailed + r.mutFailed
}

func measureChurn(e *env) error {
	perRound := e.cfg.perRound(e.cfg.scale().mutationRate)
	ch, err := newChurn(e, rounds*perRound)
	if err != nil {
		return err
	}
	defer closeClients([]*client{ch.reader})
	if err := ch.warmUp(); err != nil {
		return err
	}
	// The writer's schedule fixes each round's length, so a slow reader does
	// fewer reads, never more rounds. The best round is reported, as in
	// closedLoopMetrics.
	var thr, p50, recalls []float64
	reads := 0
	for i := 0; i < rounds; i++ {
		r := ch.round(perRound)
		ch.count(r)
		reads += len(r.reads)
		thr = append(thr, float64(len(r.reads)-r.readsFailed)/r.elapsed.Seconds())
		p50 = append(p50, percentileMS(r.reads, 0.50))
		recalls = append(recalls, r.recalls...)
	}
	e.m.setFrom("throughput_ops", slices.Max(thr), thr, reads)
	e.m.setFrom("latency_p50_ms", slices.Min(p50), p50, reads)
	e.m.set("recall_at_k", mean(recalls), len(recalls))
	return ch.restart()
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(max(1, len(xs)))
}

func traceChurn(e *env) (*tracer, error) {
	n := rounds * e.cfg.perRound(e.cfg.scale().mutationRate) / 2
	ch, err := newChurn(e, n)
	if err != nil {
		return nil, err
	}
	defer closeClients([]*client{ch.reader})
	if err := ch.warmUp(); err != nil {
		return nil, err
	}

	// The mixed phase, untraced, under the runtime window and the server's
	// own counters; adds and removes are also reported per endpoint.
	var r churnRound
	w := openWindow()
	if err := serveStats(e, func() { r = ch.round(n) }); err != nil {
		return nil, err
	}
	w.close(e.m, len(r.reads)+len(r.mutations))
	ch.count(r)
	endpointLatency(e.m, "discover", r.reads)
	var adds, removes []time.Duration
	for j, mu := range ch.schedule[ch.done-n : ch.done] {
		if mu.add {
			adds = append(adds, r.mutations[j]-r.late[j])
		} else {
			removes = append(removes, r.mutations[j]-r.late[j])
		}
	}
	endpointLatency(e.m, "lake_add", adds)
	endpointLatency(e.m, "lake_remove", removes)
	tailLatency(e.m, r.reads)
	e.m.set("mutation_p50_ms", percentileMS(r.mutations, 0.50), n)
	e.m.set("mutation_p95_ms", percentileMS(r.mutations, 0.95), n)
	e.m.set("gen.late_p95_ms", percentileMS(r.late, 0.95), n)
	e.m.set("persist.stall_max_ms", ms(r.stallMax), n)
	e.m.set("persist.snapshots", float64(r.snapshots), n)

	tr := newTracer()
	for i := 0; i < restarts; i++ {
		root := tr.begin(0, i, "warm_restart", false)
		err := ch.restart()
		tr.end(root)
		if err != nil {
			return nil, err
		}
	}
	tr.layer(e.m, "warm_restart_ms", "warm_restart")
	return tr, churnProbes(e, tr)
}

// churnProbes times the mutation layers directly, on a twin of the lake with
// no HTTP in front: first bare (lake.Add/Remove/Compact), then behind a
// persist store of its own (Store.Add, Snapshot, Open).
func churnProbes(e *env, tr *tracer) error {
	clones := make([]*table.Table, 0, 64)
	for _, mu := range e.in.churnSchedule(e.cfg.seed^0x77, 64) {
		if !mu.add {
			continue
		}
		var req serve.LakeAddRequest
		if err := decodeBody(mu.body, &req); err != nil {
			return err
		}
		t, err := req.Tables[0].DecodeTable()
		if err != nil {
			return err
		}
		t.Name = "probe_" + t.Name
		clones = append(clones, t)
	}
	twin, err := lake.New(e.in.lake.Tables, lake.Options{Knowledge: e.d.pipe.Lake().Knowledge()})
	if err != nil {
		return err
	}
	var perr error
	fail := func(err error) {
		if perr == nil {
			perr = err
		}
	}
	for i, t := range clones {
		tr.replay(0, i, "lake.add", func() { fail(twin.Add(t)) })
	}
	tr.replay(0, 0, "lake.compact", func() { twin.Compact() })
	for i, t := range clones {
		tr.replay(0, i, "lake.remove", func() { fail(twin.Remove(t.Name)) })
	}
	if perr != nil {
		return perr
	}

	dir := filepath.Join(filepath.Dir(e.d.dir), "probe-store")
	store, err := persist.Create(dir, twin, persist.Options{})
	if err != nil {
		return err
	}
	wal0 := store.Status().WALBytes
	for i, t := range clones {
		tr.replay(0, i, "persist.add", func() { fail(store.Add(t)) })
	}
	walPerMutation := float64(store.Status().WALBytes-wal0) / float64(len(clones))
	tr.replay(0, 0, "persist.snapshot", func() { fail(store.Snapshot()) })
	fail(store.Close())
	if perr != nil {
		return perr
	}
	var snapBytes int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		// Snapshot generations sort by sequence; the last one is the newest.
		if info, err := ent.Info(); err == nil && filepath.Ext(ent.Name()) == ".dialite" {
			snapBytes = info.Size()
		}
	}
	var reopened *persist.Store
	tr.replay(0, 0, "persist.open", func() {
		reopened, err = persist.Open(dir, persist.Options{})
	})
	if err != nil {
		return err
	}
	if err := reopened.Close(); err != nil {
		return err
	}
	tr.layer(e.m, "lake.add_ms", "lake.add")
	tr.layer(e.m, "lake.remove_ms", "lake.remove")
	tr.layer(e.m, "lake.compact_ms", "lake.compact")
	tr.layer(e.m, "persist.add_ms", "persist.add")
	tr.layer(e.m, "persist.snapshot_ms", "persist.snapshot")
	tr.layer(e.m, "persist.open_ms", "persist.open")
	e.m.set("persist.wal_bytes_per_mutation", walPerMutation, len(clones))
	e.m.set("persist.snapshot_bytes", float64(snapBytes), 1)
	return nil
}
