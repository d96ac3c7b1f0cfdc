// differential_test is the multi-process differential harness: real shard
// server processes (this test binary re-executed in helper mode, each with
// its own durable persist store), a coordinator over them, and an
// in-process lake.Sharded twin. Randomized Add/Remove schedules
// are mirrored into both; after every mutation the coordinator's discovery
// answers must be byte-identical — float64 bit-exact scores included — to
// the twin's. Midway, one shard process is killed and restarted from its
// own persist store: the WAL-recovered shard must answer identically, with
// no coordinator restart.
package cluster_test

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/discovery"
	"repro/internal/lake"
	"repro/internal/persist"
	"repro/internal/serve"
	"repro/internal/table"
)

const (
	helperEnv  = "DIALITE_CLUSTER_SHARD_HELPER"
	persistEnv = "DIALITE_SHARD_PERSIST"
	addrEnv    = "DIALITE_SHARD_ADDR"
)

// TestMain turns the test binary into a shard server when re-executed with
// the helper env set: a real separate process serving a durable lake, the
// harness's stand-in for `dialite serve -persist`.
func TestMain(m *testing.M) {
	if os.Getenv(helperEnv) == "1" {
		runShardHelper()
		return
	}
	os.Exit(m.Run())
}

// runShardHelper is the shard process: create (empty) or recover the
// persist store, attach it to a serving pipeline, announce the bound
// address on stdout, and serve until SIGTERM — which drains and syncs the
// WAL, so a restart recovers exactly what was acknowledged.
func runShardHelper() {
	dir := os.Getenv(persistEnv)
	addr := os.Getenv(addrEnv)
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "shard helper:", err)
		os.Exit(1)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var st *persist.Store
	var err error
	if persist.Exists(dir, persist.Options{}) {
		st, err = persist.Open(dir, persist.Options{})
	} else {
		var l *lake.Lake
		if l, err = lake.New(nil, lake.Options{Knowledge: difftest.DiffKB()}); err == nil {
			st, err = persist.Create(dir, l, persist.Options{})
		}
	}
	if err != nil {
		fail(err)
	}
	s := serve.NewWarming(serve.Config{Timeout: 30 * time.Second})
	s.Attach(core.FromLake(st.Lake()), st)
	// A restarted shard rebinds its predecessor's exact address; the old
	// process has exited but the kernel may lag releasing the port.
	var ln net.Listener
	for attempt := 0; ; attempt++ {
		ln, err = net.Listen("tcp", addr)
		if err == nil {
			break
		}
		if attempt > 100 {
			fail(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	fmt.Printf("SHARD_ADDR=%s\n", ln.Addr().String())
	if err := s.Serve(ctx, ln); err != nil {
		fail(err)
	}
}

// shardProc is one live shard helper process.
type shardProc struct {
	cmd  *exec.Cmd
	addr string // host:port the helper bound
	dir  string // its persist store
}

// spawnShard launches a helper process over the given persist dir. addr
// pins the listen address ("" lets the helper pick); restarts pass the
// previous address so the coordinator's fixed shard list stays valid.
func spawnShard(t *testing.T, dir, addr string) *shardProc {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), helperEnv+"=1", persistEnv+"="+dir, addrEnv+"="+addr)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(stdout)
	got := make(chan string, 1)
	go func() {
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "SHARD_ADDR="); ok {
				got <- a
				break
			}
		}
		close(got)
	}()
	select {
	case a, ok := <-got:
		if !ok {
			cmd.Process.Kill()
			t.Fatalf("shard helper for %s exited before announcing its address", dir)
		}
		sp := &shardProc{cmd: cmd, addr: a, dir: dir}
		waitShardReady(t, "http://"+a)
		return sp
	case <-time.After(30 * time.Second):
		cmd.Process.Kill()
		t.Fatalf("shard helper for %s never announced its address", dir)
		return nil
	}
}

// terminate asks the shard process to shut down gracefully (drain + WAL
// sync) and waits for it.
func (sp *shardProc) terminate(t *testing.T) {
	t.Helper()
	if err := sp.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM shard %s: %v", sp.addr, err)
	}
	done := make(chan error, 1)
	go func() { done <- sp.cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shard %s exited: %v", sp.addr, err)
		}
	case <-time.After(30 * time.Second):
		sp.cmd.Process.Kill()
		t.Fatalf("shard %s did not exit after SIGTERM", sp.addr)
	}
}

// TestMultiProcessDifferential runs the full acceptance harness: 200
// randomized mutation schedules (25 under -short) mirrored between the
// coordinator over real shard processes and an in-process lake.Sharded
// twin, byte-identical discovery after every mutation, with one shard
// killed and recovered from its own persist store mid-run.
func TestMultiProcessDifferential(t *testing.T) {
	schedules := 200
	if testing.Short() {
		schedules = 25
	}
	const n = 3
	procs := make([]*shardProc, n)
	addrs := make([]string, n)
	for i := range procs {
		procs[i] = spawnShard(t, t.TempDir(), "")
		addrs[i] = "http://" + procs[i].addr
	}
	defer func() {
		for _, sp := range procs {
			if sp.cmd.ProcessState == nil {
				sp.cmd.Process.Signal(syscall.SIGTERM)
				sp.cmd.Wait()
			}
		}
	}()
	coord, err := cluster.New(cluster.Config{
		Addrs:        addrs,
		Knowledge:    difftest.DiffKB(),
		CallTimeout:  30 * time.Second,
		ProbeTimeout: 5 * time.Second,
		RetryBackoff: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.CloseIdleConnections()
	mirror, err := lake.NewSharded(nil, n, lake.Options{Knowledge: difftest.DiffKB()})
	if err != nil {
		t.Fatal(err)
	}
	reg := discovery.NewRegistry()

	// One shared pool across schedules: the deployment is long-lived, the
	// schedules are its mutation history.
	poolRng := rand.New(rand.NewSource(424242))
	pool := make([]*table.Table, 16)
	for i := range pool {
		pool[i] = difftest.DiffTable(poolRng, fmt.Sprintf("m%02d", i))
	}
	inLake := make([]bool, len(pool))

	verify := func(ctx string, rng *rand.Rand) {
		t.Helper()
		for q := 0; q < 2; q++ {
			query := pool[rng.Intn(len(pool))]
			k := rng.Intn(3) * 3 // 0 = all
			got := difftest.DiscoverySig(reg, coord, query, 0, k)
			want := difftest.DiscoverySig(reg, mirror, query, 0, k)
			if got != want {
				t.Fatalf("%s: query %q k %d: coordinator diverged from in-process twin\n got:\n%s\nwant:\n%s", ctx, query.Name, k, got, want)
			}
		}
		if got, want := coord.Size(), mirror.Size(); got != want {
			t.Fatalf("%s: Size: coordinator %d, twin %d", ctx, got, want)
		}
	}

	restartAt := schedules / 2
	for sched := 0; sched < schedules; sched++ {
		rng := rand.New(rand.NewSource(int64(9000 + sched)))
		if sched == restartAt {
			// Kill shard 1 and bring it back FROM ITS OWN PERSIST STORE at
			// the same address. The coordinator is not restarted; its next
			// epoch sample sees the shard live again.
			old := procs[1]
			old.terminate(t)
			procs[1] = spawnShard(t, old.dir, old.addr)
			verify(fmt.Sprintf("schedule %d post-restart", sched), rng)
		}
		ops := 1 + rng.Intn(3)
		for op := 0; op < ops; op++ {
			var in, out []int
			for i, ok := range inLake {
				if ok {
					in = append(in, i)
				} else {
					out = append(out, i)
				}
			}
			switch c := rng.Intn(7); {
			case c <= 2 && len(out) > 0: // add 1-2 tables
				cnt := 1 + rng.Intn(2)
				var batch []*table.Table
				for _, i := range out[:min(cnt, len(out))] {
					batch = append(batch, pool[i])
					inLake[i] = true
				}
				if err := coord.Add(batch...); err != nil {
					t.Fatalf("schedule %d op %d: coordinator Add: %v", sched, op, err)
				}
				if err := mirror.Add(batch...); err != nil {
					t.Fatalf("schedule %d op %d: twin Add: %v", sched, op, err)
				}
			case c <= 5 && len(in) > 0: // remove one table
				i := in[rng.Intn(len(in))]
				if err := coord.Remove(pool[i].Name); err != nil {
					t.Fatalf("schedule %d op %d: coordinator Remove: %v", sched, op, err)
				}
				if err := mirror.Remove(pool[i].Name); err != nil {
					t.Fatalf("schedule %d op %d: twin Remove: %v", sched, op, err)
				}
				inLake[i] = false
			default: // no mutation this step
			}
		}
		verify(fmt.Sprintf("schedule %d", sched), rand.New(rand.NewSource(int64(sched)*31+7)))
	}

	// Final membership cross-check through the remote catalog.
	for i, ok := range inLake {
		if _, got := coordGet(t, coord, pool[i].Name); got != ok {
			t.Errorf("coordinator Get(%s) = %v, want %v", pool[i].Name, got, ok)
		}
	}
}
