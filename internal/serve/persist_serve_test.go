package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/lake"
	"repro/internal/paperdata"
	"repro/internal/persist"
	"repro/internal/table"
	"repro/internal/testutil"
)

// TestWarmingServer pins the warm-restart surface: a server started before
// its pipeline exists answers every endpoint with 503 + Retry-After and
// reports the replay on /healthz, then flips live atomically on Attach.
func TestWarmingServer(t *testing.T) {
	s := NewWarming(Config{})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warming healthz status = %d, want 200", resp.StatusCode)
	}
	health := decodeResp[HealthResponse](t, resp)
	if health.Status != "warming" || !health.ReplayInProgress {
		t.Fatalf("warming health = %+v", health)
	}
	resp = postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Query: EncodeTable(paperdata.T1()), QueryColumn: 1})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("warming discover status = %d, want 503", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got == "" {
		t.Error("warming 503 carries no Retry-After header")
	}
	if e := decodeResp[ErrorBody](t, resp); !strings.Contains(e.Error, "recovery in progress") {
		t.Errorf("warming error = %q", e.Error)
	}

	p, err := core.New(paperdata.CovidLake(), core.Config{Knowledge: kb.Demo()})
	if err != nil {
		t.Fatal(err)
	}
	s.Attach(p, nil)
	resp = postJSON(t, ts.URL+"/v1/discover", DiscoverRequest{Query: EncodeTable(paperdata.T1()), QueryColumn: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-attach discover status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health = decodeResp[HealthResponse](t, resp)
	if health.Status != "ok" || health.ReplayInProgress || health.Persistence != nil {
		t.Fatalf("post-attach health = %+v", health)
	}
}

// newPersistedServer builds a pipeline over the COVID lake, a MemFS-backed
// store for it, and a server with both attached.
func newPersistedServer(t *testing.T) (*persist.MemFS, *Server, *httptest.Server) {
	t.Helper()
	fsys := persist.NewMemFS()
	l, err := lake.New(paperdata.CovidLake(), lake.Options{Knowledge: kb.Demo()})
	if err != nil {
		t.Fatal(err)
	}
	st, err := persist.Create("lake", l, persist.Options{FS: fsys, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	s := NewWarming(Config{})
	s.Attach(core.FromLake(l), st)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return fsys, s, ts
}

// TestDurableMutationsAndHealthz pins the persisted serving path: lake
// mutations route through the store (visible as WAL growth on /healthz and
// as recovered state on a later Open), and /healthz carries the
// persistence counters.
func TestDurableMutationsAndHealthz(t *testing.T) {
	fsys, s, ts := newPersistedServer(t)
	extra := table.New("T9", "City", "Cases")
	extra.MustAddRow(table.StringValue("Berlin"), table.IntValue(10))
	resp := postJSON(t, ts.URL+"/v1/lake/add", LakeAddRequest{Tables: []TableJSON{EncodeTable(extra)}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add status = %d", resp.StatusCode)
	}
	if out := decodeResp[LakeResponse](t, resp); out.Size != 3 {
		t.Errorf("size after durable add = %d", out.Size)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health := decodeResp[HealthResponse](t, resp)
	if health.Status != "ok" || health.Persistence == nil {
		t.Fatalf("health = %+v", health)
	}
	if p := health.Persistence; p.Seq != 1 || p.WALRecords != 1 || p.FormatMajor != persist.FormatMajor || p.LastSync.IsZero() {
		t.Fatalf("persistence health = %+v", p)
	}
	// The acknowledged mutation is already on disk: power-cycle the
	// filesystem (dropping everything unsynced) and recover.
	if err := s.store.Load().Close(); err != nil {
		t.Fatal(err)
	}
	fsys.PowerCycle()
	st, err := persist.Open("lake", persist.Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Lake().Get("T9"); !ok {
		t.Fatal("durable add lost after power cycle")
	}
	if st.Lake().Size() != 3 {
		t.Fatalf("recovered size = %d", st.Lake().Size())
	}
}

// gatedFS wraps a persist.FS and, while the gate is armed, parks every
// File.Sync on the gate channel — a deterministic in-flight WAL fsync for
// the shutdown-ordering test.
type gatedFS struct {
	persist.FS
	mu      sync.Mutex
	gate    chan struct{}
	entered chan struct{}
}

func (g *gatedFS) arm() (release func(), entered chan struct{}) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.gate = make(chan struct{})
	g.entered = make(chan struct{}, 1)
	gate := g.gate
	return func() { close(gate) }, g.entered
}

func (g *gatedFS) wrap(f persist.File, err error) (persist.File, error) {
	if err != nil {
		return nil, err
	}
	return &gatedFile{File: f, fs: g}, nil
}

func (g *gatedFS) Create(name string) (persist.File, error) { return g.wrap(g.FS.Create(name)) }
func (g *gatedFS) Append(name string) (persist.File, error) { return g.wrap(g.FS.Append(name)) }

type gatedFile struct {
	persist.File
	fs *gatedFS
}

func (f *gatedFile) Sync() error {
	f.fs.mu.Lock()
	gate, entered := f.fs.gate, f.fs.entered
	f.fs.mu.Unlock()
	if gate != nil {
		select {
		case entered <- struct{}{}:
		default:
		}
		<-gate
	}
	return f.File.Sync()
}

// TestShutdownDrainsMutationsAndFlushesWAL pins the shutdown ordering fix:
// when the serve context is cancelled while a durable mutation is mid-
// fsync, the server (1) refuses new mutations with 503, (2) waits for the
// in-flight one to commit and acknowledge, and (3) syncs + closes the WAL
// — all before ListenAndServe returns. The mutation that got its 200 is
// then recoverable from a power-cycled filesystem.
func TestShutdownDrainsMutationsAndFlushesWAL(t *testing.T) {
	mem := persist.NewMemFS()
	fsys := &gatedFS{FS: mem}
	l, err := lake.New(paperdata.CovidLake(), lake.Options{Knowledge: kb.Demo()})
	if err != nil {
		t.Fatal(err)
	}
	st, err := persist.Create("lake", l, persist.Options{FS: fsys, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	s := NewWarming(Config{Timeout: time.Minute})
	s.Attach(core.FromLake(l), st)
	addr := testutil.FreeLocalAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	served := make(chan error, 1)
	go func() { served <- s.ListenAndServe(ctx, addr) }()
	for i := 0; i < 100; i++ {
		if resp, err := http.Get("http://" + addr + "/healthz"); err == nil {
			resp.Body.Close()
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Park a durable add inside its WAL fsync.
	release, entered := fsys.arm()
	extra := table.New("T9", "City", "Cases")
	extra.MustAddRow(table.StringValue("Berlin"), table.IntValue(10))
	respc := make(chan *http.Response, 1)
	go func() {
		raw, _ := json.Marshal(LakeAddRequest{Tables: []TableJSON{EncodeTable(extra)}})
		resp, err := http.Post("http://"+addr+"/v1/lake/add", "application/json", bytes.NewReader(raw))
		if err != nil {
			respc <- nil
			return
		}
		respc <- resp
	}()
	<-entered // the mutation provably holds the drain gate, mid-fsync
	cancel()  // SIGTERM equivalent

	// Shutdown is now draining: it must not finish while the mutation is
	// parked, and new mutations must be refused — queries still answer.
	select {
	case <-served:
		t.Fatal("ListenAndServe returned while a mutation held the drain gate")
	case <-time.After(100 * time.Millisecond):
	}
	raw, _ := json.Marshal(LakeRemoveRequest{Names: []string{"T2"}})
	if resp, err := http.Post("http://"+addr+"/v1/lake/remove", "application/json", bytes.NewReader(raw)); err == nil {
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("mutation during drain status = %d, want 503", resp.StatusCode)
		}
		resp.Body.Close()
	}

	release() // let the fsync complete
	select {
	case resp := <-respc:
		if resp == nil {
			t.Fatal("in-flight mutation failed at the transport level")
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("drained mutation status = %d, want 200", resp.StatusCode)
		}
		resp.Body.Close()
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight mutation never completed")
	}
	select {
	case err := <-served:
		if err != nil {
			t.Errorf("ListenAndServe returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("ListenAndServe did not return after drain")
	}
	// The 200-acknowledged mutation survives a power failure immediately
	// after shutdown: WAL-before-ack plus the shutdown flush make it
	// durable, not merely applied in memory.
	mem.PowerCycle()
	st2, err := persist.Open("lake", persist.Options{FS: mem})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Lake().Get("T9"); !ok {
		t.Fatal("acknowledged mutation lost across shutdown + power cycle")
	}
}
