package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/analyze"
	"repro/internal/paperdata"
	"repro/internal/persist"
	"repro/internal/serve"
	"repro/internal/table"
	"repro/internal/testutil"
)

// writeDemoLake writes T2 and T3 as a CSV lake and T1 as the query table,
// returning (lakeDir, queryPath).
func writeDemoLake(t *testing.T) (string, string) {
	t.Helper()
	dir := t.TempDir()
	lakeDir := filepath.Join(dir, "lake")
	for _, tb := range paperdata.CovidLake() {
		if err := tb.WriteCSVFile(filepath.Join(lakeDir, tb.Name+".csv")); err != nil {
			t.Fatal(err)
		}
	}
	queryPath := filepath.Join(dir, "T1.csv")
	if err := paperdata.T1().WriteCSVFile(queryPath); err != nil {
		t.Fatal(err)
	}
	return lakeDir, queryPath
}

func TestCmdDiscover(t *testing.T) {
	lakeDir, queryPath := writeDemoLake(t)
	if err := cmdDiscover(context.Background(), []string{"-lake", lakeDir, "-query", queryPath, "-col", "1"}); err != nil {
		t.Fatal(err)
	}
	// Explicit methods.
	if err := cmdDiscover(context.Background(), []string{"-lake", lakeDir, "-query", queryPath, "-col", "1", "-methods", "lsh-join", "-k", "2"}); err != nil {
		t.Fatal(err)
	}
	// Missing lake errors.
	if err := cmdDiscover(context.Background(), []string{"-query", queryPath}); err == nil {
		t.Error("missing -lake must error")
	}
	// Missing query file errors.
	if err := cmdDiscover(context.Background(), []string{"-lake", lakeDir, "-query", filepath.Join(lakeDir, "nope.csv")}); err == nil {
		t.Error("missing query must error")
	}
}

func TestCmdIntegrate(t *testing.T) {
	lakeDir, _ := writeDemoLake(t)
	out := filepath.Join(t.TempDir(), "out.csv")
	if err := cmdIntegrate(context.Background(), []string{"-lake", lakeDir, "-tables", "T2,T3", "-prov", "-out", out}); err != nil {
		t.Fatal(err)
	}
	written, err := table.ReadCSVFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if written.NumRows() == 0 || written.Columns[0] != "TIDs" {
		t.Errorf("written table wrong: %v", written.Columns)
	}
	if err := cmdIntegrate(context.Background(), []string{"-lake", lakeDir, "-tables", "T2,missing"}); err == nil {
		t.Error("unknown table must error")
	}
	if err := cmdIntegrate(context.Background(), []string{"-lake", lakeDir}); err == nil {
		t.Error("missing -tables must error")
	}
	if err := cmdIntegrate(context.Background(), []string{"-lake", lakeDir, "-tables", "T2,T3", "-op", "bogus"}); err == nil {
		t.Error("unknown operator must error")
	}
}

func TestCmdPipeline(t *testing.T) {
	lakeDir, queryPath := writeDemoLake(t)
	out := filepath.Join(t.TempDir(), "integrated.csv")
	if err := cmdPipeline(context.Background(), []string{"-lake", lakeDir, "-query", queryPath, "-col", "1", "-out", out}); err != nil {
		t.Fatal(err)
	}
	written, err := table.ReadCSVFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if written.NumRows() != 7 {
		t.Errorf("pipeline output rows = %d, want 7 (Fig. 3)", written.NumRows())
	}
}

func TestCmdAnalyze(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fig3.csv")
	if err := paperdata.Fig3Expected().WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	err := cmdAnalyze([]string{
		"-table", path,
		"-profile",
		"-corr", paperdata.ColVaccRate + "," + paperdata.ColDeathRate,
		"-groupby", paperdata.ColCountry + "," + paperdata.ColVaccRate + ",avg",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cmdAnalyze([]string{"-table", path, "-corr", "only-one"}); err == nil {
		t.Error("malformed -corr must error")
	}
	if err := cmdAnalyze([]string{"-table", path, "-groupby", "a,b"}); err == nil {
		t.Error("malformed -groupby must error")
	}
	if err := cmdAnalyze([]string{"-table", path, "-corr", "nope,also-nope"}); err == nil {
		t.Error("unknown column must error")
	}
}

func TestCmdResolve(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fd.csv")
	if err := paperdata.Fig8bExpected().WriteCSVFile(path); err != nil {
		t.Fatal(err)
	}
	if err := cmdResolve(context.Background(), []string{"-table", path}); err != nil {
		t.Fatal(err)
	}
	if err := cmdResolve(context.Background(), []string{"-table", filepath.Join(dir, "missing.csv")}); err == nil {
		t.Error("missing table must error")
	}
}

func TestCmdGenerate(t *testing.T) {
	out := filepath.Join(t.TempDir(), "q.csv")
	if err := cmdGenerate([]string{"-prompt", "covid cases", "-rows", "4", "-cols", "3", "-out", out}); err != nil {
		t.Fatal(err)
	}
	q, err := table.ReadCSVFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumRows() != 4 || q.NumCols() != 3 {
		t.Errorf("generated %dx%d", q.NumRows(), q.NumCols())
	}
	if err := cmdGenerate([]string{"-rows", "0"}); err == nil {
		t.Error("zero rows must error")
	}
}

func TestColumnByName(t *testing.T) {
	tb := paperdata.T1()
	if i, err := columnByName(tb, "City"); err != nil || i != 1 {
		t.Errorf("by name = %d, %v", i, err)
	}
	if i, err := columnByName(tb, " 2 "); err != nil || i != 2 {
		t.Errorf("by index = %d, %v", i, err)
	}
	if _, err := columnByName(tb, "nope"); err == nil {
		t.Error("unknown column must error")
	}
	if _, err := columnByName(tb, "99"); err == nil {
		t.Error("out-of-range index must error")
	}
}

func TestParseAgg(t *testing.T) {
	for s, want := range map[string]analyze.Agg{
		"count": analyze.Count, "SUM": analyze.Sum, " avg ": analyze.Avg,
		"min": analyze.Min, "max": analyze.Max,
	} {
		got, err := parseAgg(s)
		if err != nil || got != want {
			t.Errorf("parseAgg(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := parseAgg("median"); err == nil {
		t.Error("unknown aggregate must error")
	}
}

func TestCmdDiscoverGrowDrop(t *testing.T) {
	lakeDir, queryPath := writeDemoLake(t)
	// A second directory to grow the lake from, containing a T1-overlapping
	// table, plus dropping T3 — the incremental-mutation CLI path.
	growDir := filepath.Join(t.TempDir(), "grow")
	extra := table.New("T9", "City", "Cases")
	extra.MustAddRow(table.StringValue("Berlin"), table.IntValue(10))
	extra.MustAddRow(table.StringValue("Manchester"), table.IntValue(20))
	if err := extra.WriteCSVFile(filepath.Join(growDir, "T9.csv")); err != nil {
		t.Fatal(err)
	}
	if err := cmdDiscover(context.Background(), []string{"-lake", lakeDir, "-query", queryPath, "-col", "1", "-grow", growDir, "-drop", "T3"}); err != nil {
		t.Fatal(err)
	}
	// Errors propagate: growing with a duplicate name, dropping an unknown.
	dupDir := filepath.Join(t.TempDir(), "dup")
	if err := paperdata.T2().WriteCSVFile(filepath.Join(dupDir, "T2.csv")); err != nil {
		t.Fatal(err)
	}
	if err := cmdDiscover(context.Background(), []string{"-lake", lakeDir, "-query", queryPath, "-col", "1", "-grow", dupDir}); err == nil {
		t.Error("growing a duplicate table must error")
	}
	if err := cmdDiscover(context.Background(), []string{"-lake", lakeDir, "-query", queryPath, "-col", "1", "-drop", "nope"}); err == nil {
		t.Error("dropping an unknown table must error")
	}
}

// TestCmdListFlags: -methods, -drop and -tables read one comma list rule —
// entries trimmed, empty entries dropped.
func TestCmdListFlags(t *testing.T) {
	lakeDir, queryPath := writeDemoLake(t)
	ctx := context.Background()
	if err := cmdDiscover(ctx, []string{"-lake", lakeDir, "-query", queryPath, "-col", "1", "-methods", "santos-union, lsh-join"}); err != nil {
		t.Errorf("spaced -methods: %v", err)
	}
	if err := cmdDiscover(ctx, []string{"-lake", lakeDir, "-query", queryPath, "-col", "1", "-drop", "T3,"}); err != nil {
		t.Errorf("trailing comma in -drop: %v", err)
	}
	err := cmdIntegrate(ctx, []string{"-lake", lakeDir, "-tables", "T2, nope"})
	if err == nil || err.Error() != `table "nope" not in lake` {
		t.Errorf("-tables \"T2, nope\": %v, want table \"nope\" not in lake", err)
	}
}

func TestCmdServeValidation(t *testing.T) {
	lakeDir, _ := writeDemoLake(t)
	if err := cmdServe(context.Background(), []string{}); err == nil {
		t.Error("missing -lake and -persist must error")
	}
	if err := cmdServe(context.Background(), []string{"-lake", lakeDir, "-timeout", "-5s"}); err == nil {
		t.Error("negative -timeout must error")
	}
	if err := cmdServe(context.Background(), []string{"-lake", lakeDir, "-timeout", "0"}); err == nil {
		t.Error("zero -timeout must error")
	}
	if err := cmdServe(context.Background(), []string{"-lake", lakeDir, "-addr", "not-an-address:nope"}); err == nil {
		t.Error("bad -addr must error")
	}
	if err := cmdServe(context.Background(), []string{"-lake", lakeDir, "-max-body-bytes", "-1"}); err == nil {
		t.Error("negative -max-body-bytes must error")
	}
	// -lake alongside an existing durable directory is a conflict: the
	// durable directory already records the lake and -lake would be
	// silently ignored.
	persistDir := filepath.Join(t.TempDir(), "durable")
	if err := cmdSnapshot([]string{"-persist", persistDir, "-lake", lakeDir}); err != nil {
		t.Fatal(err)
	}
	err := cmdServe(context.Background(), []string{"-lake", lakeDir, "-persist", persistDir})
	if err == nil || !strings.Contains(err.Error(), "conflicts") {
		t.Errorf("-lake with existing -persist = %v, want conflict error", err)
	}
	// Sharding flags: negative counts are nonsense, and sharded lakes are
	// in-memory only — the durability layer snapshots a single lake.
	if err := cmdServe(context.Background(), []string{"-lake", lakeDir, "-shards", "-1"}); err == nil {
		t.Error("negative -shards must error")
	}
	freshPersist := filepath.Join(t.TempDir(), "fresh")
	err = cmdServe(context.Background(), []string{"-lake", lakeDir, "-persist", freshPersist, "-shards", "2"})
	if err == nil || !strings.Contains(err.Error(), "-shards") || !strings.Contains(err.Error(), "-persist") {
		t.Errorf("-shards with -persist = %v, want conflict error naming both flags", err)
	}
	// Cluster mode runs on the curated KB: a coordinator would ignore
	// -synth, and each shard would synthesize from its own slice only. The
	// context is done, so a flag set that passes validation returns at once
	// instead of serving.
	done, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{
		{"-coordinator", "-shard-addrs", "http://127.0.0.1:1", "-synth", "-addr", "127.0.0.1:0"},
		{"-lake", lakeDir, "-shard-of", "0/2", "-synth", "-addr", "127.0.0.1:0"},
	} {
		if err := cmdServe(done, args); err == nil || !strings.Contains(err.Error(), "-synth conflicts") {
			t.Errorf("serve %v = %v, want a -synth conflict error", args, err)
		}
	}
	// 0 and 1 are legal no-op values; exercised end to end below.
}

// TestCmdServeSharded boots `dialite serve -shards 2` end to end and
// checks the catalog and a discover round trip answer exactly as the
// unsharded server does.
func TestCmdServeSharded(t *testing.T) {
	lakeDir, _ := writeDemoLake(t)
	base, stop := startServe(t, []string{"-lake", lakeDir, "-shards", "2"})
	resp, err := http.Get(base + "/v1/lake")
	if err != nil {
		t.Fatal(err)
	}
	var lakeInfo struct {
		Size   int      `json:"size"`
		Tables []string `json:"tables"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&lakeInfo); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if lakeInfo.Size != 2 || strings.Join(lakeInfo.Tables, ",") != "T2,T3" {
		t.Errorf("sharded /v1/lake = %+v", lakeInfo)
	}
	if err := stop(); err != nil {
		t.Fatalf("serve exited with %v", err)
	}
}

// TestCmdServeRoundTrip boots the HTTP server on an ephemeral port, drives
// one discover request through it, and shuts it down via context
// cancellation (the SIGINT path).
func TestCmdServeRoundTrip(t *testing.T) {
	lakeDir, _ := writeDemoLake(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addr := testutil.FreeLocalAddr(t)
	done := make(chan error, 1)
	go func() { done <- cmdServe(ctx, []string{"-lake", lakeDir, "-addr", addr}) }()
	// Wait for the server to come up.
	var resp *http.Response
	var err error
	for i := 0; i < 100; i++ {
		resp, err = http.Get("http://" + addr + "/healthz")
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("server never came up: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	resp.Body.Close()
	resp, err = http.Get("http://" + addr + "/v1/lake")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "T2") {
		t.Errorf("lake listing = %s", body)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("graceful shutdown returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("server did not shut down")
	}
}

// startServe launches cmdServe with args in a goroutine and waits until
// /healthz answers, returning the shutdown function (cancel + wait) and
// the base URL.
func startServe(t *testing.T, args []string) (string, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	addr := testutil.FreeLocalAddr(t)
	done := make(chan error, 1)
	go func() { done <- cmdServe(ctx, append([]string{"-addr", addr}, args...)) }()
	var err error
	for i := 0; i < 200; i++ {
		var resp *http.Response
		if resp, err = http.Get("http://" + addr + "/healthz"); err == nil {
			resp.Body.Close()
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		cancel()
		t.Fatalf("server never came up: %v", err)
	}
	var once sync.Once
	var stopErr error
	stop := func() error {
		once.Do(func() {
			cancel()
			select {
			case stopErr = <-done:
			case <-time.After(10 * time.Second):
				stopErr = context.DeadlineExceeded
			}
		})
		return stopErr
	}
	t.Cleanup(func() { stop() })
	return "http://" + addr, stop
}

// TestCmdServePersistLifecycle drives the durable serving story end to end
// on the real filesystem: cold start creates the directory from -lake, a
// mutation over HTTP is logged, a warm restart (no -lake at all) recovers
// it, and the offline snapshot command folds the WAL away.
func TestCmdServePersistLifecycle(t *testing.T) {
	lakeDir, _ := writeDemoLake(t)
	persistDir := filepath.Join(t.TempDir(), "durable")

	// Cold start: -lake + -persist creates the durable directory.
	base, stop := startServe(t, []string{"-lake", lakeDir, "-persist", persistDir})
	extra := table.New("T9", "City", "Cases")
	extra.MustAddRow(table.StringValue("Berlin"), table.IntValue(10))
	raw, err := json.Marshal(serve.LakeAddRequest{Tables: []serve.TableJSON{serve.EncodeTable(extra)}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/lake/add", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("durable add over HTTP = %d", resp.StatusCode)
	}
	resp.Body.Close()
	if err := stop(); err != nil {
		t.Fatalf("cold-start shutdown returned %v", err)
	}

	// Warm restart: no -lake; the directory alone restores lake + mutation,
	// and /healthz carries the persistence counters.
	base, stop = startServe(t, []string{"-persist", persistDir})
	var body []byte
	for i := 0; i < 200; i++ { // the listener is up before replay finishes
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ = io.ReadAll(resp.Body)
		resp.Body.Close()
		if strings.Contains(string(body), `"status":"ok"`) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !strings.Contains(string(body), `"persistence"`) || !strings.Contains(string(body), `"wal_records":1`) {
		t.Fatalf("healthz after warm restart = %s", body)
	}
	resp, err = http.Get(base + "/v1/lake")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "T9") {
		t.Fatalf("warm-restarted lake lost the durable add: %s", body)
	}
	if err := stop(); err != nil {
		t.Fatalf("warm shutdown returned %v", err)
	}

	// Offline compaction folds the WAL record into a fresh snapshot
	// generation. The previous generation and the record it may still need
	// are retained (the two-generation fallback), but the newest snapshot
	// now covers every mutation, so recovery replays nothing.
	if err := cmdSnapshot([]string{"-persist", persistDir}); err != nil {
		t.Fatal(err)
	}
	st, err := persist.Open(persistDir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if got := st.Status(); got.SnapshotSeq != got.Seq || got.Snapshots != 2 {
		t.Fatalf("status after compaction = %+v", got)
	}
	if _, ok := st.Lake().Get("T9"); !ok {
		t.Fatal("compaction lost the durable add")
	}
}

// TestCmdSnapshotValidation pins the snapshot command's edges: a missing
// -persist flag errors, and a new directory can be seeded from -lake.
func TestCmdSnapshotValidation(t *testing.T) {
	if err := cmdSnapshot([]string{}); err == nil {
		t.Error("missing -persist must error")
	}
	if err := cmdSnapshot([]string{"-persist", filepath.Join(t.TempDir(), "new")}); err == nil {
		t.Error("new directory without -lake must error")
	}
	lakeDir, _ := writeDemoLake(t)
	dir := filepath.Join(t.TempDir(), "seeded")
	if err := cmdSnapshot([]string{"-persist", dir, "-lake", lakeDir}); err != nil {
		t.Fatal(err)
	}
	st, err := persist.Open(dir, persist.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Lake().Size() != 2 {
		t.Fatalf("seeded lake size = %d", st.Lake().Size())
	}
}
