// Command dialite is the command-line face of the DIALITE pipeline over a
// CSV data lake.
//
// Usage:
//
//	dialite serve     -lake DIR [-persist DIR] [-addr :8080] [-timeout 30s] [-max-inflight N] [-max-queue-wait 1s] [-max-body-bytes N]
//	dialite serve     -coordinator -shard-addrs HOST:PORT,... [-persist DIR] [-addr :8080]
//	dialite serve     -lake DIR -shard-of I/N [-persist DIR] [-addr :8080]
//	dialite shardctl  -shard-addrs HOST:PORT,... | -persist DIR
//	dialite snapshot  -persist DIR [-lake DIR]
//	dialite discover  -lake DIR -query Q.csv -col N [-methods m1,m2] [-k K] [-grow DIR] [-drop t1,t2]
//	dialite integrate -lake DIR -tables a,b,c [-op alite-fd|outer-join|inner-join|union] [-prov]
//	dialite pipeline  -lake DIR -query Q.csv -col N [-op OP] [-prov]
//	dialite analyze   -table T.csv -corr colA,colB | -groupby key,val,agg | -profile
//	dialite resolve   -table T.csv
//	dialite generate  -prompt "covid cases" [-rows 5] [-cols 5] [-seed 1] [-out Q.csv]
//
// The demo knowledge base (world cities, vaccines, agencies and their
// aliases) is always loaded; -synth additionally synthesizes a knowledge
// base from the lake itself (not in cluster mode: serve refuses -synth
// with -coordinator or -shard-of).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/analyze"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/er"
	"repro/internal/kb"
	"repro/internal/lake"
	"repro/internal/persist"
	"repro/internal/serve"
	"repro/internal/table"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// Ctrl-C cancels the context; every pipeline stage is cancellation-
	// aware, so an interrupted discover/integrate aborts at its next
	// checkpoint instead of running the full computation.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch os.Args[1] {
	case "discover":
		err = cmdDiscover(ctx, os.Args[2:])
	case "integrate":
		err = cmdIntegrate(ctx, os.Args[2:])
	case "pipeline":
		err = cmdPipeline(ctx, os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "resolve":
		err = cmdResolve(ctx, os.Args[2:])
	case "generate":
		err = cmdGenerate(os.Args[2:])
	case "serve":
		err = cmdServe(ctx, os.Args[2:])
	case "shardctl":
		err = cmdShardctl(ctx, os.Args[2:])
	case "snapshot":
		err = cmdSnapshot(os.Args[2:])
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "dialite: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dialite:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `dialite — Discover, Align and Integrate Open Data Tables

commands:
  serve      serve the pipeline over HTTP (JSON endpoints, mutable lake);
             -coordinator scatter-gathers over remote shard servers,
             -shard-of I/N serves one shard's slice of a CSV directory
  shardctl   inspect a cluster: placement manifest + per-shard health probe
  snapshot   compact a durable lake directory: fold the WAL into a snapshot
  discover   find unionable/joinable tables for a query table
  integrate  align and integrate a set of lake tables
  pipeline   discover then integrate, end to end
  analyze    aggregation, correlation and profiling over a table
  resolve    entity resolution over a table
  generate   fabricate a query table from a prompt (GPT-3 substitute)`)
}

// newPipeline builds the pipeline over -lake with the demo KB.
func newPipeline(lakeDir string, synthKB bool, shards int) (*core.Pipeline, error) {
	if lakeDir == "" {
		return nil, fmt.Errorf("-lake directory is required")
	}
	return core.FromDir(lakeDir, core.Config{Knowledge: kb.Demo(), SynthesizeKB: synthKB, Shards: shards})
}

// mutateLake applies the -grow / -drop lake mutations: growDir's CSVs are
// added to the already-built lake incrementally (no index rebuild), and the
// drop list is removed — the CLI face of lake.Lake.Add / Remove.
func mutateLake(p *core.Pipeline, growDir, drop string) error {
	if growDir != "" {
		tables, err := table.LoadDir(growDir)
		if err != nil {
			return err
		}
		if err := p.AddTables(tables...); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "added %d tables from %s (lake now %d tables)\n", len(tables), growDir, p.Lake().Size())
	}
	if names := splitCommaList(drop); len(names) > 0 {
		if err := p.RemoveTables(names...); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "removed %d tables (lake now %d tables)\n", len(names), p.Lake().Size())
	}
	return nil
}

// cmdServe stands the pipeline up as an HTTP service: JSON endpoints for
// discover/integrate/pipeline/correlate/resolve and lake add/remove, with
// per-request timeouts and graceful shutdown on SIGINT/SIGTERM (the
// process-level signal context).
//
// With -persist the lake is durable: a new directory is created from the
// -lake CSVs (snapshot + write-ahead log), an existing one is recovered —
// the listener comes up immediately and answers 503 + Retry-After until
// replay finishes, and shutdown drains in-flight mutations and syncs the
// log before the process exits.
func cmdServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	lakeDir := fs.String("lake", "", "directory of lake CSVs")
	addr := fs.String("addr", ":8080", "listen address")
	timeout := fs.Duration("timeout", serve.DefaultTimeout, "per-request timeout (must be positive)")
	synthKB := fs.Bool("synth", false, "synthesize a KB from the lake")
	persistDir := fs.String("persist", "", "durable lake directory (snapshot + WAL); created from -lake when new, recovered otherwise")
	maxInflight := fs.Int("max-inflight", 0, "max concurrently executing compute requests (0 picks 4x GOMAXPROCS; negative disables the cap)")
	maxQueueWait := fs.Duration("max-queue-wait", 0, "max time an at-capacity request may queue before shedding with 429 (0 picks the default; negative disables queueing)")
	maxBodyBytes := fs.Int64("max-body-bytes", 0, "max request body size in bytes (0 picks the 32 MiB default)")
	shards := fs.Int("shards", 0, "shard the lake across N in-process shard lakes with scatter-gather discovery (0 or 1 = unsharded; for durable sharding use -coordinator)")
	coordinator := fs.Bool("coordinator", false, "serve as a cluster coordinator: scatter-gather over the -shard-addrs shard servers instead of a local lake")
	shardAddrs := fs.String("shard-addrs", "", "comma-separated shard server base URLs, in shard order (coordinator mode)")
	shardOf := fs.String("shard-of", "", `serve shard I of an N-shard cluster as "I/N": load only the -lake tables that lake.ShardIndex routes to shard I`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := validateServeFlags(*addr, *timeout, *maxBodyBytes, *lakeDir, *persistDir, *shards, *synthKB, *coordinator, *shardAddrs, *shardOf); err != nil {
		return err
	}
	cfg := serve.Config{Timeout: *timeout, MaxBodyBytes: *maxBodyBytes, MaxInflight: *maxInflight, MaxQueueWait: *maxQueueWait}
	if *coordinator {
		return serveCoordinator(ctx, cfg, *addr, *shardAddrs, *persistDir, *timeout)
	}
	// buildLocal builds the lake-backed pipeline, honoring -shard-of: a
	// shard server loads only its slice of the CSV directory (possibly
	// empty — a valid shard holds no tables until mutations route to it).
	buildLocal := func() (*core.Pipeline, error) {
		if *shardOf != "" {
			return newShardPipeline(*lakeDir, *shardOf)
		}
		return newPipeline(*lakeDir, *synthKB, *shards)
	}
	if *persistDir == "" {
		p, err := buildLocal()
		if err != nil {
			return err
		}
		if *shards > 1 {
			fmt.Fprintf(os.Stderr, "dialite: serving %d-table lake from %s on %s across %d shards (request timeout %s)\n",
				p.Lake().Size(), *lakeDir, *addr, *shards, *timeout)
		} else {
			fmt.Fprintf(os.Stderr, "dialite: serving %d-table lake from %s on %s (request timeout %s)\n",
				p.Lake().Size(), *lakeDir, *addr, *timeout)
		}
		return serve.New(p, cfg).ListenAndServe(ctx, *addr)
	}
	if persist.Exists(*persistDir, persist.Options{}) {
		// Warm restart: the lake lives in the snapshot + WAL, not in -lake
		// (validateServeFlags already refused a conflicting -lake).
		// Listen immediately and recover in the background; endpoints answer
		// 503 + Retry-After until the replayed lake is attached.
		s := serve.NewWarming(cfg)
		ctx, fail := context.WithCancelCause(ctx)
		defer fail(nil)
		go func() {
			st, err := persist.Open(*persistDir, persist.Options{})
			if err != nil {
				fail(fmt.Errorf("recovering %s: %w", *persistDir, err))
				return
			}
			fmt.Fprintf(os.Stderr, "dialite: recovered %d-table lake from %s (seq %d)\n",
				st.Lake().Size(), *persistDir, st.Status().Seq)
			s.Attach(core.FromLake(st.Lake()), st)
		}()
		fmt.Fprintf(os.Stderr, "dialite: serving on %s while recovering lake from %s (request timeout %s)\n",
			*addr, *persistDir, *timeout)
		err := s.ListenAndServe(ctx, *addr)
		if cause := context.Cause(ctx); cause != nil && !errors.Is(cause, context.Canceled) {
			return cause
		}
		return err
	}
	// Cold start: build from the -lake CSVs, then make the directory the
	// lake's durable home before taking traffic. validateServeFlags refused
	// -shards with -persist, so the catalog here is always a concrete
	// single lake — what the persistence layer snapshots. A -shard-of
	// server persists exactly its slice: each shard process owns its own
	// durable store, which is what cluster mode's manifest coordinates.
	p, st, err := createStore(*persistDir, buildLocal)
	if err != nil {
		return err
	}
	s := serve.NewWarming(cfg)
	s.Attach(p, st)
	fmt.Fprintf(os.Stderr, "dialite: serving %d-table lake from %s on %s, persisted in %s (request timeout %s)\n",
		p.Lake().Size(), *lakeDir, *addr, *persistDir, *timeout)
	return s.ListenAndServe(ctx, *addr)
}

// createStore builds a pipeline and makes dir the durable home of its lake.
// The persistence layer snapshots one concrete *lake.Lake, so a sharded
// catalog is refused.
func createStore(dir string, build func() (*core.Pipeline, error)) (*core.Pipeline, *persist.Store, error) {
	p, err := build()
	if err != nil {
		return nil, nil, err
	}
	single, ok := p.Lake().(*lake.Lake)
	if !ok {
		return nil, nil, fmt.Errorf("persisting a sharded lake is not supported (got %T)", p.Lake())
	}
	st, err := persist.Create(dir, single, persist.Options{})
	if err != nil {
		return nil, nil, err
	}
	return p, st, nil
}

// validateServeFlags rejects broken serve flags up front with a one-line
// error — a bad listen address or a nonsensical timeout should fail before
// the lake is built, not as a late bind error or a silently applied
// default.
func validateServeFlags(addr string, timeout time.Duration, maxBodyBytes int64, lakeDir, persistDir string, shards int, synth, coordinator bool, shardAddrs, shardOf string) error {
	if timeout <= 0 {
		return fmt.Errorf("-timeout must be positive, got %s (the per-request deadline is what load shedding budgets against)", timeout)
	}
	if shards < 0 {
		return fmt.Errorf("-shards must be >= 0, got %d", shards)
	}
	if _, err := net.ResolveTCPAddr("tcp", addr); err != nil {
		return fmt.Errorf("-addr %q is not a usable listen address: %v", addr, err)
	}
	if maxBodyBytes < 0 {
		return fmt.Errorf("-max-body-bytes must be >= 0, got %d", maxBodyBytes)
	}
	if coordinator {
		// Coordinator mode: the shards are the lake. -persist is the
		// manifest directory, not a lake store.
		if shardAddrs == "" {
			return fmt.Errorf("-coordinator requires -shard-addrs (comma-separated shard server URLs, in shard order)")
		}
		if lakeDir != "" {
			return fmt.Errorf("-coordinator conflicts with -lake: a coordinator holds no tables; point the shard servers at their CSV slices instead")
		}
		if shards > 1 {
			return fmt.Errorf("-coordinator conflicts with -shards: the shard count is len(-shard-addrs)")
		}
		if shardOf != "" {
			return fmt.Errorf("-coordinator conflicts with -shard-of: a process is either the coordinator or a shard, not both")
		}
		if synth {
			return fmt.Errorf("-synth conflicts with -coordinator: cluster mode runs on the curated KB (for a synthesized KB use -shards N)")
		}
		return nil
	}
	if shardAddrs != "" {
		return fmt.Errorf("-shard-addrs requires -coordinator")
	}
	if shardOf != "" {
		if _, _, err := parseShardOf(shardOf); err != nil {
			return err
		}
		if shards > 1 {
			return fmt.Errorf("-shard-of conflicts with -shards: a shard server is a single lake")
		}
		if synth {
			return fmt.Errorf("-synth conflicts with -shard-of: a shard would synthesize from its own slice only; cluster mode runs on the curated KB (for a synthesized KB use -shards N)")
		}
		if lakeDir == "" && !persist.Exists(persistDir, persist.Options{}) {
			return fmt.Errorf("-shard-of needs -lake to slice (warm restarts recover the slice from -persist and may drop -shard-of)")
		}
	}
	if shards > 1 && persistDir != "" {
		return fmt.Errorf("-shards %d conflicts with -persist %s: the durability layer snapshots a single lake; for durable sharding run one `serve -shard-of` per shard plus `serve -coordinator -persist` (see SHARDING.md)", shards, persistDir)
	}
	if lakeDir == "" && persistDir == "" {
		return fmt.Errorf("one of -lake (CSV directory) or -persist (durable lake directory) is required")
	}
	if lakeDir != "" && persistDir != "" && persist.Exists(persistDir, persist.Options{}) {
		return fmt.Errorf("-lake %s conflicts with existing -persist %s: the durable directory already records the lake; drop -lake or point -persist at a new directory", lakeDir, persistDir)
	}
	return nil
}

// parseShardOf parses "I/N" into (shard, count).
func parseShardOf(s string) (shard, count int, err error) {
	parts := strings.SplitN(s, "/", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf(`-shard-of wants "I/N" (e.g. 0/3), got %q`, s)
	}
	shard, err1 := strconv.Atoi(strings.TrimSpace(parts[0]))
	count, err2 := strconv.Atoi(strings.TrimSpace(parts[1]))
	if err1 != nil || err2 != nil || count < 1 || shard < 0 || shard >= count {
		return 0, 0, fmt.Errorf(`-shard-of wants "I/N" with 0 <= I < N, got %q`, s)
	}
	return shard, count, nil
}

// newShardPipeline builds a single-lake pipeline over shard I's slice of
// the -lake directory: exactly the tables lake.ShardIndex(name, N) routes
// to shard I, so N such servers partition the directory with no overlap
// and no gaps. An empty slice is valid — the shard fills via routed
// mutations.
func newShardPipeline(lakeDir, shardOf string) (*core.Pipeline, error) {
	if lakeDir == "" {
		return nil, fmt.Errorf("-lake directory is required")
	}
	shard, count, err := parseShardOf(shardOf)
	if err != nil {
		return nil, err
	}
	all, err := table.LoadDir(lakeDir)
	if err != nil {
		return nil, err
	}
	mine := make([]*table.Table, 0, len(all)/count+1)
	for _, t := range all {
		if lake.ShardIndex(t.Name, count) == shard {
			mine = append(mine, t)
		}
	}
	fmt.Fprintf(os.Stderr, "dialite: shard %d/%d holds %d of %d tables from %s\n", shard, count, len(mine), len(all), lakeDir)
	return core.New(mine, core.Config{Knowledge: kb.Demo()})
}

// serveCoordinator stands up cluster mode's front door: a serve.Server
// whose catalog is a cluster.Coordinator scatter-gathering over the shard
// servers. With -persist the placement manifest lives there — first boot
// pins the shard count, later boots refuse a drifted shard count (or a
// manifest this build cannot read) before taking any traffic. No shard is
// contacted here: a coordinator boots with its shards down and serves
// degraded until they answer.
func serveCoordinator(ctx context.Context, cfg serve.Config, addr, shardAddrs, persistDir string, timeout time.Duration) error {
	addrs := splitCommaList(shardAddrs)
	if len(addrs) == 0 {
		return fmt.Errorf("-shard-addrs is empty after trimming")
	}
	coord, err := cluster.New(cluster.Config{Addrs: addrs, Knowledge: kb.Demo(), CallTimeout: timeout})
	if err != nil {
		return err
	}
	if persistDir != "" {
		if _, err := cluster.ReconcileManifest(persistDir, coord.Addrs()); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "dialite: coordinating %d shards (%s) on %s (request timeout %s)\n",
		coord.NumShards(), strings.Join(coord.Addrs(), ", "), addr, timeout)
	return serve.New(core.FromCatalog(coord), cfg).ListenAndServe(ctx, addr)
}

// cmdShardctl inspects a cluster without serving: print the placement
// manifest (if -persist names one) and probe each shard's health and size.
// Exit status is nonzero when any probed shard is unreachable, so scripts
// can gate on a fully-up cluster.
func cmdShardctl(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("shardctl", flag.ExitOnError)
	persistDir := fs.String("persist", "", "coordinator persist directory holding cluster.json")
	shardAddrs := fs.String("shard-addrs", "", "comma-separated shard server URLs to probe (default: the manifest's recorded addresses)")
	probeTimeout := fs.Duration("probe-timeout", 2*time.Second, "per-shard probe deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var manifest *cluster.Manifest
	if *persistDir != "" {
		m, err := cluster.LoadManifest(*persistDir)
		if err != nil {
			return err
		}
		manifest = m
	}
	addrs := splitCommaList(*shardAddrs)
	if len(addrs) == 0 && manifest != nil {
		addrs = manifest.Addrs
	}
	if len(addrs) == 0 && manifest == nil {
		return fmt.Errorf("nothing to inspect: give -persist (manifest) and/or -shard-addrs (probe targets)")
	}
	if manifest != nil && len(addrs) != 0 && len(addrs) != manifest.Shards {
		fmt.Fprintf(os.Stderr, "shardctl: warning: probing %d addresses but the manifest pins %d shards\n", len(addrs), manifest.Shards)
	}
	out := struct {
		Manifest *cluster.Manifest   `json:"manifest,omitempty"`
		Shards   []serve.ShardHealth `json:"shards,omitempty"`
	}{Manifest: manifest}
	down := 0
	if len(addrs) > 0 {
		health, err := cluster.ProbeShards(ctx, addrs, *probeTimeout)
		if err != nil {
			return err
		}
		out.Shards = health
		for _, h := range health {
			if h.Status == "down" {
				down++
			}
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		return err
	}
	if down > 0 {
		return fmt.Errorf("%d of %d shards down", down, len(out.Shards))
	}
	return nil
}

// splitCommaList splits a comma-separated flag value, trimming whitespace
// and dropping empties.
func splitCommaList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// cmdSnapshot maintains a durable lake directory offline. An existing
// directory is recovered and its WAL folded into a fresh snapshot
// generation, so the next serve -persist starts without replay; a new
// directory is created from the -lake CSVs.
func cmdSnapshot(args []string) error {
	fs := flag.NewFlagSet("snapshot", flag.ExitOnError)
	persistDir := fs.String("persist", "", "durable lake directory")
	lakeDir := fs.String("lake", "", "CSVs to build from when the directory is new")
	synthKB := fs.Bool("synth", false, "synthesize a KB from the lake (new directories only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *persistDir == "" {
		return fmt.Errorf("-persist directory is required")
	}
	if !persist.Exists(*persistDir, persist.Options{}) {
		_, st, err := createStore(*persistDir, func() (*core.Pipeline, error) {
			return newPipeline(*lakeDir, *synthKB, 0)
		})
		if err != nil {
			return err
		}
		fmt.Printf("created %s: %d tables, snapshot seq %d\n", *persistDir, st.Lake().Size(), st.Status().SnapshotSeq)
		return st.Close()
	}
	st, err := persist.Open(*persistDir, persist.Options{})
	if err != nil {
		return err
	}
	before := st.Status()
	if err := st.Snapshot(); err != nil {
		st.Close()
		return err
	}
	after := st.Status()
	if err := st.Close(); err != nil {
		return err
	}
	fmt.Printf("compacted %s: %d tables, %d WAL records folded into snapshot seq %d\n",
		*persistDir, st.Lake().Size(), before.WALRecords, after.SnapshotSeq)
	return nil
}

func cmdDiscover(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("discover", flag.ExitOnError)
	lakeDir := fs.String("lake", "", "directory of lake CSVs")
	queryPath := fs.String("query", "", "query table CSV")
	col := fs.Int("col", 0, "intent/query column index")
	methods := fs.String("methods", "", "comma-separated discovery methods (default santos-union,lsh-join)")
	k := fs.Int("k", 10, "results per method")
	synthKB := fs.Bool("synth", false, "synthesize a KB from the lake")
	growDir := fs.String("grow", "", "directory of CSVs to add to the lake incrementally after the build")
	drop := fs.String("drop", "", "comma-separated table names to remove from the lake before querying")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := newPipeline(*lakeDir, *synthKB, 0)
	if err != nil {
		return err
	}
	if err := mutateLake(p, *growDir, *drop); err != nil {
		return err
	}
	q, err := table.ReadCSVFile(*queryPath)
	if err != nil {
		return err
	}
	ms := splitCommaList(*methods)
	resp, err := p.Discover(ctx, core.DiscoverRequest{Query: q, QueryColumn: *col, Methods: ms, K: *k})
	if err != nil {
		return err
	}
	if len(ms) == 0 {
		ms = core.DefaultMethods
	}
	for _, method := range ms {
		fmt.Printf("-- %s --\n", method)
		for i, r := range resp.PerMethod[method] {
			fmt.Printf("%2d. %-30s score=%.3f\n", i+1, r.Table.Name, r.Score)
		}
	}
	names := make([]string, len(resp.IntegrationSet))
	for i, t := range resp.IntegrationSet {
		names[i] = t.Name
	}
	fmt.Printf("integration set: %s\n", strings.Join(names, ", "))
	return nil
}

func cmdIntegrate(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("integrate", flag.ExitOnError)
	lakeDir := fs.String("lake", "", "directory of lake CSVs")
	tables := fs.String("tables", "", "comma-separated lake table names")
	op := fs.String("op", "alite-fd", "integration operator")
	prov := fs.Bool("prov", false, "include the TIDs provenance column")
	out := fs.String("out", "", "write the integrated table to this CSV path")
	synthKB := fs.Bool("synth", false, "synthesize a KB from the lake")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := newPipeline(*lakeDir, *synthKB, 0)
	if err != nil {
		return err
	}
	names := splitCommaList(*tables)
	if len(names) == 0 {
		return fmt.Errorf("-tables is required")
	}
	got, err := p.Lake().FetchTables(ctx, names)
	if err != nil {
		return err
	}
	var set []*table.Table
	for _, name := range names {
		t, ok := got[name]
		if !ok {
			return fmt.Errorf("table %q not in lake", name)
		}
		set = append(set, t)
	}
	resp, err := p.Integrate(ctx, core.IntegrateRequest{Tables: set, Operator: *op, WithProvenance: *prov})
	if err != nil {
		return err
	}
	fmt.Println(resp.Table)
	if *out != "" {
		return resp.Table.WriteCSVFile(*out)
	}
	return nil
}

func cmdPipeline(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("pipeline", flag.ExitOnError)
	lakeDir := fs.String("lake", "", "directory of lake CSVs")
	queryPath := fs.String("query", "", "query table CSV")
	col := fs.Int("col", 0, "intent/query column index")
	op := fs.String("op", "alite-fd", "integration operator")
	prov := fs.Bool("prov", false, "include the TIDs provenance column")
	synthKB := fs.Bool("synth", false, "synthesize a KB from the lake")
	out := fs.String("out", "", "write the integrated table to this CSV path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := newPipeline(*lakeDir, *synthKB, 0)
	if err != nil {
		return err
	}
	q, err := table.ReadCSVFile(*queryPath)
	if err != nil {
		return err
	}
	res, err := p.Run(ctx, core.RunRequest{Query: q, QueryColumn: *col, Operator: *op, WithProvenance: *prov})
	if err != nil {
		return err
	}
	names := make([]string, len(res.Discovery.IntegrationSet))
	for i, t := range res.Discovery.IntegrationSet {
		names[i] = t.Name
	}
	fmt.Printf("integration set: %s\n\n", strings.Join(names, ", "))
	fmt.Println(res.Integration.Table)
	if *out != "" {
		return res.Integration.Table.WriteCSVFile(*out)
	}
	return nil
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	tablePath := fs.String("table", "", "table CSV to analyze")
	corr := fs.String("corr", "", "colA,colB: Pearson correlation by header name")
	groupby := fs.String("groupby", "", "key,val,agg: group-by aggregate (agg: count,sum,avg,min,max)")
	profile := fs.Bool("profile", false, "print per-column profile")
	if err := fs.Parse(args); err != nil {
		return err
	}
	t, err := table.ReadCSVFile(*tablePath)
	if err != nil {
		return err
	}
	if *profile {
		fmt.Println(analyze.Profile(t))
	}
	if *corr != "" {
		parts := strings.SplitN(*corr, ",", 2)
		if len(parts) != 2 {
			return fmt.Errorf("-corr wants colA,colB")
		}
		a, err := columnByName(t, parts[0])
		if err != nil {
			return err
		}
		b, err := columnByName(t, parts[1])
		if err != nil {
			return err
		}
		r, n, err := analyze.Pearson(t, a, b)
		if err != nil {
			return err
		}
		fmt.Printf("pearson(%s, %s) = %.4f over %d pairs\n", parts[0], parts[1], r, n)
	}
	if *groupby != "" {
		parts := strings.Split(*groupby, ",")
		if len(parts) != 3 {
			return fmt.Errorf("-groupby wants key,val,agg")
		}
		key, err := columnByName(t, parts[0])
		if err != nil {
			return err
		}
		val, err := columnByName(t, parts[1])
		if err != nil {
			return err
		}
		agg, err := parseAgg(parts[2])
		if err != nil {
			return err
		}
		out, err := analyze.GroupBy(t, key, val, agg)
		if err != nil {
			return err
		}
		fmt.Println(out)
	}
	return nil
}

func cmdResolve(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("resolve", flag.ExitOnError)
	tablePath := fs.String("table", "", "table CSV to resolve")
	threshold := fs.Float64("threshold", 0, "match threshold (default 0.6)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	t, err := table.ReadCSVFile(*tablePath)
	if err != nil {
		return err
	}
	res, err := er.Resolve(ctx, t, er.Options{Knowledge: kb.Demo(), Threshold: *threshold})
	if err != nil {
		return err
	}
	fmt.Printf("%d rows -> %d entities\n\n", t.NumRows(), len(res.Clusters))
	fmt.Println(res.Resolved)
	return nil
}

func cmdGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	prompt := fs.String("prompt", "", "free-text prompt (picks a domain template)")
	rows := fs.Int("rows", 5, "rows to generate")
	cols := fs.Int("cols", 5, "columns to generate")
	seed := fs.Int64("seed", 1, "generation seed")
	out := fs.String("out", "", "write the generated table to this CSV path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	p, err := core.New(nil, core.Config{})
	if err != nil {
		return err
	}
	q, err := p.GenerateQueryTable(*prompt, *rows, *cols, *seed)
	if err != nil {
		return err
	}
	fmt.Println(q)
	if *out != "" {
		return q.WriteCSVFile(*out)
	}
	return nil
}

func columnByName(t *table.Table, name string) (int, error) {
	name = strings.TrimSpace(name)
	if i, ok := t.ColumnIndex(name); ok {
		return i, nil
	}
	if i, err := strconv.Atoi(name); err == nil && i >= 0 && i < t.NumCols() {
		return i, nil
	}
	return 0, fmt.Errorf("no column %q in %q (have %v)", name, t.Name, t.Columns)
}

func parseAgg(s string) (analyze.Agg, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "count":
		return analyze.Count, nil
	case "sum":
		return analyze.Sum, nil
	case "avg":
		return analyze.Avg, nil
	case "min":
		return analyze.Min, nil
	case "max":
		return analyze.Max, nil
	default:
		return 0, fmt.Errorf("unknown aggregate %q", s)
	}
}
