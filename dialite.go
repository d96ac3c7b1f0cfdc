// Package dialite is a Go implementation of DIALITE (Khatiwada, Shraga,
// Miller — SIGMOD 2023): a pipeline that lets users Discover open-data
// tables related to a query table, Align & Integrate them with ALITE's
// holistic schema matching and Full Disjunction, and Analyze the
// integrated result with downstream applications (aggregation, correlation
// and entity resolution).
//
// The package is a façade over the implementation packages under
// internal/: it re-exports the table engine, the pipeline, the extension
// points (user-defined discoverers and integration operators), the HTTP
// serving layer and the synthetic-data generators, so a downstream user
// imports only this package.
//
// The API is context-first: every pipeline stage takes a context.Context
// and observes it cooperatively, so callers can bound, cancel or deadline
// any stage — the FD closure, the index scans, the ER pair loop all abort
// at their next checkpoint and return ctx.Err(). An uncancelled context
// costs nothing and changes nothing.
//
// Quickstart:
//
//	ctx := context.Background()                 // or a per-request context
//	lake := []*dialite.Table{ ... }             // or dialite.LoadDir(dir)
//	p, err := dialite.New(lake, dialite.Config{Knowledge: dialite.DemoKB()})
//	res, err := p.Run(ctx, dialite.RunRequest{Query: q, QueryColumn: 1})
//	r, n, err := p.Correlate(ctx, res.Integration.Table, "Vaccination Rate", "Death Rate")
//
// With a deadline instead:
//
//	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
//	defer cancel()
//	res, err := p.Run(ctx, dialite.RunRequest{Query: q, QueryColumn: 1})
//	// err == context.DeadlineExceeded if the budget ran out mid-stage
//
// The lake is mutable (p.AddTables / p.RemoveTables maintain every
// discovery index incrementally) and queries run concurrently with
// mutations, which is what makes the pipeline servable. To serve it:
//
//	srv := dialite.NewServer(p, dialite.ServeConfig{Timeout: 10 * time.Second})
//	err = srv.ListenAndServe(ctx, ":8080")      // graceful shutdown on ctx cancel
//
// or, from a CSV directory, `dialite serve -lake DIR -addr :8080`
// (`-shards N` partitions the catalog across N shard lakes with
// scatter-gather discovery and identical answers — see SHARDING.md). The
// server exposes JSON endpoints for every stage (POST /v1/discover,
// /v1/integrate, /v1/pipeline, /v1/correlate, /v1/resolve) and for lake
// mutation (POST /v1/lake/add, /v1/lake/remove, GET /v1/lake), each request
// running under its own timeout with request-scoped entity resolution (see
// examples/serve for a round trip).
//
// The server is hardened for heavy traffic: bounded per-class admission
// control sheds excess load with structured 429/503 + Retry-After before
// any pipeline work runs, request bodies are capped (413), a persist-store
// write failure degrades to read-only serving rather than cascading, and
// GET /metrics publishes per-endpoint counters and latency quantiles
// (Prometheus text, or ?format=json as []MetricsSnapshot). Semantics,
// tuning flags and the metrics reference are documented in SERVING.md.
package dialite

import (
	"context"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/kb"
	"repro/internal/lake"
	"repro/internal/serve"
	"repro/internal/table"
)

// Core pipeline types, re-exported.
type (
	// Pipeline is a DIALITE instance bound to one data lake.
	Pipeline = core.Pipeline
	// Config configures pipeline construction.
	Config = core.Config
	// DiscoverRequest configures the discovery stage.
	DiscoverRequest = core.DiscoverRequest
	// DiscoverResponse is the discovery stage output.
	DiscoverResponse = core.DiscoverResponse
	// IntegrateRequest configures the align-and-integrate stage.
	IntegrateRequest = core.IntegrateRequest
	// IntegrateResponse is the integration stage output.
	IntegrateResponse = core.IntegrateResponse
	// RunRequest configures an end-to-end run.
	RunRequest = core.RunRequest
	// RunResult bundles the stage outputs of an end-to-end run.
	RunResult = core.RunResult
	// Lake is a preprocessed table repository.
	Lake = lake.Lake
	// ShardedLake partitions the catalog across shard lakes with private
	// per-shard indexes, hash-routed mutations, and scatter-gather
	// discovery whose rankings are byte-identical to an unsharded Lake
	// (set Config.Shards > 1, see SHARDING.md).
	ShardedLake = lake.Sharded
	// LakeCatalog is the catalog interface both Lake and ShardedLake
	// satisfy; Pipeline.Lake returns it.
	LakeCatalog = lake.Catalog
	// LakeIndexOptions tunes lake preprocessing.
	LakeIndexOptions = lake.Options
	// KB is a knowledge base (semantic types, aliases, relationships).
	KB = kb.KB
)

// New preprocesses the lake tables and returns a DIALITE pipeline.
func New(tables []*Table, cfg Config) (*Pipeline, error) { return core.New(tables, cfg) }

// FromDir loads every CSV file in dir as the data lake and returns a
// pipeline over it.
func FromDir(dir string, cfg Config) (*Pipeline, error) { return core.FromDir(dir, cfg) }

// DefaultMethods are the discovery methods used when a request names none:
// SANTOS unionable search and LSH Ensemble joinable search.
var DefaultMethods = core.DefaultMethods

// Serving layer, re-exported.
type (
	// Server serves one pipeline over HTTP (see package-level quickstart).
	Server = serve.Server
	// ServeConfig tunes the server (per-request timeout, body limit,
	// admission capacity and queue-wait budget).
	ServeConfig = serve.Config
	// TableJSON is the wire form of a table on the serve endpoints.
	TableJSON = serve.TableJSON
	// MetricsSnapshot is one endpoint's point-in-time serving metrics — the
	// element type of Server.MetricsSnapshot and GET /metrics?format=json.
	MetricsSnapshot = serve.EndpointMetrics
	// ServerLoad aggregates the per-endpoint counters, as surfaced on
	// /healthz.
	ServerLoad = serve.LoadSummary
)

// NewServer builds an HTTP server over a constructed pipeline. Mount
// srv.Handler() on your own http.Server, or srv.ListenAndServe(ctx, addr)
// to serve with graceful shutdown when ctx is cancelled.
func NewServer(p *Pipeline, cfg ServeConfig) *Server { return serve.New(p, cfg) }

// EncodeTableJSON converts a table to the serve endpoints' wire form — what
// a client posts as a query or inline integration member. It boxes
// nothing: the result's Rows stays nil, and marshalling it (encoding/json)
// writes the cells straight from t. Rows is filled when a client decodes
// a response.
func EncodeTableJSON(t *Table) TableJSON { return serve.EncodeTable(t) }

// Cluster mode (shard-per-process over HTTP), re-exported.
type (
	// Coordinator is a lake catalog whose shards are remote dialite serve
	// processes: hash-routed mutations, scatter-gather discovery with
	// rankings byte-identical to an in-process ShardedLake, and explicit
	// partial-result degradation when shards are down (see SHARDING.md,
	// "Cluster mode").
	Coordinator = cluster.Coordinator
	// ClusterConfig configures a Coordinator (shard addresses, call
	// deadlines, retry policy).
	ClusterConfig = cluster.Config
	// ClusterManifest is the coordinator-side placement record pinning
	// the shard count across restarts.
	ClusterManifest = cluster.Manifest
	// ShardHealth is one shard's entry in a coordinator health report.
	ShardHealth = serve.ShardHealth
)

// NewCoordinator connects to the shard servers and returns a coordinator
// catalog over them; pass it to NewPipelineFromCatalog (or run `dialite
// serve -coordinator`).
func NewCoordinator(cfg ClusterConfig) (*Coordinator, error) { return cluster.New(cfg) }

// NewPipelineFromCatalog builds a pipeline over an already-constructed
// catalog (a ShardedLake or a cluster Coordinator).
func NewPipelineFromCatalog(c LakeCatalog) *Pipeline { return core.FromCatalog(c) }

// ProbeClusterShards health-checks shard servers without building a
// coordinator — what `dialite shardctl` runs.
func ProbeClusterShards(ctx context.Context, addrs []string, timeout time.Duration) ([]serve.ShardHealth, error) {
	return cluster.ProbeShards(ctx, addrs, timeout)
}

// ReconcileClusterManifest loads (or first-boot writes) a cluster persist
// directory's placement manifest and checks it against the given shard
// addresses.
func ReconcileClusterManifest(dir string, addrs []string) (*ClusterManifest, error) {
	return cluster.ReconcileManifest(dir, addrs)
}

// NewKB returns an empty knowledge base.
func NewKB() *KB { return kb.New() }

// DemoKB returns the curated demonstration knowledge base (world cities
// and countries, COVID-19 vaccines, regulatory agencies, and the aliases
// the paper's examples depend on).
func DemoKB() *KB { return kb.Demo() }

// SynthesizeKB builds a knowledge base from the lake tables themselves
// (SANTOS's synthesized KB), for domains without curated coverage.
func SynthesizeKB(tables []*Table) *KB {
	return kb.Synthesize(tables, kb.SynthesizeOptions{})
}

// tableAlias keeps the Table alias near its constructors in tables.go.
type tableAlias = table.Table
