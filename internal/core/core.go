// Package core implements the DIALITE pipeline — the paper's primary
// contribution (Fig. 1): Discover related tables in a data lake, Align &
// Integrate them with ALITE's holistic matching and Full Disjunction, and
// Analyze the integrated table with downstream applications. Every stage
// is pluggable: discoverers and integration operators live in registries
// users can extend (paper §3.2), and intermediate results are returned so
// users can validate each step, as the demo does.
package core

import (
	"context"
	"fmt"

	"repro/internal/analyze"
	"repro/internal/discovery"
	"repro/internal/er"
	"repro/internal/fd"
	"repro/internal/integrate"
	"repro/internal/kb"
	"repro/internal/lake"
	"repro/internal/schemamatch"
	"repro/internal/synth"
	"repro/internal/table"
)

// Config configures a Pipeline.
type Config struct {
	// Knowledge is the curated knowledge base (kb.Demo() in the demo);
	// nil means none.
	Knowledge *kb.KB
	// SynthesizeKB merges a lake-synthesized KB into Knowledge.
	SynthesizeKB bool
	// Shards splits the catalog across this many shard lakes (lake.Sharded):
	// private per-shard interners and indexes, hash-routed mutations,
	// scatter-gather discovery with byte-identical rankings. 0 or 1 builds
	// the usual single lake.
	Shards int
}

// Pipeline is a DIALITE instance bound to one data lake — a single
// lake.Lake or a lake.Sharded composite behind the lake.Catalog interface;
// every stage works identically against either.
type Pipeline struct {
	lake        lake.Catalog
	discoverers *discovery.Registry
	operators   *integrate.Registry
}

// New preprocesses the lake tables and returns a pipeline with the
// built-in discoverers and operators registered. cfg.Shards > 1 builds a
// sharded catalog.
func New(tables []*table.Table, cfg Config) (*Pipeline, error) {
	lopts := lake.Options{Knowledge: cfg.Knowledge, SynthesizeKB: cfg.SynthesizeKB}
	var (
		c   lake.Catalog
		err error
	)
	if cfg.Shards > 1 {
		c, err = lake.NewSharded(tables, cfg.Shards, lopts)
	} else {
		c, err = lake.New(tables, lopts)
	}
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return FromCatalog(c), nil
}

// FromCatalog wraps an already-built catalog (a *lake.Lake or a
// *lake.Sharded) with the built-in discoverers and operators.
func FromCatalog(c lake.Catalog) *Pipeline {
	return &Pipeline{
		lake:        c,
		discoverers: discovery.NewRegistry(),
		operators:   integrate.NewRegistry(),
	}
}

// FromLake wraps an already-built lake — typically one recovered from a
// persisted snapshot + WAL — with the built-in discoverers and operators.
func FromLake(l *lake.Lake) *Pipeline { return FromCatalog(l) }

// FromDir loads a CSV directory as the lake and builds the pipeline.
// cfg.Shards > 1 shards the loaded tables.
func FromDir(dir string, cfg Config) (*Pipeline, error) {
	tables, err := table.LoadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("core: lake: %w", err)
	}
	if len(tables) == 0 {
		return nil, fmt.Errorf("core: lake: no CSV tables in %s", dir)
	}
	return New(tables, cfg)
}

// Lake exposes the preprocessed catalog — a *lake.Lake, or a *lake.Sharded
// when the pipeline was built with Config.Shards > 1 (type-assert for
// concrete-type APIs such as persistence). The catalog is mutable:
// AddTables and RemoveTables maintain the discovery indexes incrementally,
// and discovery queries may run concurrently with mutations.
func (p *Pipeline) Lake() lake.Catalog { return p.lake }

// AddTables incrementally indexes additional tables into the pipeline's
// lake — all three discovery indexes absorb the delta without a rebuild,
// and in-flight Discover calls keep running (lake.Lake.Add documents the
// concurrency contract and KB semantics).
func (p *Pipeline) AddTables(tables ...*table.Table) error {
	if err := p.lake.Add(tables...); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// RemoveTables drops the named tables from the pipeline's lake and its
// discovery indexes (lake.Lake.Remove documents the contract).
func (p *Pipeline) RemoveTables(names ...string) error {
	if err := p.lake.Remove(names...); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// Discoverers exposes the discovery registry for user extensions (Fig. 4).
func (p *Pipeline) Discoverers() *discovery.Registry { return p.discoverers }

// Operators exposes the integration-operator registry (Fig. 6).
func (p *Pipeline) Operators() *integrate.Registry { return p.operators }

// GenerateQueryTable fabricates a query table from a prompt (Fig. 5's
// GPT-3 substitute).
func (p *Pipeline) GenerateQueryTable(prompt string, rows, cols int, seed int64) (*table.Table, error) {
	return synth.GenerateQueryTable(prompt, rows, cols, seed)
}

// DefaultMethods are the discovery methods the demo runs when the user
// does not choose: SANTOS for unionable search, LSH Ensemble for joinable
// search.
var DefaultMethods = []string{"santos-union", "lsh-join"}

// DiscoverRequest configures the discovery stage.
type DiscoverRequest struct {
	// Query is the query table Q.
	Query *table.Table
	// QueryColumn is the intent/query column index within Q.
	QueryColumn int
	// Methods names the discoverers to run; nil runs DefaultMethods.
	Methods []string
	// K bounds each method's result list; 0 means 10.
	K int
}

// DiscoverResponse is the discovery stage's output: per-method rankings,
// the integration set, the partial marker and the epoch vector the answer
// holds under (see discovery.Answer).
type DiscoverResponse = discovery.Answer

// Discover runs stage 1. The configured discoverers fan out concurrently
// (discovery.RunAll), so a multi-method query costs as much as its slowest
// method; the merged response is deterministic and identical to running the
// methods one by one. Cancelling ctx aborts the fan-out — workers stop at
// their next checkpoint, none leak — and Discover returns ctx.Err().
//
// The request is validated up front: a nil query, a negative K, or a
// QueryColumn outside the query table's columns is rejected with a
// descriptive error before any discoverer runs.
func (p *Pipeline) Discover(ctx context.Context, req DiscoverRequest) (*DiscoverResponse, error) {
	if req.Query == nil {
		return nil, fmt.Errorf("core: discover: nil query table")
	}
	if req.K < 0 {
		return nil, fmt.Errorf("core: discover: negative K %d (0 means the default of 10)", req.K)
	}
	if req.QueryColumn < 0 || req.QueryColumn >= req.Query.NumCols() {
		return nil, fmt.Errorf("core: discover: query column %d out of range for table %q with %d columns", req.QueryColumn, req.Query.Name, req.Query.NumCols())
	}
	methods := req.Methods
	if len(methods) == 0 {
		methods = DefaultMethods
	}
	k := req.K
	if k == 0 {
		k = 10
	}
	resp, err := discovery.DiscoverAnswer(ctx, p.discoverers, p.lake, req.Query, req.QueryColumn, k, methods)
	if err != nil {
		return nil, fmt.Errorf("core: discover: %w", err)
	}
	return resp, nil
}

// IntegrateRequest configures the align-and-integrate stage.
type IntegrateRequest struct {
	// Tables is the integration set (from Discover or user-provided — the
	// traditional integration scenario of §2.2).
	Tables []*table.Table
	// Operator names the integration operator; "" means "alite-fd".
	Operator string
	// Matcher overrides the schema matcher; nil uses holistic matching
	// with the pipeline's knowledge base.
	Matcher schemamatch.Matcher
	// RowIDs names source rows for provenance; nil uses "<table>:<row>".
	RowIDs integrate.RowIDFunc
	// WithProvenance adds the TIDs column to the integrated table.
	WithProvenance bool
}

// IntegrateResponse is the integration stage's output.
type IntegrateResponse struct {
	// Table is the integrated table.
	Table *table.Table
	// Tuples are the integrated tuples with provenance.
	Tuples []fd.Tuple
	// Operator echoes the operator used.
	Operator string
}

// Integrate runs stage 2. Cancelling ctx aborts the integration operator
// mid-run (the default FD operator polls it inside the complementation
// closure) and Integrate returns ctx.Err().
func (p *Pipeline) Integrate(ctx context.Context, req IntegrateRequest) (*IntegrateResponse, error) {
	if len(req.Tables) == 0 {
		return nil, fmt.Errorf("core: integrate: empty integration set")
	}
	opName := req.Operator
	if opName == "" {
		opName = "alite-fd"
	}
	op, ok := p.operators.Get(opName)
	if !ok {
		return nil, fmt.Errorf("core: integrate: unknown operator %q (have %v)", opName, p.operators.Names())
	}
	matcher := req.Matcher
	if matcher == nil {
		matcher = schemamatch.Holistic{Knowledge: p.lake.Knowledge()}
	}
	out, tuples, err := integrate.Apply(ctx, op, req.Tables, matcher, req.RowIDs, req.WithProvenance)
	if err != nil {
		return nil, fmt.Errorf("core: integrate: %w", err)
	}
	return &IntegrateResponse{Table: out, Tuples: tuples, Operator: opName}, nil
}

// Correlate computes the Pearson correlation between two columns of an
// integrated table, by header name (stage 3, Example 3). The computation is
// one linear pass; ctx is checked once at entry so an already-expired
// request deadline (the serving layer's timeout) fails fast.
func (p *Pipeline) Correlate(ctx context.Context, t *table.Table, colA, colB string) (float64, int, error) {
	if err := ctx.Err(); err != nil {
		return 0, 0, err
	}
	a, ok := t.ColumnIndex(colA)
	if !ok {
		return 0, 0, fmt.Errorf("core: analyze: no column %q in %q", colA, t.Name)
	}
	b, ok := t.ColumnIndex(colB)
	if !ok {
		return 0, 0, fmt.Errorf("core: analyze: no column %q in %q", colB, t.Name)
	}
	return analyze.Pearson(t, a, b)
}

// ResolveEntities runs entity resolution over an integrated table with the
// pipeline's knowledge base (stage 3, Example 5) unless opts names another.
// ctx is observed across the pair-comparison loop; a cancelled call returns
// ctx.Err() promptly. Resolution is request-scoped: er.Resolve caches
// canonicalizations for the call only, so resolving any number of
// unrelated user-supplied tables through one long-lived pipeline never
// grows the pipeline's memory.
func (p *Pipeline) ResolveEntities(ctx context.Context, t *table.Table, opts er.Options) (*er.Resolution, error) {
	if opts.Knowledge == nil {
		opts.Knowledge = p.lake.Knowledge()
	}
	return er.Resolve(ctx, t, opts)
}

// RunRequest configures an end-to-end pipeline run.
type RunRequest struct {
	Query          *table.Table
	QueryColumn    int
	Methods        []string
	K              int
	Operator       string
	WithProvenance bool
}

// RunResult bundles the stage outputs of an end-to-end run.
type RunResult struct {
	Discovery   *DiscoverResponse
	Integration *IntegrateResponse
}

// Run executes discover then integrate (Fig. 1 end to end). Analysis is
// left to the caller, who picks the downstream application. ctx flows
// through both stages; cancellation aborts whichever stage is running.
func (p *Pipeline) Run(ctx context.Context, req RunRequest) (*RunResult, error) {
	disc, err := p.Discover(ctx, DiscoverRequest{
		Query:       req.Query,
		QueryColumn: req.QueryColumn,
		Methods:     req.Methods,
		K:           req.K,
	})
	if err != nil {
		return nil, err
	}
	integ, err := p.Integrate(ctx, IntegrateRequest{
		Tables:         disc.IntegrationSet,
		Operator:       req.Operator,
		WithProvenance: req.WithProvenance,
	})
	if err != nil {
		return nil, err
	}
	return &RunResult{Discovery: disc, Integration: integ}, nil
}
