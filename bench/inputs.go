package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/table"
)

// scale sizes the lake and the traffic. Op counts are rate × --seconds: the
// rates are what the seed commit sustained on the 2-core box the benchmark
// was written on, so a run measures about --seconds of work there, and both
// sides of a comparison do identical work whatever their speed.
type scale struct {
	lake      synth.LakeOptions
	queryRows int // rows sampled into a foreign query
	zipfPool  int // distinct queries behind discover-zipf and cluster-fanout
	churnPool int // distinct reader queries on churn-mixed
	removeLag int // a churn table is removed this many mutations after its add

	discoverRate float64 // requests/s, 2 clients
	sessionRate  float64 // sessions/s, 2 clients
	clusterRate  float64 // requests/s through the coordinator, 2 clients
	mutationRate float64 // mutations/s, the open-loop writer's schedule
}

var (
	fullScale = scale{
		lake:      synth.LakeOptions{Families: 60, TablesPerFamily: 6, RowsPerTable: 120, JoinablePerFamily: 2, NoiseTables: 60},
		queryRows: 60, zipfPool: 256, churnPool: 2000, removeLag: 50,
		discoverRate: 2600, sessionRate: 45, clusterRate: 200, mutationRate: 40,
	}
	smokeScale = scale{
		lake:      synth.LakeOptions{Families: 5, TablesPerFamily: 4, RowsPerTable: 30, JoinablePerFamily: 2, NoiseTables: 10},
		queryRows: 15, zipfPool: 32, churnPool: 40, removeLag: 6,
		discoverRate: 600, sessionRate: 40, clusterRate: 200, mutationRate: 40,
	}
)

const (
	zipfS       = 1.1
	oovShare    = 0.10 // out-of-vocabulary key values in a foreign query
	freshShare  = 0.20 // fresh key values in a churn clone
	discoverK   = 10
	pipelineK   = 5
	shardCount  = 3
	clientCount = 2 // nproc is 2: never more client goroutines than this
)

var discoverMethods = []string{"santos-union", "lsh-join", "josie-join"}

// query is one distinct request of a workload.
type query struct {
	name    string   // query table name
	source  string   // the family partition it is, or was sampled from
	foreign bool     // sent under a name the lake does not hold
	keys    []string // its key-column values
	body    []byte   // the pre-encoded request
	sum     [sha256.Size]byte

	// Filled by the dry run, before anything is timed.
	expect []byte  // the response the server must keep giving
	recall float64 // share of ground-truth partners in its integration set
}

// inputs is everything generated from the seed.
type inputs struct {
	sc         scale
	lake       *synth.Lake
	partitions []*table.Table // family<N>_part<M> tables, by name
}

func generateLake(sc scale, seed int64) *inputs {
	opts := sc.lake
	opts.Seed = seed
	in := &inputs{sc: sc, lake: synth.GenerateLake(opts)}
	for _, t := range in.lake.Tables {
		if in.lake.Truth.FamilyOf[t.Name] >= 0 {
			in.partitions = append(in.partitions, t)
		}
	}
	return in
}

// foreignQuery samples rows of a partition into a table the lake does not
// hold; a share of its key values is out of the lake's vocabulary.
func (in *inputs) foreignQuery(rng *rand.Rand, src *table.Table, name string) *table.Table {
	keyCol := in.lake.Truth.KeyColumn[src.Name]
	q := table.New(name, src.Columns...)
	rows := min(in.sc.queryRows, src.NumRows())
	for i, r := range rng.Perm(src.NumRows())[:rows] {
		row := append([]table.Value(nil), src.Rows[r]...)
		if rng.Float64() < oovShare {
			row[keyCol] = table.StringValue(fmt.Sprintf("Oov %s %d", name, i))
		}
		q.Rows = append(q.Rows, row)
	}
	return q
}

// churnClone copies a partition under a new name with a share of fresh keys.
func (in *inputs) churnClone(rng *rand.Rand, src *table.Table, name string) *table.Table {
	keyCol := in.lake.Truth.KeyColumn[src.Name]
	c := src.Clone()
	c.Name = name
	for i, row := range c.Rows {
		if rng.Float64() < freshShare {
			row[keyCol] = table.StringValue(fmt.Sprintf("Fresh %s %d", name, i))
		}
	}
	return c
}

func mustJSON(v any) []byte {
	buf := &bytes.Buffer{}
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		panic(fmt.Sprintf("bench: encoding a generated request: %v", err))
	}
	return buf.Bytes()
}

func (in *inputs) newQuery(t *table.Table, source string, foreign bool, encode func(serve.TableJSON, int) any) *query {
	keyCol := in.lake.Truth.KeyColumn[source]
	q := &query{name: t.Name, source: source, foreign: foreign}
	for _, row := range t.Rows {
		q.keys = append(q.keys, row[keyCol].Str())
	}
	q.body = mustJSON(encode(serve.EncodeTable(t), keyCol))
	q.sum = sha256.Sum256(q.body)
	return q
}

func discoverBody(tj serve.TableJSON, keyCol int) any {
	return serve.DiscoverRequest{Query: tj, QueryColumn: keyCol, Methods: discoverMethods, K: discoverK}
}

func pipelineBody(tj serve.TableJSON, keyCol int) any {
	return serve.PipelineRequest{Query: tj, QueryColumn: keyCol, K: pipelineK, Operator: "alite-fd"}
}

// zipfPool builds the distinct queries of discover-zipf and cluster-fanout
// in rank order: even ranks are lake tables sent under their own name, odd
// ranks are foreign samples, so the Zipf mass splits between the two halves.
func (in *inputs) zipfPool(seed int64) []*query {
	rng := rand.New(rand.NewSource(seed ^ 0x51a7))
	n := min(in.sc.zipfPool, 2*len(in.partitions))
	perm := rng.Perm(len(in.partitions))
	pool := make([]*query, n)
	for rank := range pool {
		src := in.partitions[perm[rank/2]]
		if rank%2 == 0 {
			pool[rank] = in.newQuery(src, src.Name, false, discoverBody)
		} else {
			t := in.foreignQuery(rng, src, fmt.Sprintf("zq%03d_%s", rank, src.Name))
			pool[rank] = in.newQuery(t, src.Name, true, discoverBody)
		}
	}
	return pool
}

// zipfDraws draws n ranks below pool from Zipf(s).
func zipfDraws(seed int64, pool, n int) []int {
	rng := rand.New(rand.NewSource(seed ^ 0x2d1f))
	z := rand.NewZipf(rng, zipfS, 1, uint64(pool-1))
	out := make([]int, n)
	for i := range out {
		out[i] = int(z.Uint64())
	}
	return out
}

// sessionPool builds one foreign pipeline query per family.
func (in *inputs) sessionPool(seed int64) []*query {
	rng := rand.New(rand.NewSource(seed ^ 0x5e55))
	byFamily := map[int][]*table.Table{}
	for _, t := range in.partitions {
		f := in.lake.Truth.FamilyOf[t.Name]
		byFamily[f] = append(byFamily[f], t)
	}
	pool := make([]*query, 0, len(byFamily))
	for f := 0; f < len(byFamily); f++ {
		src := byFamily[f][rng.Intn(len(byFamily[f]))]
		t := in.foreignQuery(rng, src, fmt.Sprintf("sq%03d_%s", f, src.Name))
		pool = append(pool, in.newQuery(t, src.Name, true, pipelineBody))
	}
	return pool
}

func uniformDraws(seed int64, pool, n int) []int {
	rng := rand.New(rand.NewSource(seed ^ 0x0a11))
	out := make([]int, n)
	for i := range out {
		out[i] = rng.Intn(pool)
	}
	return out
}

// churnPool builds the reader's distinct foreign queries; the reader walks
// them in order, so none repeats within a pool's length of requests.
func (in *inputs) churnPool(seed int64) []*query {
	rng := rand.New(rand.NewSource(seed ^ 0xc4a2))
	pool := make([]*query, in.sc.churnPool)
	for i := range pool {
		src := in.partitions[rng.Intn(len(in.partitions))]
		t := in.foreignQuery(rng, src, fmt.Sprintf("cq%04d_%s", i, src.Name))
		pool[i] = in.newQuery(t, src.Name, true, discoverBody)
	}
	return pool
}

// mutation is one step of the churn writer's schedule.
type mutation struct {
	add  bool
	name string
	body []byte
}

// churnSchedule alternates adds and removes; a remove drops the table added
// removeLag mutations earlier, so until the lag has passed every step adds.
func (in *inputs) churnSchedule(seed int64, n int) []mutation {
	rng := rand.New(rand.NewSource(seed ^ 0x3c7d))
	out := make([]mutation, n)
	lag := in.sc.removeLag + 1 - in.sc.removeLag%2 // odd, so a remove step meets an add step
	for j := range out {
		if j%2 == 1 && j >= lag {
			name := out[j-lag].name
			out[j] = mutation{name: name, body: mustJSON(serve.LakeRemoveRequest{Names: []string{name}})}
			continue
		}
		src := in.partitions[rng.Intn(len(in.partitions))]
		name := fmt.Sprintf("churn%05d_%s", j, src.Name)
		c := in.churnClone(rng, src, name)
		out[j] = mutation{add: true, name: name, body: mustJSON(serve.LakeAddRequest{Tables: []serve.TableJSON{serve.EncodeTable(c)}})}
	}
	return out
}

// streamHash identifies a request stream: the digests of the bodies in the
// order they are sent.
func streamHash(pool []*query, draws []int) string {
	h := sha256.New()
	for _, d := range draws {
		h.Write(pool[d].sum[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// partners is the ground truth a query's integration set is scored against:
// the unionable and joinable partners of its source partition, plus the
// partition itself when the query is a foreign sample of it.
func (in *inputs) partners(q *query) []string {
	p := append([]string(nil), in.lake.Truth.UnionableWith[q.source]...)
	p = append(p, in.lake.Truth.JoinableWith[q.source]...)
	if q.foreign {
		p = append(p, q.source)
	}
	sort.Strings(p)
	return p
}

func (in *inputs) recall(q *query, integrationSet []string) float64 {
	got := map[string]bool{}
	for _, n := range integrationSet {
		got[n] = true
	}
	want := in.partners(q)
	found := 0
	for _, n := range want {
		if got[n] {
			found++
		}
	}
	return float64(found) / float64(len(want))
}

// decodeDiscover and decodePipeline read a pre-encoded body the way the
// server does (json.Number cells), so a direct pipeline call sees the table
// the server sees — an integral float arrives as an Int.
func decodeBody(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

func decodeDiscover(body []byte) (core.DiscoverRequest, error) {
	var req serve.DiscoverRequest
	if err := decodeBody(body, &req); err != nil {
		return core.DiscoverRequest{}, err
	}
	t, err := req.Query.DecodeTable()
	return core.DiscoverRequest{Query: t, QueryColumn: req.QueryColumn, Methods: req.Methods, K: req.K}, err
}

func decodePipeline(body []byte) (core.RunRequest, error) {
	var req serve.PipelineRequest
	if err := decodeBody(body, &req); err != nil {
		return core.RunRequest{}, err
	}
	t, err := req.Query.DecodeTable()
	return core.RunRequest{Query: t, QueryColumn: req.QueryColumn, Methods: req.Methods, K: req.K, Operator: req.Operator}, err
}
