// Command bench is the repository's benchmark: four named traffic shapes
// against a real serve.Server on loopback listeners in this process, over
// one seeded synthetic lake. See README.md for the workloads, the metrics
// and how the layers map onto them.
//
//	bash bench/run.sh --workload discover-zipf --seed 1 --seconds 8 --trace 0
//	bash bench/run.sh                      # every workload, untraced then traced
//	bash bench/run.sh compare A.jsonl B.jsonl
//	bash bench/run.sh manifest             # prints BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	smoke    bool
	out      string // result, trace and persist files
	record   string // JSON-lines file run records are appended to
}

func (c config) scale() scale {
	if c.smoke {
		return smokeScale
	}
	return fullScale
}

// perRound turns a nominal rate into the fixed op count of one round.
func (c config) perRound(rate float64) int {
	return max(4, int(rate*c.seconds/rounds))
}

// result is one run of one workload.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Traced    bool             `json:"traced"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Stream    string           `json:"request_stream_sha256"`
	Notes     []string         `json:"notes,omitempty"`
	Metrics   map[string]value `json:"metrics"`
}

// env is what a workload's measure and trace functions work with.
type env struct {
	cfg config
	in  *inputs
	d   *deployment
	m   *metricSet
	res *result
}

type workload struct {
	name string
	// boot builds and starts the program under test; dir is scratch space.
	boot func(in *inputs, splitKB bool, dir string) (*deployment, error)
	// measure is the untraced run: it fills the end-to-end metrics.
	measure func(e *env) error
	// trace is the traced run: it fills the per-layer metrics and returns
	// the spans.
	trace func(e *env) (*tracer, error)
}

func workloadByName(name string) (workload, bool) {
	for _, w := range []workload{zipfWorkload, sessionWorkload, churnWorkload, clusterWorkload} {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// run executes one workload once.
func run(cfg config) (*result, error) {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(cfg.out, "run-")
	if err != nil {
		return nil, err
	}
	defer removeAll(scratch)

	in := generateLake(cfg.scale(), cfg.seed)
	res := &result{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced}
	e := &env{cfg: cfg, in: in, m: newMetricSet(cfg.traced), res: res}

	// Set-up is lake build + KB synthesis + listen (+ persist.Create, + shard
	// and coordinator boot); generating the lake tables above and the
	// requests below is not part of it. An untraced run sets up several times
	// and reports the median; the last deployment is the one measured.
	n := setups
	if cfg.traced {
		n = 1
	}
	var setupS []float64
	for i := 0; i < n; i++ {
		if e.d != nil {
			e.d.stop()
			e.d = nil
		}
		t0 := time.Now()
		d, err := w.boot(in, cfg.traced, filepath.Join(scratch, fmt.Sprintf("boot%d", i)))
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		e.d = d
	}
	defer func() { e.d.stop() }()
	heap := heapMB()

	var tr *tracer
	if cfg.traced {
		e.layerBuildMetrics(heap)
		tr, err = w.trace(e)
		e.m.set("failed_ratio", float64(res.Failed)/float64(max(1, res.Attempted)), res.Attempted)
	} else {
		e.m.setFrom("setup_s", median(setupS), setupS, n)
		e.m.set("heap_mb", heap, 1)
		err = w.measure(e)
	}
	if err != nil {
		return nil, err
	}
	if missing := e.m.missing(); len(missing) > 0 {
		return nil, fmt.Errorf("workload %s did not emit %v", cfg.workload, missing)
	}
	res.Correct = res.Failed == 0
	res.Metrics = e.m.vals
	if cfg.traced {
		if err := tr.write(filepath.Join(cfg.out, "trace-"+cfg.workload+".json"), res); err != nil {
			return nil, err
		}
	} else if err := writeJSONFile(filepath.Join(cfg.out, "result-"+cfg.workload+".json"), res); err != nil {
		return nil, err
	}
	if cfg.record != "" {
		if err := appendRecord(cfg.record, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// layerBuildMetrics records the set-up layers of a traced run.
func (e *env) layerBuildMetrics(heap float64) {
	st := e.d.buildStats()
	e.m.set("santos.build_s", st.Santos.Seconds(), 1)
	e.m.set("lshensemble.build_s", st.LSH.Seconds(), 1)
	e.m.set("josie.build_s", st.Josie.Seconds(), 1)
	e.m.set("lake.extract_s", st.DomainExtraction.Seconds(), 1)
	e.m.set("kb.synthesize_s", e.d.kbSynthesize.Seconds(), 1)
	e.m.set("kb.compile_ms", ms(e.d.kbCompile), 1)
	e.m.set("lake.heap_kb_per_table", heap*1024/float64(len(e.in.lake.Tables)), 1)
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func appendRecord(path string, res *result) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	b, err := json.Marshal(res)
	if err == nil {
		_, err = f.Write(append(b, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// printResult prints every metric by name with its unit and sample count,
// then the one-line JSON object the driver reads.
func printResult(res *result) error {
	mode := "untraced: end-to-end metrics"
	if res.Traced {
		mode = "traced: per-layer metrics"
	}
	fmt.Printf("%s seed=%d seconds=%g (%s) attempted=%d failed=%d stream=%s\n",
		res.Workload, res.Seed, res.Seconds, mode, res.Attempted, res.Failed, res.Stream)
	for _, n := range res.Notes {
		fmt.Printf("  note: %s\n", n)
	}
	printMetrics(os.Stdout, res.Metrics)
	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]wire, len(res.Metrics))
	for name, v := range res.Metrics {
		metrics[name] = wire{v.Value, v.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool            `json:"correct"`
		Attempted int             `json:"attempted"`
		Failed    int             `json:"failed"`
		Metrics   map[string]wire `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "manifest":
			if err := writeManifest(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			return
		}
	}
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run; empty runs all four, untraced then traced")
	flag.Int64Var(&cfg.seed, "seed", 1, "drives the lake, the query pool, the Zipf draws and the mutation schedule")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "amount of timed work: op counts are the workload's nominal rate times this")
	flag.IntVar(&trace, "trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	flag.BoolVar(&cfg.smoke, "smoke", false, "40-table lake and a few hundred ops, for tests")
	flag.StringVar(&cfg.out, "out", filepath.Join(".bench_build", "out"), "directory for result, trace and persist files")
	flag.StringVar(&cfg.record, "record", "", "append each run's record to this JSON-lines file (input to `compare`)")
	flag.Parse()
	if flag.NArg() > 0 || cfg.seconds <= 0 || trace < 0 || trace > 1 {
		fmt.Fprintln(os.Stderr, "usage: bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR] [--record FILE]")
		os.Exit(2)
	}
	cfg.traced = trace == 1

	runs := []config{cfg}
	if cfg.workload == "" {
		runs = nil
		for _, traced := range []bool{false, true} {
			for _, w := range workloads {
				c := cfg
				c.workload, c.traced = w.Name, traced
				runs = append(runs, c)
			}
		}
	}
	ok := true
	for _, c := range runs {
		res, err := run(c)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", c.workload, err)
			os.Exit(1)
		}
		if err := printResult(res); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}
