package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs all four workloads, untraced and traced, on the 40-table
// lake and checks that each emits exactly the declared names and fails no
// operation.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, traced := range []bool{false, true} {
		want := map[string]bool{}
		if traced {
			for _, s := range perLayer {
				want[s.Name] = true
			}
		} else {
			for _, s := range endToEnd {
				want[s.Name] = true
			}
		}
		for _, w := range workloads {
			res, err := run(config{workload: w.Name, seed: 1, seconds: 0.5, traced: traced, smoke: true, out: out})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if res.Stream == "" {
				t.Errorf("%s traced=%v: no request-stream hash", w.Name, traced)
			}
			for name, v := range res.Metrics {
				if !want[name] {
					t.Errorf("%s traced=%v: emitted undeclared metric %q", w.Name, traced, name)
				}
				if !nameRE.MatchString(name) {
					t.Errorf("metric name %q is outside the allowed alphabet", name)
				}
				if !traced && v.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, name)
				}
			}
			for name := range want {
				if _, ok := res.Metrics[name]; !ok {
					t.Errorf("%s traced=%v: declared metric %q not emitted", w.Name, traced, name)
				}
			}
			if traced {
				if v := res.Metrics["failed_ratio"].Value; v != 0 {
					t.Errorf("%s: failed_ratio = %v", w.Name, v)
				}
				if _, err := os.Stat(out + "/trace-" + w.Name + ".json"); err != nil {
					t.Errorf("%s: no trace file: %v", w.Name, err)
				}
			}
		}
	}
}

// TestRequestStreamIsSeeded: the same seed yields a byte-identical request
// stream, another seed a different one, and cluster-fanout's stream is a
// prefix of discover-zipf's.
func TestRequestStreamIsSeeded(t *testing.T) {
	stream := func(seed int64, n int) string {
		in := generateLake(smokeScale, seed)
		pool := in.zipfPool(seed)
		return streamHash(pool, zipfDraws(seed, len(pool), n))
	}
	if a, b := stream(1, 500), stream(1, 500); a != b {
		t.Errorf("seed 1 twice: %s != %s", a, b)
	}
	if a, b := stream(1, 500), stream(2, 500); a == b {
		t.Errorf("seeds 1 and 2 share the stream %s", a)
	}
	long, short := zipfDraws(1, 32, 500), zipfDraws(1, 32, 100)
	for i := range short {
		if long[i] != short[i] {
			t.Fatalf("draw %d differs between a stream and its prefix", i)
		}
	}
	in := generateLake(smokeScale, 1)
	muts := in.churnSchedule(1, 60)
	live := map[string]bool{}
	for j, mu := range muts {
		if !mu.add && !live[mu.name] {
			t.Errorf("mutation %d removes %s, which is not in the lake", j, mu.name)
		}
		live[mu.name] = mu.add
	}
}

// TestManifest: BENCHMARK.json is what the declarations generate, and the
// declarations respect the limits the benchmark contract sets.
func TestManifest(t *testing.T) {
	var want bytes.Buffer
	if err := writeManifest(&want); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("BENCHMARK.json is stale: regenerate it with `bash bench/run.sh manifest > BENCHMARK.json`")
	}
	var m struct {
		RunSeconds int `json:"run_seconds"`
	}
	if err := json.Unmarshal(got, &m); err != nil || m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d (err %v)", m.RunSeconds, err)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads", len(workloads))
	}
	for _, w := range workloads {
		name(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	largest := 0.0
	for _, s := range endToEnd {
		name(s.Name)
		if s.Bound < 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v", s.Name, s.Bound)
		}
		largest = max(largest, s.Bound)
	}
	if s := endToEnd[0]; s.Name != "setup_s" || s.Unit != "s" || s.Better != "lower" || s.Bound != largest {
		t.Errorf("setup_s must be declared, in s, lower-is-better, with the largest bound: %+v", s)
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics", len(perLayer))
	}
	for _, s := range perLayer {
		name(s.Name)
	}
}

// TestQuartiles pins the spread arithmetic to Python's
// statistics.quantiles(xs, n=4).
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles of 1 2 4 8 16 = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	runs := func(vals ...float64) map[string]map[string][]value {
		var vs []value
		for _, v := range vals {
			vs = append(vs, value{Value: v})
		}
		return map[string]map[string][]value{"discover-zipf": {"latency_p50_ms": vs}}
	}
	steady := runs(1.00, 1.01, 0.99, 1.00)
	if code := compare(steady, runs(1.02, 1.03, 1.01, 1.02)); code != 0 {
		t.Errorf("a 2%% slowdown inside the bound exits %d", code)
	}
	if code := compare(steady, runs(1.50, 1.51, 1.49, 1.50)); code != 1 {
		t.Errorf("a 50%% slowdown exits %d, want 1", code)
	}
	if code := compare(steady, runs(0.8, 1.5, 2.4, 1.2)); code != 0 {
		t.Errorf("a spread wider than the bound must be unresolved, not regressed: exit %d", code)
	}
}
