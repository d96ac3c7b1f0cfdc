package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
)

// compare reads two sets of run records (JSON lines written by --record)
// and judges, per workload and end-to-end metric, whether B is worse than A
// by more than the metric's bound. A metric whose run-to-run spread is wider
// than its bound on either side cannot carry that judgement: it is reported
// as unresolved, never as unchanged.

func readRecords(path string) (map[string]map[string][]value, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]value{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Traced {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]value{}
		}
		for name, v := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], v)
		}
	}
	return out, sc.Err()
}

// summarize reduces a metric's runs to a median and a spread: across the
// runs when there are several, the run's own inter-round spread otherwise.
func summarize(vs []value) (med, spr float64) {
	xs := make([]float64, len(vs))
	for i, v := range vs {
		xs[i] = v.Value
	}
	if len(vs) == 1 {
		return vs[0].Value, vs[0].Spread
	}
	return median(xs), spread(xs)
}

func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.jsonl B.jsonl")
		return 2
	}
	a, err := readRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	b, err := readRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	return compare(a, b)
}

func compare(a, b map[string]map[string][]value) int {
	regressed := false
	fmt.Printf("%-17s %-15s %12s %8s %12s %8s %6s  %s\n", "workload", "metric", "A median", "spread", "B median", "spread", "bound", "verdict")
	for _, w := range workloads {
		for _, spec := range endToEnd {
			va, vb := a[w.Name][spec.Name], b[w.Name][spec.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, sa := summarize(va)
			mb, sb := summarize(vb)
			worse := (mb - ma) / ma
			if spec.Better == "higher" {
				worse = (ma - mb) / ma
			}
			verdict := "ok"
			switch {
			case sa > spec.Bound || sb > spec.Bound:
				verdict = "unresolved"
			case worse > spec.Bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Printf("%-17s %-15s %12.4f %8.3f %12.4f %8.3f %6.2f  %s (n=%d,%d)\n",
				w.Name, spec.Name, ma, sa, mb, sb, spec.Bound, verdict, len(va), len(vb))
		}
	}
	if regressed {
		return 1
	}
	return 0
}
