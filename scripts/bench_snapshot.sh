#!/usr/bin/env bash
# bench_snapshot.sh — run the repository benchmarks and emit BENCH_<N>.json,
# a machine-readable snapshot of the perf trajectory, one file per PR.
#
# Usage:
#   scripts/bench_snapshot.sh [PR_NUMBER]
#
# Environment:
#   BENCHTIME  go test -benchtime value (default 1x: smoke-speed; use e.g.
#              2s for stable numbers)
#   BENCH      benchmark regex passed to -bench (default '.')
#
# Output schema (one object per benchmark):
#   {"name": "BenchmarkFig1Pipeline", "iterations": 4897,
#    "ns_per_op": 217861, "bytes_per_op": 111525, "allocs_per_op": 1791}
# B/op and allocs/op fields are omitted when -benchmem reports none.
# Custom b.ReportMetric units (e.g. "f1", "lsh-ns/op", "cancel-ns/op") are
# captured too, with the unit sanitized into a JSON key ("lsh_ns_per_op").
set -euo pipefail
cd "$(dirname "$0")/.."

PR="${1:-1}"
OUT="BENCH_${PR}.json"
BENCHTIME="${BENCHTIME:-1x}"
BENCH="${BENCH:-.}"

# The root package carries the paper-figure benchmarks; cluster carries
# BenchmarkClusterDiscovery, the HTTP scatter-gather fan-out cost. Serving
# throughput is measured end to end by the repo benchmark (bench/).
go test -run '^$' -bench "$BENCH" -benchtime "$BENCHTIME" -benchmem . ./internal/cluster/ |
	awk '
	/^Benchmark/ {
		name = $1
		sub(/-[0-9]+$/, "", name)  # strip -GOMAXPROCS suffix
		entry = sprintf("{\"name\": \"%s\", \"iterations\": %s", name, $2)
		for (i = 3; i < NF; i++) {
			u = $(i+1)
			if (u == "ns/op")          entry = entry sprintf(", \"ns_per_op\": %s", $i)
			else if (u == "B/op")      entry = entry sprintf(", \"bytes_per_op\": %s", $i)
			else if (u == "allocs/op") entry = entry sprintf(", \"allocs_per_op\": %s", $i)
			else if ($i ~ /^[0-9.]+$/ && u ~ /^[A-Za-z][A-Za-z0-9_\/-]*$/) {
				key = u
				gsub(/\/op$/, "_per_op", key)
				gsub(/[\/-]/, "_", key)
				entry = entry sprintf(", \"%s\": %s", key, $i)
			}
		}
		entries[n++] = entry "}"
	}
	END {
		printf "[\n"
		for (i = 0; i < n; i++) printf "  %s%s\n", entries[i], (i < n-1 ? "," : "")
		printf "]\n"
	}
	' >"$OUT"

echo "wrote $OUT ($(grep -c '"name"' "$OUT") benchmarks)"

# Delta section: compare against the previous snapshot (the highest
# version-sorted BENCH_*.json other than the one just written) so CI logs
# and PR descriptions can quote the perf trajectory. Informational only —
# the single-CPU CI container is noisy, so there is no hard gate.
prev=""
for f in $(ls BENCH_*.json 2>/dev/null | sort -V); do
	[ "$f" = "$OUT" ] && continue
	prev="$f"
done
if [ -n "$prev" ]; then
	echo ""
	echo "delta vs $prev (negative % = improvement):"
	awk -v prevfile="$prev" '
	/"name"/ {
		match($0, /"name": "[^"]+"/)
		name = substr($0, RSTART + 9, RLENGTH - 10)
		ns = ""; al = ""
		if (match($0, /"ns_per_op": [0-9.]+/))     ns = substr($0, RSTART + 13, RLENGTH - 13)
		if (match($0, /"allocs_per_op": [0-9.]+/)) al = substr($0, RSTART + 17, RLENGTH - 17)
		if (FILENAME == prevfile) {
			pns[name] = ns; pal[name] = al
		} else if (name in pns) {
			line = sprintf("  %-50s", name)
			if (ns != "" && pns[name] > 0)
				line = line sprintf("  ns/op %12.1f -> %12.1f (%+7.1f%%)", pns[name], ns, (ns - pns[name]) * 100.0 / pns[name])
			if (al != "" && pal[name] > 0)
				line = line sprintf("  allocs/op %8d -> %8d (%+7.1f%%)", pal[name], al, (al - pal[name]) * 100.0 / pal[name])
			print line
		}
	}
	' "$prev" "$OUT"
fi
