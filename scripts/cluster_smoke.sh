#!/usr/bin/env bash
# cluster_smoke.sh — end-to-end smoke test of cluster mode with real
# processes: build the CLI, generate a small CSV lake, start three shard
# servers (`serve -shard-of i/3`) plus a coordinator over them, then drive
# a discover -> integrate round trip and the health/metrics/shardctl
# surfaces through the coordinator. Everything runs on loopback with
# ephemeral ports; all processes are torn down on exit.
#
# Exit nonzero on any failed step — this is the CI gate that the
# shard-per-process deployment path actually composes, not just the Go
# test harnesses.
set -euo pipefail
cd "$(dirname "$0")/.."

WORK="$(mktemp -d)"
PIDS=()
cleanup() {
	for pid in "${PIDS[@]:-}"; do
		kill "$pid" 2>/dev/null || true
	done
	wait 2>/dev/null || true
	rm -rf "$WORK"
}
trap cleanup EXIT

echo "== build"
go build -o "$WORK/dialite" ./cmd/dialite

echo "== generate lake"
LAKE="$WORK/lake"
mkdir -p "$LAKE"
# A few overlapping tables from the generator's domain templates, plus the
# query; shard routing is by file-derived table name, so names vary the
# placement.
"$WORK/dialite" generate -prompt "covid vaccination by country" -rows 12 -cols 4 -seed 1 -out "$LAKE/vax_a.csv" >/dev/null
"$WORK/dialite" generate -prompt "covid vaccination by country" -rows 10 -cols 4 -seed 2 -out "$LAKE/vax_b.csv" >/dev/null
"$WORK/dialite" generate -prompt "covid cases by country" -rows 9 -cols 4 -seed 3 -out "$LAKE/cases.csv" >/dev/null
"$WORK/dialite" generate -prompt "covid vaccination by country" -rows 8 -cols 4 -seed 4 -out "$LAKE/vax_c.csv" >/dev/null
"$WORK/dialite" generate -prompt "covid cases by country" -rows 7 -cols 4 -seed 5 -out "$LAKE/cases_b.csv" >/dev/null
"$WORK/dialite" generate -prompt "covid vaccination by country" -rows 6 -cols 4 -seed 9 -out "$WORK/query.csv" >/dev/null

pick_port() {
	python3 -c 'import socket; s=socket.socket(); s.bind(("127.0.0.1",0)); print(s.getsockname()[1]); s.close()'
}

wait_ready() { # base_url
	for _ in $(seq 1 100); do
		if curl -sf "$1/v1/lake/epoch" >/dev/null 2>&1; then
			return 0
		fi
		sleep 0.1
	done
	echo "server at $1 never became ready" >&2
	return 1
}

echo "== start 3 shard servers"
SHARD_ADDRS=()
for i in 0 1 2; do
	port="$(pick_port)"
	"$WORK/dialite" serve -lake "$LAKE" -shard-of "$i/3" -addr "127.0.0.1:$port" >"$WORK/shard$i.log" 2>&1 &
	PIDS+=($!)
	SHARD_ADDRS+=("127.0.0.1:$port")
done
for a in "${SHARD_ADDRS[@]}"; do
	wait_ready "http://$a"
done

echo "== start coordinator"
CPORT="$(pick_port)"
COORD="http://127.0.0.1:$CPORT"
ADDR_LIST="$(IFS=,; echo "${SHARD_ADDRS[*]}")"
"$WORK/dialite" serve -coordinator -shard-addrs "$ADDR_LIST" \
	-persist "$WORK/coord" -addr "127.0.0.1:$CPORT" >"$WORK/coord.log" 2>&1 &
PIDS+=($!)
wait_ready "$COORD"

echo "== manifest written"
test -f "$WORK/coord/cluster.json"
jq -e '.shards == 3 and .engine != ""' "$WORK/coord/cluster.json" >/dev/null

echo "== shardctl sees all shards up"
"$WORK/dialite" shardctl -persist "$WORK/coord" | jq -e '[.shards[].status] | all(. == "ok")' >/dev/null

echo "== discover through the coordinator"
python3 - "$WORK/query.csv" >"$WORK/discover_req.json" <<'EOF'
import csv, json, sys
with open(sys.argv[1]) as f:
    rows = list(csv.reader(f))
print(json.dumps({
    "query": {"name": "query", "columns": rows[0], "rows": rows[1:]},
    "queryColumn": 0,
    "k": 5,
}))
EOF
curl -sf -X POST -d @"$WORK/discover_req.json" "$COORD/v1/discover" >"$WORK/discover_resp.json"
jq -e '(.partial // false) == false' "$WORK/discover_resp.json" >/dev/null
jq -e '.integrationSet | length >= 1' "$WORK/discover_resp.json" >/dev/null
echo "   integration set: $(jq -c '.integrationSet' "$WORK/discover_resp.json")"

echo "== repeat the discover: the coordinator answers from its answer cache"
curl -sf -X POST -d @"$WORK/discover_req.json" "$COORD/v1/discover" >"$WORK/discover_again.json"
cmp "$WORK/discover_resp.json" "$WORK/discover_again.json"
hits="$(curl -sf "$COORD/metrics" | awk '$1 == "dialite_answer_cache_hits_total" { print $2 }')"
test "${hits:-0}" -ge 1
echo "   answer cache hits: $hits"

echo "== integrate the discovered set"
# The integration set names lake tables plus the query itself; the query is
# not in the lake, so it rides along inline.
jq --slurpfile req "$WORK/discover_req.json" \
	'{names: [.integrationSet[] | select(. != "query")], tables: [$req[0].query]}' \
	"$WORK/discover_resp.json" >"$WORK/integrate_req.json"
curl -sf -X POST -d @"$WORK/integrate_req.json" "$COORD/v1/integrate" >"$WORK/integrate_resp.json"
jq -e '.table.rows | length >= 1' "$WORK/integrate_resp.json" >/dev/null
echo "   integrated $(jq '.table.rows | length' "$WORK/integrate_resp.json") rows over $(jq '.table.columns | length' "$WORK/integrate_resp.json") columns"

echo "== health + per-shard metrics"
curl -sf "$COORD/healthz" | jq -e '.status == "ok" and (.shards | length == 3)' >/dev/null
# Capture the body first: `curl | grep -q` fails under pipefail, since grep
# exits on its first match and curl then dies writing to the closed pipe (23).
metrics="$(curl -sf "$COORD/metrics")"
grep -q 'dialite_shard_calls_total' <<<"$metrics"
grep -q 'dialite_shard_table_cache_hits_total' <<<"$metrics"
curl -sf "$COORD/metrics?format=json&scope=shards" | jq -e 'length == 3' >/dev/null

echo "== cluster smoke OK"
