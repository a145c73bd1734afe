#!/usr/bin/env bash
# Conditional-discovery smoke test: structured /v1/discover queries
# against a real daemon — offline planner, client mode, predicates +
# explain, byte parity with the bare union endpoint, uniform 400 on
# bad queries, per-stage observability — then the same endpoint
# through the router over a 2-shard fleet, including graceful
# degradation with one shard down, and clean SIGTERM drains.
set -euo pipefail

cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
ADDR=127.0.0.1:18761
SHARD0=127.0.0.1:18762
SHARD1=127.0.0.1:18763
ROUTER=127.0.0.1:18764
PID=""
PID0=""
PID1=""
PIDR=""
cleanup() {
    for p in "$PID" "$PID0" "$PID1" "$PIDR"; do
        [ -n "$p" ] && kill "$p" 2>/dev/null || true
    done
    rm -rf "$TMP"
}
trap cleanup EXIT

wait_healthy() { # url pattern
    for _ in $(seq 1 150); do
        if curl -sf "$1" 2>/dev/null | grep -q "$2"; then
            return 0
        fi
        sleep 0.2
    done
    echo "FAIL: $1 never matched $2" >&2
    exit 1
}

echo "== building binaries"
go build -o "$TMP/lakectl" ./cmd/lakectl
go build -o "$TMP/lakeserved" ./cmd/lakeserved

echo "== generating 40-table lake"
"$TMP/lakectl" gen -out "$TMP/lake" -templates 10 -tables 4 -domains 8 -seed 7

TABLE=$(basename "$(ls "$TMP/lake"/*.csv | head -1)" .csv)
COL=$(head -1 "$TMP/lake/$TABLE.csv" | cut -d, -f1)
VALUES=$(awk -F, 'NR>1 && $1 != "" {print $1}' "$TMP/lake/$TABLE.csv" | head -8 | paste -sd, -)

echo "== offline planner: union seed + schema predicate + explain"
"$TMP/lakectl" discover -lake "$TMP/lake" -table "$TABLE" -relation union \
    -col-names "$COL" -min-rows 1 -k 5 -explain | tee "$TMP/offline.txt"
grep -q prefilter_meta "$TMP/offline.txt" \
    || { echo "FAIL: offline explain lacks prefilter_meta" >&2; exit 1; }

echo "== cost planner: selective keyword reorders ahead of a total meta predicate"
"$TMP/lakectl" discover -lake "$TMP/lake" -table "$TABLE" -relation union \
    -keywords "$TABLE" -min-rows 1 -k 5 -explain | tee "$TMP/reorder.txt"
FIRST=$(grep -Eo 'prefilter_[a-z]+' "$TMP/reorder.txt" | head -1)
[ "$FIRST" = prefilter_keyword ] \
    || { echo "FAIL: first prefilter is $FIRST, want prefilter_keyword" >&2; exit 1; }
grep -E 'prefilter_meta .*skipped' "$TMP/reorder.txt" >/dev/null \
    || { echo "FAIL: provably-total min-rows=1 meta stage not skipped" >&2; exit 1; }
grep -q 'est_out=' "$TMP/reorder.txt" \
    || { echo "FAIL: explain lacks est_out estimates" >&2; exit 1; }

echo "== building snapshot, serving on $ADDR"
"$TMP/lakectl" build -lake "$TMP/lake" -o "$TMP/lake.snap"
"$TMP/lakeserved" -snapshot "$TMP/lake.snap" -addr "$ADDR" \
    -cache-entries 1024 >"$TMP/serve.log" 2>&1 &
PID=$!
wait_healthy "http://$ADDR/healthz" '"status":"ok"'

echo "== client mode: join relation seeded by values"
"$TMP/lakectl" discover -addr "$ADDR" -values "$VALUES" -relation join -k 5

echo "== predicated discover with explain over HTTP"
curl -sf "http://$ADDR/v1/discover" -d "{
    \"table_id\": \"$TABLE\", \"relation\": \"union\", \"k\": 5,
    \"predicates\": {\"column_names\": [\"$COL\"], \"min_rows\": 1},
    \"explain\": true
}" | tee "$TMP/explain.json" | grep -q '"stage":"prefilter_meta"' \
    || { echo "FAIL: no prefilter_meta stage: $(cat "$TMP/explain.json")" >&2; exit 1; }
grep -q '"stage":"verify"' "$TMP/explain.json" \
    || { echo "FAIL: no verify stage" >&2; exit 1; }

echo "== unpredicated discover is byte-identical to /v1/union"
curl -sf "http://$ADDR/v1/union" \
    -d "{\"table_id\":\"$TABLE\",\"k\":5,\"method\":\"tus\"}" >"$TMP/union.json"
curl -sf "http://$ADDR/v1/discover" \
    -d "{\"table_id\":\"$TABLE\",\"relation\":\"union\",\"k\":5,\"method\":\"tus\"}" >"$TMP/discover.json"
cmp -s "$TMP/union.json" "$TMP/discover.json" \
    || { echo "FAIL: discover != union:" >&2; diff "$TMP/union.json" "$TMP/discover.json" >&2; exit 1; }

echo "== bad queries are uniform 400s"
for body in \
    "{\"table_id\":\"$TABLE\",\"relation\":\"union\"}" \
    "{\"table_id\":\"$TABLE\",\"relation\":\"psychic\",\"k\":5}" \
    "{\"k\":5}"; do
    code=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/v1/discover" -d "$body")
    [ "$code" = 400 ] || { echo "FAIL: $body returned $code, want 400" >&2; exit 1; }
done

echo "== per-stage observability in /stats and /metrics"
# Into files first: under pipefail, grep -q leaving at the first match
# can kill curl mid-body with SIGPIPE and fail a step that matched.
curl -sf "http://$ADDR/stats" -o "$TMP/stats.json"
grep -q '"prefilter_meta"' "$TMP/stats.json" \
    || { echo "FAIL: /stats has no discover stage block" >&2; exit 1; }
curl -sf "http://$ADDR/metrics" -o "$TMP/metrics.txt"
grep -q lakeserved_discover_stage_seconds "$TMP/metrics.txt" \
    || { echo "FAIL: /metrics has no discover stage histogram" >&2; exit 1; }

echo "== draining single server"
kill -TERM "$PID"
wait "$PID" || { echo "FAIL: lakeserved exited non-zero on SIGTERM" >&2; exit 1; }
PID=""

echo "== partitioning into a 2-shard fleet behind the router"
"$TMP/lakectl" build -lake "$TMP/lake" -o "$TMP/shards.snap" -shards 2
"$TMP/lakeserved" -manifest "$TMP/shards.manifest" -shard 0 -addr "$SHARD0" \
    >"$TMP/shard0.log" 2>&1 &
PID0=$!
"$TMP/lakeserved" -manifest "$TMP/shards.manifest" -shard 1 -addr "$SHARD1" \
    >"$TMP/shard1.log" 2>&1 &
PID1=$!
"$TMP/lakeserved" -router -shard-addrs "$SHARD0,$SHARD1" -addr "$ROUTER" \
    -health-interval 300ms >"$TMP/router.log" 2>&1 &
PIDR=$!
wait_healthy "http://$ROUTER/healthz" '"shards_ok":"2/2"'

echo "== discover through the router (table owned by one shard)"
"$TMP/lakectl" discover -addr "$ROUTER" -table "$TABLE" -relation union \
    -col-names "$COL" -k 5 -explain

echo "== killing shard 1; discover must degrade, not fail"
kill -TERM "$PID1" && wait "$PID1" || true
PID1=""
code=$(curl -s -o "$TMP/degraded.json" -w '%{http_code}' "http://$ROUTER/v1/discover" \
    -d "{\"values\":[\"${VALUES%%,*}\"],\"relation\":\"join\",\"k\":4}")
[ "$code" = 200 ] || { echo "FAIL: degraded discover returned $code" >&2; exit 1; }
grep -q '"shards_ok":"1/2"' "$TMP/degraded.json" \
    || { echo "FAIL: degraded discover lacks shards_ok 1/2: $(cat "$TMP/degraded.json")" >&2; exit 1; }

echo "== graceful shutdown (router, then surviving shard)"
kill -TERM "$PIDR"
wait "$PIDR" || { echo "FAIL: router exited non-zero on SIGTERM" >&2; exit 1; }
PIDR=""
kill -TERM "$PID0"
wait "$PID0" || { echo "FAIL: shard 0 exited non-zero" >&2; exit 1; }
PID0=""

echo "PASS: discover smoke"
