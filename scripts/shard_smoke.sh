#!/usr/bin/env bash
# Sharded-serving smoke test: partition a generated lake into 2 shard
# snapshots with `lakectl build -shards`, serve each shard with its
# own lakeserved, put the router in front, query every endpoint
# through it, kill one shard and verify graceful degradation (HTTP 200
# with shards_ok 1/2, never a 5xx), bring the shard back, roll a
# reload across the fleet, and shut everything down cleanly.
set -euo pipefail

cd "$(dirname "$0")/.."

TMP=$(mktemp -d)
SHARD0=127.0.0.1:18751
SHARD1=127.0.0.1:18752
ROUTER=127.0.0.1:18753
PID0=""
PID1=""
PIDR=""
cleanup() {
    for p in "$PID0" "$PID1" "$PIDR"; do
        [ -n "$p" ] && kill "$p" 2>/dev/null || true
    done
    rm -rf "$TMP"
}
trap cleanup EXIT

echo "== building binaries"
go build -o "$TMP/lakectl" ./cmd/lakectl
go build -o "$TMP/lakeserved" ./cmd/lakeserved

echo "== generating 100-table lake"
"$TMP/lakectl" gen -out "$TMP/lake" -templates 20 -tables 5 -domains 16 -seed 3

echo "== partitioning into 2 shard snapshots"
"$TMP/lakectl" build -lake "$TMP/lake" -o "$TMP/lake.snap" -shards 2
for f in lake.0.snap lake.1.snap lake.manifest; do
    [ -f "$TMP/$f" ] || { echo "FAIL: missing $f" >&2; exit 1; }
done

# The daemon's output must be redirected away from our stdout, and the
# process must be backgrounded in this shell (not a command-substitution
# subshell) so that `wait` can observe its exit status. The caller reads
# the pid from $! after the function returns.
start_shard() { # index addr
    "$TMP/lakeserved" -manifest "$TMP/lake.manifest" -shard "$1" -addr "$2" \
        -cache-entries 1024 >"$TMP/shard$1.log" 2>&1 &
}

echo "== starting shard servers"
start_shard 0 "$SHARD0"
PID0=$!
start_shard 1 "$SHARD1"
PID1=$!

echo "== starting router on $ROUTER"
"$TMP/lakeserved" -router -shard-addrs "$SHARD0,$SHARD1" -addr "$ROUTER" \
    -cache-entries 1024 -health-interval 300ms >"$TMP/router.log" 2>&1 &
PIDR=$!

echo "== waiting for the fleet"
ready=""
for _ in $(seq 1 150); do
    if curl -sf "http://$ROUTER/healthz" 2>/dev/null | grep -q '"shards_ok":"2/2"'; then
        ready=1
        break
    fi
    for p in "$PID0" "$PID1" "$PIDR"; do
        kill -0 "$p" 2>/dev/null || { echo "FAIL: a process exited during startup" >&2; exit 1; }
    done
    sleep 0.2
done
[ -n "$ready" ] || { echo "FAIL: router never saw 2/2 shards" >&2; exit 1; }

echo "== shard /healthz reports identity"
curl -sf "http://$SHARD0/healthz" | grep -q '"shard":{"index":0,"count":2' \
    || { echo "FAIL: shard 0 healthz has no shard block" >&2; exit 1; }

TABLE=$(basename "$(ls "$TMP/lake"/*.csv | head -1)" .csv)
VALUES=$(awk -F, 'NR>1 && $1 != "" {print $1}' "$TMP/lake/$TABLE.csv" | head -8 | paste -sd, -)
FIRST_VALUE=${VALUES%%,*}

echo "== every endpoint through the router"
"$TMP/lakectl" query search -addr "$ROUTER" -q "$FIRST_VALUE data" -k 5
"$TMP/lakectl" query vsearch -addr "$ROUTER" -q "$FIRST_VALUE" -k 5
"$TMP/lakectl" query join -addr "$ROUTER" -values "$VALUES" -k 5
"$TMP/lakectl" query union -addr "$ROUTER" -table "$TABLE" -k 5

echo "== complete responses carry no shards_ok"
body=$(curl -sf -X POST "http://$ROUTER/v1/join" -d "{\"values\":[\"$FIRST_VALUE\"],\"k\":3}")
echo "$body" | grep -q shards_ok && { echo "FAIL: complete response has shards_ok: $body" >&2; exit 1; }

echo "== each shard answers on its own"
for shard in "$SHARD0" "$SHARD1"; do
    "$TMP/lakectl" query join -addr "$shard" -values "$VALUES" -k 5
done

echo "== killing shard 1; router must degrade, not fail"
kill -TERM "$PID1" && wait "$PID1" || true
PID1=""
# Use a request body the fleet has not seen: the complete k=3 answer
# above is cached, and the router deliberately keeps serving cached
# complete answers through an outage (no shards_ok on a cache hit).
code=$(curl -s -o "$TMP/degraded.json" -w '%{http_code}' -X POST \
    "http://$ROUTER/v1/join" -d "{\"values\":[\"$FIRST_VALUE\"],\"k\":4}")
[ "$code" = 200 ] || { echo "FAIL: degraded query returned $code" >&2; exit 1; }
grep -q '"shards_ok":"1/2"' "$TMP/degraded.json" \
    || { echo "FAIL: degraded response lacks shards_ok 1/2: $(cat "$TMP/degraded.json")" >&2; exit 1; }

echo "== router /healthz shows the outage (still HTTP 200)"
# Wait for the health sweep to notice: restarting the shard while
# /healthz still reads the stale 2/2 would let the recovery loop below
# pass before the new process listens.
noticed=""
for _ in $(seq 1 150); do
    hcode=$(curl -s -o "$TMP/health.json" -w '%{http_code}' "http://$ROUTER/healthz")
    [ "$hcode" = 200 ] || { echo "FAIL: degraded healthz returned $hcode" >&2; exit 1; }
    if grep -q '"shards_ok":"1/2"' "$TMP/health.json"; then
        noticed=1
        break
    fi
    sleep 0.2
done
[ -n "$noticed" ] || { echo "FAIL: router /healthz never showed 1/2: $(cat "$TMP/health.json")" >&2; exit 1; }

echo "== restarting shard 1"
start_shard 1 "$SHARD1"
PID1=$!
recovered=""
for _ in $(seq 1 150); do
    if curl -sf "http://$ROUTER/healthz" | grep -q '"shards_ok":"2/2"'; then
        recovered=1
        break
    fi
    sleep 0.2
done
[ -n "$recovered" ] || { echo "FAIL: router never recovered to 2/2" >&2; exit 1; }

echo "== rolling reload across the fleet"
curl -sf -X POST "http://$ROUTER/v1/admin/reload" | tee "$TMP/reload.json" | grep -q '"shards_ok":"2/2"' \
    || { echo "FAIL: rolling reload not 2/2: $(cat "$TMP/reload.json")" >&2; exit 1; }
echo

echo "== queries still answer after the reload"
"$TMP/lakectl" query search -addr "$ROUTER" -q "$FIRST_VALUE data" -k 5 >/dev/null

echo "== graceful shutdown (router first, then shards)"
kill -TERM "$PIDR"
wait "$PIDR" || { echo "FAIL: router exited non-zero on SIGTERM" >&2; exit 1; }
PIDR=""
kill -TERM "$PID0" "$PID1"
wait "$PID0" || { echo "FAIL: shard 0 exited non-zero" >&2; exit 1; }
wait "$PID1" || { echo "FAIL: shard 1 exited non-zero" >&2; exit 1; }
PID0=""
PID1=""

echo "PASS: shard smoke"
