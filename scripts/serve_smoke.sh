#!/usr/bin/env bash
# Serve-layer smoke: boots imdppd on a random port, drives one
# end-to-end session — async solve to completion, identical resubmit
# asserted to be a cache hit with bit-identical σ, two near-duplicate
# solves asserted to share sample grids via the daemon-wide grid cache
# (DESIGN.md §10), an exact σ asserted to cost the grid lane its packed
# O(items) bytes and to hit on repeat, cancel endpoint asserted to abort a running solve,
# and /metrics asserted coherent.
set -euo pipefail

cd "$(dirname "$0")/.."

WORKDIR=$(mktemp -d)
BIN="$WORKDIR/imdppd"
LOG="$WORKDIR/imdppd.log"
go build -o "$BIN" ./cmd/imdppd

# create the log before the daemon does: the readiness loop's first sed
# may otherwise run before the background shell opens it
: >"$LOG"
"$BIN" -addr 127.0.0.1:0 -workers 2 >"$LOG" 2>&1 &
PID=$!
cleanup() {
    kill "$PID" 2>/dev/null || true
    wait "$PID" 2>/dev/null || true
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

# readiness: the daemon prints its resolved address once listening
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's#^imdppd listening on ##p' "$LOG")
    [ -n "$ADDR" ] && break
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "imdppd never became ready:" >&2
    cat "$LOG" >&2
    exit 1
fi
echo "imdppd at $ADDR"

curl -sf "$ADDR/healthz" | jq -e '.ok' >/dev/null

# small Amazon-scale solve (same shape as the solver smoke)
REQ='{"dataset":"amazon","scale":0.05,"budget":100,"t":4,"mc":8,"mcsi":4,"candidate_cap":64,"seed":1}'

R1=$(curl -sf -X POST "$ADDR/v1/solve" -d "$REQ")
JOB=$(echo "$R1" | jq -r .job_id)
[ "$(echo "$R1" | jq -r .cache_hit)" = "false" ] || { echo "cold submit claimed a cache hit: $R1" >&2; exit 1; }

STATUS=""
VIEW=""
for _ in $(seq 1 600); do
    VIEW=$(curl -sf "$ADDR/v1/jobs/$JOB")
    STATUS=$(echo "$VIEW" | jq -r .status)
    case "$STATUS" in
        done) break ;;
        failed | cancelled)
            echo "job $STATUS: $VIEW" >&2
            exit 1
            ;;
    esac
    sleep 0.2
done
[ "$STATUS" = done ] || { echo "solve never finished: $VIEW" >&2; exit 1; }
SIGMA1=$(echo "$VIEW" | jq -r .solution.sigma)
echo "solve done: σ = $SIGMA1"

# identical resubmit: O(1) cache hit, bit-identical σ (the §3
# determinism contract made observable over HTTP)
R2=$(curl -sf -X POST "$ADDR/v1/solve" -d "$REQ")
[ "$(echo "$R2" | jq -r .cache_hit)" = "true" ] || { echo "resubmit missed the cache: $R2" >&2; exit 1; }
JOB2=$(echo "$R2" | jq -r .job_id)
SIGMA2=$(curl -sf "$ADDR/v1/jobs/$JOB2" | jq -r .solution.sigma)
[ "$SIGMA1" = "$SIGMA2" ] || { echo "cached σ differs: $SIGMA1 vs $SIGMA2" >&2; exit 1; }
echo "cache hit: bit-identical σ"

# Sample-grid memoization across near-duplicate solves (DESIGN.md §10):
# two requests that differ from the first solve only in candidate_cap
# miss the whole-solve result cache, but share (problem, seed, group)
# coordinates with it, so the daemon-wide grid cache must report hits.
for CAP in 48 56; do
    REQN=$(echo "$REQ" | jq -c ".candidate_cap = $CAP")
    RN=$(curl -sf -X POST "$ADDR/v1/solve" -d "$REQN")
    [ "$(echo "$RN" | jq -r .cache_hit)" = "false" ] || { echo "near-duplicate hit the result cache: $RN" >&2; exit 1; }
    JN=$(echo "$RN" | jq -r .job_id)
    SN=""
    for _ in $(seq 1 600); do
        SN=$(curl -sf "$ADDR/v1/jobs/$JN" | jq -r .status)
        [ "$SN" = done ] && break
        case "$SN" in
            failed | cancelled)
                echo "near-duplicate job $SN" >&2
                exit 1
                ;;
        esac
        sleep 0.2
    done
    [ "$SN" = done ] || { echo "near-duplicate solve never finished" >&2; exit 1; }
done
GRID_HITS=$(curl -sf "$ADDR/metrics" | jq -r .grid.hits)
[ "$GRID_HITS" -gt 0 ] || { echo "grid cache reported no hits after near-duplicate solves" >&2; exit 1; }
echo "grid cache: $GRID_HITS hits across near-duplicate solves"

# A grid entry is one group's folded estimate, packed: a 16-byte
# problem digest and the group key, four floats, and one varint total
# per item, whatever the sample count. On this 16-item problem an
# exact σ over 4096 samples grows the lane by 105 bytes; the bound
# leaves headroom for varint widths but fails if the totals go back to
# 8-byte floats (about 215 bytes) or the rows come back (~80 bytes per
# sample). Repeating it is a grid hit with bit-identical σ.
SIGMA_REQ='{"dataset":"amazon","scale":0.05,"budget":1000,"t":4,"mc":4096,"seed":3,"seeds":[{"user":1,"item":0,"t":1},{"user":5,"item":2,"t":2}]}'
GRID0=$(curl -sf "$ADDR/metrics" | jq -c '.grid')
S1=$(curl -sf -X POST "$ADDR/v1/sigma" -d "$SIGMA_REQ" | jq -r .sigma)
GRID1=$(curl -sf "$ADDR/metrics" | jq -c '.grid')
GROWTH=$(( $(echo "$GRID1" | jq .bytes) - $(echo "$GRID0" | jq .bytes) ))
[ "$GROWTH" -lt 128 ] || { echo "an mc=4096 σ grew the grid lane by $GROWTH bytes" >&2; exit 1; }
S2=$(curl -sf -X POST "$ADDR/v1/sigma" -d "$SIGMA_REQ" | jq -r .sigma)
[ "$S1" = "$S2" ] || { echo "repeated σ $S2 != first $S1" >&2; exit 1; }
curl -sf "$ADDR/metrics" | jq -e ".grid.hits > $(echo "$GRID1" | jq .hits)" >/dev/null ||
    { echo "the repeated σ was no grid hit" >&2; exit 1; }
echo "grid entry: mc=4096 σ grew the lane by $GROWTH bytes; repeat hit, σ = $S1"

# cancel path: a heavy solve (≳30s uncancelled) aborted mid-run
HEAVY='{"dataset":"amazon","scale":0.05,"budget":100,"t":4,"mc":131072,"mcsi":4096,"candidate_cap":256,"seed":99}'
R3=$(curl -sf -X POST "$ADDR/v1/solve" -d "$HEAVY")
JOB3=$(echo "$R3" | jq -r .job_id)
for _ in $(seq 1 100); do
    [ "$(curl -sf "$ADDR/v1/jobs/$JOB3" | jq -r .status)" = running ] && break
    sleep 0.1
done
curl -sf -X DELETE "$ADDR/v1/jobs/$JOB3" >/dev/null
ST3=""
for _ in $(seq 1 50); do
    ST3=$(curl -sf "$ADDR/v1/jobs/$JOB3" | jq -r .status)
    [ "$ST3" = cancelled ] && break
    sleep 0.1
done
[ "$ST3" = cancelled ] || { echo "cancel never took effect (status $ST3)" >&2; exit 1; }
echo "cancel OK"

METRICS=$(curl -sf "$ADDR/metrics")
echo "$METRICS" | jq -e '.cache_hits >= 1 and .jobs_completed >= 2 and .jobs_cancelled >= 1 and .samples_per_sec > 0' >/dev/null ||
    { echo "metrics incoherent: $METRICS" >&2; exit 1; }

# latency histograms (DESIGN.md §11): every stage carries the full
# p50/p95/p99 snapshot, and the stages this session exercised count
echo "$METRICS" | jq -e '
    .latency.queue_wait.count >= 2 and .latency.solve_wall.count >= 2
    and ([.latency.queue_wait, .latency.solve_wall, .latency.shard_rpc, .latency.sigma]
         | all(has("p50_ms") and has("p95_ms") and has("p99_ms") and has("mean_ms")))' >/dev/null ||
    { echo "latency block incoherent: $(echo "$METRICS" | jq .latency)" >&2; exit 1; }
echo "latency histograms OK: $(echo "$METRICS" | jq -c '{queue_p50: .latency.queue_wait.p50_ms, solve_p50: .latency.solve_wall.p50_ms}')"

echo "serve smoke OK"
