#!/usr/bin/env bash
# Shard smoke: boots estimator workers plus two coordinators — one with
# weighted planning and speculative re-dispatch (the defaults), one
# with static planning and no speculation — and drives a sharded σ
# evaluation and a full sharded solve over HTTP through both. Every
# result must be bit-identical to a plain single-process daemon (the
# DESIGN.md §7 contract made observable end to end), and the
# wire/planning metrics (bytes_tx/bytes_rx, per-remote
# ewma_samples_per_sec, speculative_hits) must be present and sane.
# The shard throughput records — one from each coordinator's metrics,
# plus imdppbench's wire bench — are appended to BENCH_shard.json (one
# JSON object per line).
set -euo pipefail

cd "$(dirname "$0")/.."

WORKDIR=$(mktemp -d)
BIN="$WORKDIR/imdppd"
go build -o "$BIN" ./cmd/imdppd

# boot runs inside $(...) subshells, so daemon pids go to a file a
# shell variable would not survive
cleanup() {
    if [ -f "$WORKDIR/pids" ]; then
        while read -r pid; do
            kill "$pid" 2>/dev/null || true
        done <"$WORKDIR/pids"
    fi
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

# boot <logfile> <args...>: starts imdppd, scrapes the readiness line,
# echoes the base URL
boot() {
    local log=$1
    shift
    "$BIN" -addr 127.0.0.1:0 "$@" >"$log" 2>&1 &
    echo $! >>"$WORKDIR/pids"
    local addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's#^imdppd listening on ##p' "$log")
        [ -n "$addr" ] && break
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "imdppd ($*) never became ready:" >&2
        cat "$log" >&2
        exit 1
    fi
    echo "$addr"
}

W1=$(boot "$WORKDIR/worker1.log" -worker)
W2=$(boot "$WORKDIR/worker2.log" -worker)
LOCAL=$(boot "$WORKDIR/local.log" -workers 1)
COORD=$(boot "$WORKDIR/coord.log" -workers 1 -shard-workers "$W1,$W2" -debug-addr 127.0.0.1:0)
# the weighted coordinator's opt-in debug listener (pprof + traces)
DEBUG=$(sed -n 's#^imdppd debug listening on ##p' "$WORKDIR/coord.log")
[ -n "$DEBUG" ] || { echo "coordinator printed no debug listener line" >&2; cat "$WORKDIR/coord.log" >&2; exit 1; }
COORDS=$(boot "$WORKDIR/coords.log" -workers 1 -shard-workers "$W1,$W2" -shard-weighted=false -shard-speculate=false)
echo "workers at $W1 $W2; weighted coordinator at $COORD; static coordinator at $COORDS; local reference at $LOCAL"

curl -sf "$W1/healthz" | jq -e '.ok and .worker' >/dev/null
curl -sf "$COORD/metrics" | jq -e '.shard.workers == 2 and .shard.healthy == 2' >/dev/null ||
    { echo "weighted coordinator does not see 2 healthy workers" >&2; curl -s "$COORD/metrics" >&2; exit 1; }
curl -sf "$COORD/metrics" | jq -e '.shard.weighted == true and .shard.speculation == true' >/dev/null ||
    { echo "weighted coordinator misreports its planner" >&2; curl -s "$COORD/metrics" >&2; exit 1; }
curl -sf "$COORDS/metrics" | jq -e '.shard.weighted == false and .shard.speculation == false' >/dev/null ||
    { echo "static coordinator misreports its planner" >&2; curl -s "$COORDS/metrics" >&2; exit 1; }

# --- sharded σ vs local σ: bit-identical in both planning modes ------
SIGMA_REQ='{"dataset":"amazon","scale":0.05,"budget":1000,"t":4,"mc":256,"seed":7,"seeds":[{"user":1,"item":0,"t":1},{"user":5,"item":2,"t":2}]}'
S_SHARD=$(curl -sf -X POST "$COORD/v1/sigma" -d "$SIGMA_REQ" | jq -r .sigma)
S_SHARDS=$(curl -sf -X POST "$COORDS/v1/sigma" -d "$SIGMA_REQ" | jq -r .sigma)
S_LOCAL=$(curl -sf -X POST "$LOCAL/v1/sigma" -d "$SIGMA_REQ" | jq -r .sigma)
[ "$S_SHARD" = "$S_LOCAL" ] ||
    { echo "weighted sharded σ $S_SHARD != local σ $S_LOCAL" >&2; exit 1; }
[ "$S_SHARDS" = "$S_LOCAL" ] ||
    { echo "static sharded σ $S_SHARDS != local σ $S_LOCAL" >&2; exit 1; }
echo "sigma OK: weighted == static == local == $S_SHARD"

# --- full sharded solve vs local solve: bit-identical ----------------
SOLVE_REQ='{"dataset":"amazon","scale":0.05,"budget":100,"t":4,"mc":8,"mcsi":4,"candidate_cap":64,"seed":1}'
solve_sigma() {
    local base=$1
    local job view status
    job=$(curl -sf -X POST "$base/v1/solve" -d "$SOLVE_REQ" | jq -r .job_id)
    for _ in $(seq 1 600); do
        view=$(curl -sf "$base/v1/jobs/$job")
        status=$(echo "$view" | jq -r .status)
        case "$status" in
            done) echo "$view" | jq -r .solution.sigma; return ;;
            failed | cancelled) echo "solve $status on $base: $view" >&2; return 1 ;;
        esac
        sleep 0.2
    done
    echo "solve never finished on $base" >&2
    return 1
}
SOLVE_SHARD=$(solve_sigma "$COORD")
SOLVE_SHARDS=$(solve_sigma "$COORDS")
SOLVE_LOCAL=$(solve_sigma "$LOCAL")
[ "$SOLVE_SHARD" = "$SOLVE_LOCAL" ] ||
    { echo "weighted sharded solve σ $SOLVE_SHARD != local $SOLVE_LOCAL" >&2; exit 1; }
[ "$SOLVE_SHARDS" = "$SOLVE_LOCAL" ] ||
    { echo "static sharded solve σ $SOLVE_SHARDS != local $SOLVE_LOCAL" >&2; exit 1; }
echo "solve OK: weighted == static == local == $SOLVE_SHARD"

# --- the fleet actually did the work ---------------------------------
SERVED1=$(curl -sf "$W1/metrics" | jq -r .shards_served)
SERVED2=$(curl -sf "$W2/metrics" | jq -r .shards_served)
TOTAL_SERVED=$((SERVED1 + SERVED2))
[ "$TOTAL_SERVED" -gt 0 ] || { echo "no shards reached the workers" >&2; exit 1; }
for c in "$COORD" "$COORDS"; do
    curl -sf "$c/metrics" | jq -e '.shard.local_fallbacks == 0' >/dev/null ||
        { echo "coordinator $c fell back to local compute" >&2; curl -s "$c/metrics" >&2; exit 1; }
done
echo "fleet OK: $TOTAL_SERVED shards served ($SERVED1 + $SERVED2)"

# --- one joined trace across coordinator and workers (§11) -----------
TRACES=$(curl -sf "$DEBUG/debug/traces")
echo "$TRACES" | jq -e '
    ([.traces[] | select(
        ([.spans[].name] | index("shard_rpc"))
        and ([.spans[].name] | index("worker_estimate")))] | length) >= 1
    and all(.traces[]; .trace_id as $t | all(.spans[]; .trace_id == $t))' >/dev/null ||
    { echo "no joined coordinator+worker trace at $DEBUG/debug/traces" >&2; echo "$TRACES" >&2; exit 1; }
echo "trace OK: coordinator and worker spans joined under one trace id"
curl -sf "$COORD/metrics" | jq -e '.latency.shard_rpc.count >= 1 and .latency.shard_rpc.p50_ms >= 0' >/dev/null ||
    { echo "shard_rpc latency histogram empty on the coordinator" >&2; curl -s "$COORD/metrics" >&2; exit 1; }

# --- wire/planning metrics present and sane --------------------------
METRICS=$(curl -sf "$COORD/metrics")
METRICSS=$(curl -sf "$COORDS/metrics")
for m in "$METRICS" "$METRICSS"; do
    echo "$m" | jq -e '.shard.bytes_tx > 0 and .shard.bytes_rx > 0 and .shard.speculative_hits >= 0' >/dev/null ||
        { echo "coordinator wire counters missing" >&2; echo "$m" >&2; exit 1; }
done
echo "$METRICS" | jq -e '[.shard.remotes[] | select(.shards > 0 and .ewma_samples_per_sec > 0)] | length >= 1' >/dev/null ||
    { echo "no remote reports a throughput EWMA" >&2; echo "$METRICS" >&2; exit 1; }

echo "wire OK: weighted $(echo "$METRICS" | jq -r '.shard.bytes_tx + .shard.bytes_rx') bytes, static $(echo "$METRICSS" | jq -r '.shard.bytes_tx + .shard.bytes_rx') bytes"

# --- trajectory records ----------------------------------------------
record() {
    local metrics=$1 sigma=$2
    echo "$metrics" | jq -c "{ts: (now | floor), sigma: $sigma,
        weighted: .shard.weighted, workers: .shard.workers, healthy: .shard.healthy,
        shards_served: $TOTAL_SERVED, redispatches: .shard.redispatches,
        speculative_hits: .shard.speculative_hits,
        bytes_tx: .shard.bytes_tx, bytes_rx: .shard.bytes_rx,
        samples_per_sec, samples_simulated, solve_seconds}" >>BENCH_shard.json
}
record "$METRICS" "$SOLVE_SHARD"
record "$METRICSS" "$SOLVE_SHARDS"
# and the imdppbench wire bench
go run ./cmd/imdppbench -fig shard -preset Amazon -scale 0.05 -mc 8 -shardout BENCH_shard.json
echo "shard smoke OK; appended to BENCH_shard.json:"
tail -3 BENCH_shard.json
