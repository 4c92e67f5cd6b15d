#!/usr/bin/env bash
# Shard smoke: boots two estimator workers plus one coordinator over
# them and drives a sharded σ evaluation and a full sharded solve over
# HTTP. Every result must be bit-identical to a plain single-process
# daemon (the DESIGN.md §7 contract made observable end to end), both
# workers must serve shards (the even split gives each a range), and
# the wire metrics (bytes_tx/bytes_rx, speculative_hits) must be
# present and sane.
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
    # create the log before the daemon does: the readiness loop's first
    # sed may otherwise run before the background shell opens it
    : >"$log"
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
# the coordinator's opt-in debug listener (pprof + traces)
DEBUG=$(sed -n 's#^imdppd debug listening on ##p' "$WORKDIR/coord.log")
[ -n "$DEBUG" ] || { echo "coordinator printed no debug listener line" >&2; cat "$WORKDIR/coord.log" >&2; exit 1; }
echo "workers at $W1 $W2; coordinator at $COORD; local reference at $LOCAL"

curl -sf "$W1/healthz" | jq -e '.ok and .worker' >/dev/null
curl -sf "$COORD/metrics" | jq -e '.shard.workers == 2 and .shard.healthy == 2' >/dev/null ||
    { echo "coordinator does not see 2 healthy workers" >&2; curl -s "$COORD/metrics" >&2; exit 1; }

# --- sharded σ vs local σ: bit-identical -----------------------------
SIGMA_REQ='{"dataset":"amazon","scale":0.05,"budget":1000,"t":4,"mc":256,"seed":7,"seeds":[{"user":1,"item":0,"t":1},{"user":5,"item":2,"t":2}]}'
S_SHARD=$(curl -sf -X POST "$COORD/v1/sigma" -d "$SIGMA_REQ" | jq -r .sigma)
S_LOCAL=$(curl -sf -X POST "$LOCAL/v1/sigma" -d "$SIGMA_REQ" | jq -r .sigma)
[ "$S_SHARD" = "$S_LOCAL" ] ||
    { echo "sharded σ $S_SHARD != local σ $S_LOCAL" >&2; exit 1; }
echo "sigma OK: sharded == local == $S_SHARD"

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
SOLVE_LOCAL=$(solve_sigma "$LOCAL")
[ "$SOLVE_SHARD" = "$SOLVE_LOCAL" ] ||
    { echo "sharded solve σ $SOLVE_SHARD != local $SOLVE_LOCAL" >&2; exit 1; }
echo "solve OK: sharded == local == $SOLVE_SHARD"

# --- the fleet actually did the work ---------------------------------
SERVED1=$(curl -sf "$W1/metrics" | jq -r .shards_served)
SERVED2=$(curl -sf "$W2/metrics" | jq -r .shards_served)
TOTAL_SERVED=$((SERVED1 + SERVED2))
[ "$TOTAL_SERVED" -gt 0 ] || { echo "no shards reached the workers" >&2; exit 1; }
curl -sf "$COORD/metrics" | jq -e '.shard.local_fallbacks == 0' >/dev/null ||
    { echo "coordinator fell back to local compute" >&2; curl -s "$COORD/metrics" >&2; exit 1; }
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

# --- wire metrics present and sane; both workers served --------------
METRICS=$(curl -sf "$COORD/metrics")
echo "$METRICS" | jq -e '.shard.bytes_tx > 0 and .shard.bytes_rx > 0 and .shard.speculative_hits >= 0' >/dev/null ||
    { echo "coordinator wire counters missing" >&2; echo "$METRICS" >&2; exit 1; }
echo "$METRICS" | jq -e '[.shard.remotes[] | select(.shards > 0)] | length == 2' >/dev/null ||
    { echo "a worker served no shard under the even split" >&2; echo "$METRICS" >&2; exit 1; }

echo "wire OK: $(echo "$METRICS" | jq -r '.shard.bytes_tx + .shard.bytes_rx') bytes"
echo "shard smoke OK"
