#!/usr/bin/env bash
# Shard smoke: boots two estimator workers plus one coordinator over
# them and drives a sharded σ evaluation and a full sharded solve over
# HTTP. Every result must be bit-identical to a plain single-process
# daemon (the DESIGN.md §7 contract made observable end to end), a
# repeated σ must be served by the coordinator's grid cache without
# reaching a worker (§10), both
# workers must serve shards (the even split gives each a range), and
# the wire metrics (bytes_tx/bytes_rx, speculative_hits) must be
# present and sane. Then the listed-worker lifecycle (DESIGN.md §13):
# a kill -9 of one worker mid-solve leaves σ bit-identical with zero
# failed jobs, the worker restarted on its old address rejoins through
# the failure detector's probe, a SIGTERM of a worker mid-solve keeps σ
# bit-identical while the worker exits within its shutdown grace, and
# a SIGHUP swaps the coordinator's tenant quota table without a
# restart.
set -euo pipefail

cd "$(dirname "$0")/.."

WORKDIR=$(mktemp -d)
BIN="$WORKDIR/imdppd"
go build -o "$BIN" ./cmd/imdppd

# boot runs inside <(...) subshells, so daemon pids go to a file a
# shell variable would not survive
cleanup() {
    if [ -f "$WORKDIR/pids" ]; then
        while read -r pid; do
            kill -9 "$pid" 2>/dev/null || true
        done <"$WORKDIR/pids"
    fi
    rm -rf "$WORKDIR"
}
trap cleanup EXIT

# boot <logfile> <args...>: starts imdppd on a free port (a later -addr
# in args wins), scrapes the readiness line, echoes "pid url"
boot() {
    local log=$1
    shift
    # create the log before the daemon does: the readiness loop's first
    # sed may otherwise run before the background shell opens it
    : >"$log"
    "$BIN" -addr 127.0.0.1:0 "$@" >"$log" 2>&1 &
    local pid=$!
    echo "$pid" >>"$WORKDIR/pids"
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
    echo "$pid $addr"
}

# wait_jq <url> <jq-expr> <what>: polls until the expression is true
wait_jq() {
    local url=$1 expr=$2 what=$3
    for _ in $(seq 1 150); do
        if curl -sf "$url" | jq -e "$expr" >/dev/null 2>&1; then
            return 0
        fi
        sleep 0.2
    done
    echo "timeout waiting for: $what" >&2
    curl -s "$url" >&2 || true
    exit 1
}

echo "default:1:8:4" >"$WORKDIR/quotas"
read -r _ W1 < <(boot "$WORKDIR/worker1.log" -worker)
read -r W2PID W2 < <(boot "$WORKDIR/worker2.log" -worker)
read -r _ LOCAL < <(boot "$WORKDIR/local.log" -workers 1)
read -r CPID COORD < <(boot "$WORKDIR/coord.log" -workers 1 -shard-workers "$W1,$W2" \
    -debug-addr 127.0.0.1:0 -tenant-quotas "@$WORKDIR/quotas")
# the coordinator's opt-in debug listener (pprof + traces)
DEBUG=$(sed -n 's#^imdppd debug listening on ##p' "$WORKDIR/coord.log")
[ -n "$DEBUG" ] || { echo "coordinator printed no debug listener line" >&2; cat "$WORKDIR/coord.log" >&2; exit 1; }
echo "workers at $W1 $W2; coordinator at $COORD; local reference at $LOCAL"

# the worker's probe answer names the frame version the coordinator's
# failure detector checks (DESIGN.md §13)
curl -sf "$W1/healthz" | jq -e '.ok and .codec_version > 0' >/dev/null ||
    { echo "worker healthz does not name its frame version" >&2; curl -s "$W1/healthz" >&2; exit 1; }
curl -sf "$COORD/metrics" | jq -e '.shard.workers == 2 and .shard.healthy == 2' >/dev/null ||
    { echo "coordinator does not see 2 healthy workers" >&2; curl -s "$COORD/metrics" >&2; exit 1; }

# --- sharded σ vs local σ: bit-identical -----------------------------
SIGMA_REQ='{"dataset":"amazon","scale":0.05,"budget":1000,"t":4,"mc":256,"seed":7,"seeds":[{"user":1,"item":0,"t":1},{"user":5,"item":2,"t":2}]}'
S_SHARD=$(curl -sf -X POST "$COORD/v1/sigma" -d "$SIGMA_REQ" | jq -r .sigma)
S_LOCAL=$(curl -sf -X POST "$LOCAL/v1/sigma" -d "$SIGMA_REQ" | jq -r .sigma)
[ "$S_SHARD" = "$S_LOCAL" ] ||
    { echo "sharded σ $S_SHARD != local σ $S_LOCAL" >&2; exit 1; }
echo "sigma OK: sharded == local == $S_SHARD"

# --- a repeated sharded σ is the coordinator cache's (§10) -----------
# the grid cache sits in front of the fleet: the repeat is a hit on the
# coordinator and sends no shard RPC
HITS=$(curl -sf "$COORD/metrics" | jq -r .grid.hits)
SERVED1=$(curl -sf "$W1/metrics" | jq -r .shards_served)
SERVED2=$(curl -sf "$W2/metrics" | jq -r .shards_served)
S_AGAIN=$(curl -sf -X POST "$COORD/v1/sigma" -d "$SIGMA_REQ" | jq -r .sigma)
[ "$S_AGAIN" = "$S_SHARD" ] ||
    { echo "repeated sharded σ $S_AGAIN != first $S_SHARD" >&2; exit 1; }
curl -sf "$COORD/metrics" | jq -e ".grid.hits > $HITS" >/dev/null ||
    { echo "the repeated sharded σ was no coordinator grid hit" >&2; curl -s "$COORD/metrics" >&2; exit 1; }
curl -sf "$W1/metrics" | jq -e ".shards_served == $SERVED1" >/dev/null &&
    curl -sf "$W2/metrics" | jq -e ".shards_served == $SERVED2" >/dev/null ||
    { echo "the repeated sharded σ reached a worker" >&2; exit 1; }
echo "cache OK: repeated sharded σ == $S_AGAIN from the coordinator cache, no shard RPC"

# --- full sharded solve vs local solve: bit-identical ----------------
SOLVE_REQ='{"dataset":"amazon","scale":0.05,"budget":100,"t":4,"mc":8,"mcsi":4,"candidate_cap":64,"seed":1}'
# solve_wait <base> <job>: polls to completion, echoes σ
solve_wait() {
    local base=$1 job=$2 view status
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
# solve_async <base> <request>: submits, echoes the job id
solve_async() {
    curl -sf -X POST "$1/v1/solve" -d "$2" | jq -r .job_id
}
SOLVE_SHARD=$(solve_wait "$COORD" "$(solve_async "$COORD" "$SOLVE_REQ")")
SOLVE_LOCAL=$(solve_wait "$LOCAL" "$(solve_async "$LOCAL" "$SOLVE_REQ")")
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

# --- kill -9 of a listed worker mid-solve ----------------------------
# sized to run a few seconds, so the kill lands while batches are still
# being dispatched; a distinct seed keeps it out of the result cache
KILL_REQ='{"dataset":"amazon","scale":0.5,"budget":800,"t":4,"mc":64,"mcsi":16,"candidate_cap":256,"seed":2}'
KILL_LOCAL=$(solve_wait "$LOCAL" "$(solve_async "$LOCAL" "$KILL_REQ")")
SERVED=$(curl -sf "$W2/metrics" | jq .shards_served)
JOB=$(solve_async "$COORD" "$KILL_REQ")
# the victim has served a shard of this solve and the solve still runs
wait_jq "$W2/metrics" ".shards_served > $SERVED" "the solve to reach worker 2"
curl -sf "$COORD/v1/jobs/$JOB" | jq -e '.status == "running"' >/dev/null ||
    { echo "the solve finished before the kill; the kill phase proves nothing" >&2; exit 1; }
kill -9 "$W2PID"
SIGMA_KILL=$(solve_wait "$COORD" "$JOB")
[ "$SIGMA_KILL" = "$KILL_LOCAL" ] ||
    { echo "kill -9 broke bit-identity: $SIGMA_KILL != $KILL_LOCAL" >&2; exit 1; }
curl -sf "$COORD/metrics" | jq -e '.jobs_failed == 0 and .shard.redispatches + .shard.local_fallbacks >= 1' >/dev/null ||
    { echo "kill -9 surfaced a failed job or was never failed over" >&2; curl -s "$COORD/metrics" >&2; exit 1; }
wait_jq "$COORD/metrics" '.shard.healthy == 1 and .shard.fleet.suspect + .shard.fleet.dead == 1' "killed worker out of rotation"
echo "kill OK: σ == local == $SIGMA_KILL, zero failed jobs"

# --- restart on the same address: the probe brings it back ----------
read -r W2PID W2 < <(boot "$WORKDIR/worker2b.log" -worker -addr "${W2#http://}")
wait_jq "$COORD/metrics" '.shard.healthy == 2 and .shard.fleet.rejoin_count >= 1 and .shard.fleet.dead == 0' \
    "restarted worker back in rotation"
# a fresh σ (new sample seed, so no cache answers it) reaches the
# restarted process, which re-learns the problem by re-upload
REJOIN_REQ='{"dataset":"amazon","scale":0.05,"budget":1000,"t":4,"mc":256,"seed":8,"seeds":[{"user":1,"item":0,"t":1},{"user":5,"item":2,"t":2}]}'
S_SHARD=$(curl -sf -X POST "$COORD/v1/sigma" -d "$REJOIN_REQ" | jq -r .sigma)
S_LOCAL=$(curl -sf -X POST "$LOCAL/v1/sigma" -d "$REJOIN_REQ" | jq -r .sigma)
[ "$S_SHARD" = "$S_LOCAL" ] ||
    { echo "after rejoin sharded σ $S_SHARD != local σ $S_LOCAL" >&2; exit 1; }
curl -sf "$W2/metrics" | jq -e '.shards_served > 0' >/dev/null ||
    { echo "the restarted worker served no shard" >&2; exit 1; }
echo "rejoin OK: worker back in rotation through the probe, σ == local == $S_SHARD"

# --- SIGTERM of a listed worker mid-solve -----------------------------
# a worker's shard streams are hijacked connections, so its shutdown
# writes each in-flight reply and closes every stream itself; it must
# exit within the 30 s grace while the solve fails over bit-identically
TERM_REQ='{"dataset":"amazon","scale":0.5,"budget":800,"t":4,"mc":64,"mcsi":16,"candidate_cap":256,"seed":3}'
TERM_LOCAL=$(solve_wait "$LOCAL" "$(solve_async "$LOCAL" "$TERM_REQ")")
SERVED=$(curl -sf "$W2/metrics" | jq .shards_served)
JOB=$(solve_async "$COORD" "$TERM_REQ")
wait_jq "$W2/metrics" ".shards_served > $SERVED" "the solve to reach the restarted worker 2"
curl -sf "$COORD/v1/jobs/$JOB" | jq -e '.status == "running"' >/dev/null ||
    { echo "the solve finished before the SIGTERM; the phase proves nothing" >&2; exit 1; }
kill -TERM "$W2PID"
TERM_START=$(date +%s)
SIGMA_TERM=$(solve_wait "$COORD" "$JOB")
[ "$SIGMA_TERM" = "$TERM_LOCAL" ] ||
    { echo "SIGTERM broke bit-identity: $SIGMA_TERM != $TERM_LOCAL" >&2; exit 1; }
# alive <pid>: the process runs (a zombie awaiting its reaper does not)
alive() {
    local stat
    stat=$(ps -o stat= -p "$1" 2>/dev/null) || return 1
    [ -n "$stat" ] && [ "${stat#Z}" = "$stat" ]
}
for _ in $(seq 1 300); do
    alive "$W2PID" || break
    sleep 0.1
done
! alive "$W2PID" || { echo "worker 2 still runs 30 s after SIGTERM" >&2; cat "$WORKDIR/worker2b.log" >&2; exit 1; }
curl -sf "$COORD/metrics" | jq -e '.jobs_failed == 0' >/dev/null ||
    { echo "SIGTERM surfaced a failed job" >&2; curl -s "$COORD/metrics" >&2; exit 1; }
echo "sigterm OK: σ == local == $SIGMA_TERM, worker gone $(($(date +%s) - TERM_START)) s after SIGTERM"

# --- SIGHUP swaps the quota table without a restart -------------------
echo "default:1:3:4" >"$WORKDIR/quotas"
kill -HUP "$CPID"
wait_jq "$COORD/metrics" '.tenants.default.max_queue == 3' "quota reload applied"
echo "reload OK: default tenant max_queue 8 -> 3 via SIGHUP"
echo "shard smoke OK"
