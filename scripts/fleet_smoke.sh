#!/usr/bin/env bash
# Fleet smoke (DESIGN.md §13): boots a dynamic coordinator plus three
# workers that register themselves — one of them also listed in
# -shard-workers, so its seeded entry and its registration must become
# one registry entry — then subjects the fleet to the
# failures the elastic-membership layer exists for — a kill -9
# mid-solve, a SIGTERM graceful drain mid-solve, and a rejoin of the
# killed worker — asserting every solve stays bit-identical to a plain
# single-process daemon with zero failed jobs. The registration-time
# compatibility check is asserted directly: every registered remote is
# alive BEFORE the coordinator has sent it a single estimate RPC, and a
# raw registration advertising another frame version is refused with a
# typed 409 incompatible_worker. A SIGHUP re-reads the
# -tenant-quotas @file and swaps the scheduler quota table without
# dropping queued jobs. Appends a kind:"fleet" record to
# BENCH_shard.json.
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

# boot <logfile> <args...>: starts imdppd, scrapes the readiness line,
# echoes "pid url"
boot() {
    local log=$1
    shift
    "$BIN" "$@" >"$log" 2>&1 &
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

# W1 is listed in -shard-workers, so its address must be known before
# the coordinator boots: a throwaway daemon picks a free port, then
# W1 reuses it (as the rejoin below reuses W3's)
read -r HOLDPID W1 < <(boot "$WORKDIR/hold.log" -addr 127.0.0.1:0 -worker)
kill -9 "$HOLDPID"
read -r CPID COORD < <(boot "$WORKDIR/coord.log" -addr 127.0.0.1:0 -workers 1 \
    -shard-dynamic -shard-heartbeat 300ms -shard-workers "$W1" \
    -tenant-quotas "@$WORKDIR/quotas")
read -r _ LOCAL < <(boot "$WORKDIR/local.log" -addr 127.0.0.1:0 -workers 1)
read -r _ W1 < <(boot "$WORKDIR/w1.log" -addr "${W1#http://}" -worker -register "$COORD")
read -r W2PID W2 < <(boot "$WORKDIR/w2.log" -addr 127.0.0.1:0 -worker -register "$COORD")
read -r W3PID W3 < <(boot "$WORKDIR/w3.log" -addr 127.0.0.1:0 -worker -register "$COORD")
echo "coordinator at $COORD; workers at $W1 $W2 $W3; local reference at $LOCAL"

# the listed W1 registered into its seeded entry: 3 entries, not 4
wait_jq "$COORD/metrics" '.shard.fleet.registered == 3 and .shard.workers == 3' \
    "3 workers registered as 3 entries"

# --- compatibility is checked once, at registration -----------------
# zero estimate RPCs have been sent, yet every remote is alive: the
# capability advertisement is the only compatibility check there is
curl -sf "$COORD/metrics" | jq -e '
    (.shard.remotes | length) == 3
    and all(.shard.remotes[]; .registered and .state == "alive")' >/dev/null ||
    { echo "registered workers not alive before any estimate RPC" >&2; curl -s "$COORD/metrics" >&2; exit 1; }
# a build advertising another frame version is refused at the door
REFUSAL=$(curl -s -o "$WORKDIR/refusal.json" -w '%{http_code}' -X POST "$COORD/v1/shard/register" \
    -H 'Content-Type: application/json' \
    -d '{"url":"http://127.0.0.1:9","caps":{"codec_version":0,"capacity":1}}')
[ "$REFUSAL" = 409 ] && jq -e '.code == "incompatible_worker"' "$WORKDIR/refusal.json" >/dev/null ||
    { echo "incompatible registration not refused 409: $REFUSAL $(cat "$WORKDIR/refusal.json")" >&2; exit 1; }
curl -sf "$COORD/metrics" | jq -e '.shard.fleet.registered == 3 and .shard.workers == 3' >/dev/null ||
    { echo "refused registration changed the fleet" >&2; curl -s "$COORD/metrics" >&2; exit 1; }
echo "compatibility OK: 3 remotes alive before any estimate RPC; codec_version 0 refused 409 incompatible_worker"

# solve_req <seed>: distinct seeds keep each solve out of the result
# cache — every churn scenario must do real fleet work, not replay a
# cached answer. Sized to run a few seconds so a kill or drain 0.5s
# in genuinely lands mid-solve.
solve_req() {
    echo "{\"dataset\":\"amazon\",\"scale\":0.5,\"budget\":800,\"t\":4,\"mc\":64,\"mcsi\":16,\"candidate_cap\":256,\"seed\":$1}"
}

# solve_async <base> <seed>: submits, echoes the job id
solve_async() {
    curl -sf -X POST "$1/v1/solve" -d "$(solve_req "$2")" | jq -r .job_id
}
# solve_wait <base> <job>: polls to completion, echoes σ
solve_wait() {
    local base=$1 job=$2 view status
    for _ in $(seq 1 600); do
        view=$(curl -sf "$base/v1/jobs/$job")
        status=$(echo "$view" | jq -r .status)
        case "$status" in
            done) echo "$view" | jq -r .solution.sigma; return ;;
            failed | cancelled) echo "solve $status: $view" >&2; return 1 ;;
        esac
        sleep 0.2
    done
    echo "solve never finished on $base" >&2
    return 1
}

# local reference answers, one per churn scenario (distinct seeds)
LOCAL1=$(solve_wait "$LOCAL" "$(solve_async "$LOCAL" 1)")
LOCAL2=$(solve_wait "$LOCAL" "$(solve_async "$LOCAL" 2)")
LOCAL3=$(solve_wait "$LOCAL" "$(solve_async "$LOCAL" 3)")

# --- kill -9 mid-solve ----------------------------------------------
JOB=$(solve_async "$COORD" 1)
# let the fleet pick up work, then kill a worker without ceremony
sleep 0.5
kill -9 "$W3PID"
SIGMA_KILL=$(solve_wait "$COORD" "$JOB")
[ "$SIGMA_KILL" = "$LOCAL1" ] ||
    { echo "kill -9 broke bit-identity: $SIGMA_KILL != $LOCAL1" >&2; exit 1; }
echo "kill OK: σ == local == $SIGMA_KILL"
wait_jq "$COORD/metrics" '.shard.fleet.suspect + .shard.fleet.dead >= 1' "killed worker detected"

# --- SIGTERM graceful drain mid-solve -------------------------------
JOB=$(solve_async "$COORD" 2)
sleep 0.5
kill -TERM "$W2PID"
SIGMA_DRAIN=$(solve_wait "$COORD" "$JOB")
[ "$SIGMA_DRAIN" = "$LOCAL2" ] ||
    { echo "drain broke bit-identity: $SIGMA_DRAIN != $LOCAL2" >&2; exit 1; }
wait "$W2PID" 2>/dev/null || true
# the drained worker deregistered on its way out: 2 registered remain
# (the kill -9 victim never deregisters — it is dead, not gone)
wait_jq "$COORD/metrics" '.shard.fleet.registered == 2' "drained worker deregistered"
echo "drain OK: σ == local == $SIGMA_DRAIN; worker deregistered cleanly"

# --- zero surfaced errors across all the churn ----------------------
curl -sf "$COORD/metrics" | jq -e '.jobs_failed == 0' >/dev/null ||
    { echo "fleet churn surfaced failed jobs" >&2; curl -s "$COORD/metrics" >&2; exit 1; }

# --- rejoin: restart the killed worker on its old address -----------
# re-registering the same URL revives the existing (dead) registry
# entry, so the fleet is back to 2 registered workers (the drained one
# deregistered for good), none dead, with a rejoin on the books
# (W1's registration may already count a rejoin: its seeded entry
# failed the startup probe, so this one is measured from here)
W3ADDR=${W3#http://}
REJOINS=$(curl -sf "$COORD/metrics" | jq .shard.fleet.rejoin_count)
read -r _ W3 < <(boot "$WORKDIR/w3b.log" -addr "$W3ADDR" -worker -register "$COORD")
wait_jq "$COORD/metrics" \
    ".shard.fleet.registered == 2 and .shard.fleet.rejoin_count > $REJOINS and .shard.fleet.dead == 0 and .shard.healthy == 2" \
    "killed worker rejoined"
SIGMA_REJOIN=$(solve_wait "$COORD" "$(solve_async "$COORD" 3)")
[ "$SIGMA_REJOIN" = "$LOCAL3" ] ||
    { echo "rejoin broke bit-identity: $SIGMA_REJOIN != $LOCAL3" >&2; exit 1; }
echo "rejoin OK: worker back in rotation, σ == local == $SIGMA_REJOIN"

# --- SIGHUP swaps the quota table without a restart -----------------
echo "default:1:3:4" >"$WORKDIR/quotas"
kill -HUP "$CPID"
wait_jq "$COORD/metrics" '.tenants.default.max_queue == 3' "quota reload applied"
echo "reload OK: default tenant max_queue 8 -> 3 via SIGHUP"

# --- trajectory record ----------------------------------------------
METRICS=$(curl -sf "$COORD/metrics")
echo "$METRICS" | jq -c --arg sigma "$SIGMA_REJOIN" '{ts: (now | floor), kind: "fleet",
    sigma: ($sigma | tonumber), registered: .shard.fleet.registered,
    heartbeats: .shard.fleet.heartbeats, rejoin_count: .shard.fleet.rejoin_count,
    breaker_open: .shard.fleet.breaker_open, redispatches: .shard.redispatches,
    local_fallbacks: .shard.local_fallbacks, jobs_failed,
    samples_per_sec, samples_simulated, solve_seconds}' >>BENCH_shard.json
echo "fleet smoke OK; appended to BENCH_shard.json:"
tail -1 BENCH_shard.json
