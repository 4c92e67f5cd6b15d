#!/usr/bin/env bash
# Load smoke (DESIGN.md §11): N concurrent clients against one imdppd,
# each submitting a distinct-seeded solve so nothing coalesces or hits
# the result cache — every client pays a real solve. Asserts the
# latency histograms counted it: at least one queue-wait and one
# solve-wall sample per client. Its solves are short enough that the
# queue barely forms, so this phase does not show that jobs wait; a
# queue-depth assertion needs the injected scheduler clock of ROADMAP
# item 11.
#
# A second multi-tenant phase (DESIGN.md §12) restarts the daemon with
# -tenant-quotas: one greedy tenant (weight 1, tiny queue, one job in
# flight) floods submissions in one concurrent batch while two light
# tenants (weight 4) trickle theirs. Asserts the greedy flood is shed
# with typed quota_exceeded 429s bearing Retry-After and that the light
# tenants' p99 queue wait stays bounded despite the flood.
set -euo pipefail

cd "$(dirname "$0")/.."

CLIENTS=${CLIENTS:-6}
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
echo "imdppd at $ADDR ($CLIENTS concurrent clients)"

# submit everything up front: distinct seeds defeat coalescing and the
# result cache, so CLIENTS solves contend for 2 workers
JOBS=()
for i in $(seq 1 "$CLIENTS"); do
    REQ=$(jq -nc --argjson s "$i" \
        '{dataset: "amazon", scale: 0.05, budget: 100, t: 4, mc: 8, mcsi: 4, candidate_cap: 48, seed: $s}')
    R=$(curl -sf -X POST "$ADDR/v1/solve" -d "$REQ")
    [ "$(echo "$R" | jq -r .cache_hit)" = "false" ] || { echo "distinct-seed submit hit the cache: $R" >&2; exit 1; }
    JOBS+=("$(echo "$R" | jq -r .job_id)")
done

for JOB in "${JOBS[@]}"; do
    ST=""
    for _ in $(seq 1 600); do
        ST=$(curl -sf "$ADDR/v1/jobs/$JOB" | jq -r .status)
        [ "$ST" = done ] && break
        case "$ST" in
            failed | cancelled)
                echo "job $JOB finished $ST" >&2
                exit 1
                ;;
        esac
        sleep 0.2
    done
    [ "$ST" = done ] || { echo "job $JOB never finished" >&2; exit 1; }
done
echo "all $CLIENTS solves done"

METRICS=$(curl -sf "$ADDR/metrics")
echo "$METRICS" | jq -e --argjson n "$CLIENTS" '
    .jobs_completed >= $n
    and .latency.queue_wait.count >= $n
    and .latency.solve_wall.count >= $n
    and .latency.solve_wall.p99_ms >= .latency.solve_wall.p50_ms' >/dev/null ||
    { echo "latency counters below client count: $(echo "$METRICS" | jq .latency)" >&2; exit 1; }

echo "load smoke OK: $(echo "$METRICS" | jq -c '{p50_queue_ms: .latency.queue_wait.p50_ms, p99_queue_ms: .latency.queue_wait.p99_ms, p50_solve_ms: .latency.solve_wall.p50_ms, p99_solve_ms: .latency.solve_wall.p99_ms}')"

# ---- multi-tenant phase: greedy flood vs light tenants ---------------
kill "$PID" 2>/dev/null || true
wait "$PID" 2>/dev/null || true

GREEDY=${GREEDY:-12}
LIGHT=${LIGHT:-3} # jobs per light tenant
"$BIN" -addr 127.0.0.1:0 -workers 2 \
    -tenant-quotas 'greedy:1:4:1,light1:4,light2:4' >"$LOG" 2>&1 &
PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR=$(sed -n 's#^imdppd listening on ##p' "$LOG")
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "multi-tenant imdppd never became ready:" >&2; cat "$LOG" >&2; exit 1; }
echo "multi-tenant imdppd at $ADDR (greedy flood $GREEDY, light 2x$LIGHT)"

MT_JOBS=()
SHED=0
# the greedy tenant floods: weight 1, max_queue 4, one job in flight —
# admissions beyond its queue bound must shed with typed 429s. The whole
# flood is submitted as one concurrent batch, so all of it lands within
# a fraction of one greedy solve (deliberately heavy: big sample counts)
# and the queue bound sheds what does not fit: the shed does not depend
# on how fast the engine solves
FLOOD="$WORKDIR/flood"
mkdir -p "$FLOOD"
SUBMITS=()
for i in $(seq 1 "$GREEDY"); do
    REQ=$(jq -nc --argjson s "$((100 + i))" \
        '{dataset: "amazon", scale: 0.05, budget: 100, t: 4, mc: 8192, mcsi: 512, candidate_cap: 64, seed: $s}')
    curl -s -X POST -H 'X-IMDPP-Tenant: greedy' "$ADDR/v1/solve" -d "$REQ" >"$FLOOD/$i.json" &
    SUBMITS+=($!)
done
wait "${SUBMITS[@]}"
for i in $(seq 1 "$GREEDY"); do
    BODY=$(cat "$FLOOD/$i.json")
    if [ "$(echo "$BODY" | jq -r '.code // empty')" = quota_exceeded ]; then
        SHED=$((SHED + 1))
        RA=$(echo "$BODY" | jq -r '.retry_after_seconds // 0')
        [ "$RA" -ge 1 ] || { echo "shed without Retry-After: $BODY" >&2; exit 1; }
    else
        JOB=$(echo "$BODY" | jq -r '.job_id // empty')
        [ -n "$JOB" ] || { echo "greedy submit neither accepted nor typed-shed: $BODY" >&2; exit 1; }
        MT_JOBS+=("$JOB")
    fi
done
# the light tenants trickle; all must be admitted despite the flood.
# Seeds stay distinct across the two tenants — the content address
# ignores tenancy, so equal-seed requests would coalesce across them
OFFSET=200
for TEN in light1 light2; do
    OFFSET=$((OFFSET + 100))
    for i in $(seq 1 "$LIGHT"); do
        REQ=$(jq -nc --argjson s "$((OFFSET + i))" --arg ten "$TEN" \
            '{dataset: "amazon", scale: 0.05, budget: 100, t: 4, mc: 8, mcsi: 4, candidate_cap: 48, seed: $s, tenant: $ten}')
        R=$(curl -sf -X POST "$ADDR/v1/solve" -d "$REQ")
        MT_JOBS+=("$(echo "$R" | jq -r .job_id)")
    done
done
[ "$SHED" -ge 1 ] || { echo "greedy flood of $GREEDY was never shed" >&2; exit 1; }
echo "greedy shed $SHED of $GREEDY; light tenants all admitted"

for JOB in "${MT_JOBS[@]}"; do
    ST=""
    for _ in $(seq 1 600); do
        ST=$(curl -sf "$ADDR/v1/jobs/$JOB" | jq -r .status)
        [ "$ST" = done ] && break
        case "$ST" in
            failed | cancelled)
                echo "job $JOB finished $ST" >&2
                exit 1
                ;;
        esac
        sleep 0.2
    done
    [ "$ST" = done ] || { echo "job $JOB never finished" >&2; exit 1; }
done

MT=$(curl -sf "$ADDR/metrics")
# per-tenant accounting must be exact, and the light tenants' tail
# queue wait must stay bounded next to the greedy backlog: weighted
# fair scheduling is the whole point of the phase
echo "$MT" | jq -e --argjson shed "$SHED" --argjson light "$LIGHT" '
    .tenants.greedy.shed_quota == $shed
    and .tenants.light1.queue_wait.count >= $light
    and .tenants.light2.queue_wait.count >= $light
    and ([.tenants.light1.queue_wait.p99_ms, .tenants.light2.queue_wait.p99_ms] | max) <=
        ([.tenants.greedy.queue_wait.p99_ms, 1000] | max)' >/dev/null ||
    { echo "tenant fairness assertions failed: $(echo "$MT" | jq .tenants)" >&2; exit 1; }

echo "multi-tenant load smoke OK: $SHED of $GREEDY greedy submissions shed"
