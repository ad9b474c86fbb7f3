#!/usr/bin/env bash
# shard_chaos.sh — shard-kill + survivor-disk-fault chaos gate for the
# sharded fleet tier.
#
# Stands up the full fleet (freshend -shards=K behind its router) with
# race-built binaries, drives a past-knee closed loop through the
# router, and attacks it mid-ramp:
#
#  1. Shard kill: one shard is hard-killed through the chaos admin
#     surface (POST /fleet/kill) while the load keeps coming, then
#     restarted mid-run. The dead shard's keyspace must come back as
#     immediate 503 + Retry-After (counted as shed by loadgen), never
#     as a hang, a mis-route, or a non-503 error; the supervisor must
#     re-level the dead shard's budget slice onto the survivors and
#     give it back after the restart.
#
#  2. Survivor disk fault: a *different* shard's persistence layer is
#     scheduled to fail mid-run (-persist-fault-shard), so the fleet
#     rides a compound failure — one shard dead, one survivor
#     persist-degraded — without the two interacting.
#
# Assertions, in order:
#   - zero non-503 request errors across every stage of the ramp
#   - shed > 0 (the kill window actually turned requests away)
#   - every /status sample with a certified allocation conserves the
#     global budget: Σ shard slices == -bandwidth (1e-6 tolerance)
#   - the killed shard's slice was observed at 0 while it was down
#   - final state: all shards healthy (disk-faulted survivor
#     included), allocation certified, the restarted shard holds
#     budget again, and the fleet's planned PF is back within
#     PF_TOLERANCE of the pre-kill steady state
#
# Knobs come from the environment, CI-sized defaults:
#
#   N=48 SHARDS=3 STAGES=400,20000 ./scripts/shard_chaos.sh
set -euo pipefail

N=${N:-48}
SHARDS=${SHARDS:-3}
KILL_SHARD=${KILL_SHARD:-1}
DISK_SHARD=${DISK_SHARD:-2}
THETA=${THETA:-1.0}
WORKERS=${WORKERS:-16}
MAX_INFLIGHT=${MAX_INFLIGHT:-16}
STAGES=${STAGES:-400,20000}
STAGE_DURATION=${STAGE_DURATION:-8s}
WARMUP=${WARMUP:-1s}
SERVE_FAULT_LATENCY=${SERVE_FAULT_LATENCY:-3ms}
# The drill timeline, seconds after loadgen starts: kill mid-first
# stage, restart while the second (past-knee) stage is still running.
KILL_AT=${KILL_AT:-4}
RESTART_AT=${RESTART_AT:-10}
# Persist ops on the faulted survivor accrue at ~slice/period journal
# appends plus the snapshot cadence; op 60 lands mid-ramp, well after
# readiness.
FAULT_AFTER=${FAULT_AFTER:-60}
FAULT_OPS=${FAULT_OPS:-4}
# The live-binary gate allows looser PF recovery than the race test's
# 1%: loadgen's Zipf traffic keeps reshaping the learned profiles, so
# the planned PF moves with the traffic as well as with the drill.
PF_TOLERANCE=${PF_TOLERANCE:-0.05}
OUT=${OUT:-/tmp/BENCH_shard_chaos.json}
MOCK_ADDR=${MOCK_ADDR:-127.0.0.1:18096}
ROUTER_ADDR=${ROUTER_ADDR:-127.0.0.1:18097}

cd "$(dirname "$0")/.."

bin=$(mktemp -d)
state=$(mktemp -d)
samples=$(mktemp)
cleanup() {
    # shellcheck disable=SC2046
    kill $(jobs -p) 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$bin" "$state" "$samples" "$samples.warm"
}
trap cleanup EXIT

echo "shard_chaos: building race-instrumented binaries" >&2
go build -race -o "$bin" ./cmd/mocksource ./cmd/freshend ./cmd/loadgen ./cmd/freshenctl

wait_ready() {
    local url=$1 tries=150
    until curl -fsS -o /dev/null "$url" 2>/dev/null; do
        tries=$((tries - 1))
        if [ "$tries" -le 0 ]; then
            echo "shard_chaos: $url never became ready" >&2
            return 1
        fi
        sleep 0.2
    done
}

"$bin/mocksource" -addr "$MOCK_ADDR" -n "$N" -mean 2 -period 5s &
wait_ready "http://$MOCK_ADDR/catalog"

# The fleet: K shards behind the router, chaos admin mounted, a
# scheduled disk-fault window armed on a shard the kill won't touch.
BANDWIDTH=$((N / 4))
"$bin/freshend" -addr "$ROUTER_ADDR" -upstream "http://$MOCK_ADDR" \
    -shards "$SHARDS" -placement hash -fleet-chaos \
    -bandwidth "$BANDWIDTH" -period 2s -replan-every 2 -upstream-retries 5 \
    -state-dir "$state" -snapshot-every 2 \
    -max-inflight "$MAX_INFLIGHT" \
    -serve-fault-latency "$SERVE_FAULT_LATENCY" \
    -persist-degrade-after 3 \
    -persist-fault-shard "$DISK_SHARD" \
    -persist-fault-after "$FAULT_AFTER" -persist-fault-ops "$FAULT_OPS" \
    -persist-fault-kind eio &
wait_ready "http://$ROUTER_ADDR/readyz"

# Warm-up load, no drill: the planned PF depends on the learned access
# profile, and a cold fleet's uniform profile looks nothing like the
# Zipf steady state the drill runs under. Converge the profiles first,
# let the traffic-windowed allocator weights settle back after the load
# stops, and only then capture the baseline — so the recovery assertion
# compares two settled post-traffic states, not boot against traffic.
"$bin/loadgen" -mirror "http://$ROUTER_ADDR" -n "$N" -theta "$THETA" \
    -serve-out "$samples.warm" -workers "$WORKERS" -stages "${WARM_STAGES:-400}" \
    -stage-duration "${WARM_DURATION:-6s}" -warmup "$WARMUP"
warm_errors=$(jq '[.stages[].errors] | add' "$samples.warm")
if [ "$warm_errors" != "0" ]; then
    echo "shard_chaos: FAIL: $warm_errors non-503 request errors before any fault was injected" >&2
    exit 1
fi
sleep 6

deadline=$((SECONDS + 30))
pf0=""
while [ "$SECONDS" -lt "$deadline" ]; do
    pf0=$(curl -fsS "http://$ROUTER_ADDR/status" |
        jq -r "select(.allocation_ok and .healthy_shards == $SHARDS) | .planned_perceived_freshness") || true
    [ -n "$pf0" ] && break
    sleep 0.5
done
if [ -z "$pf0" ]; then
    echo "shard_chaos: fleet never reached a certified all-healthy allocation" >&2
    exit 1
fi
echo "shard_chaos: baseline planned PF $pf0 across $SHARDS shards, budget $BANDWIDTH" >&2

# Sample /status on a 500ms cadence for the whole run: one compact
# line per sample — allocation_ok, budget, Σ slices, killed shard's
# slice — so conservation is checked at every observed leveling, not
# just at the end.
(
    while :; do
        curl -fsS "http://$ROUTER_ADDR/status" 2>/dev/null |
            jq -c "[.allocation_ok, .budget, ([.shard_status[].budget_slice] | add), .shard_status[$KILL_SHARD].budget_slice]" \
                >>"$samples" 2>/dev/null || true
        sleep 0.5
    done
) &
sampler=$!

# The drill runs beside the load: kill mid-first-stage, restart while
# the past-knee stage is still hammering the router.
(
    sleep "$KILL_AT"
    echo "shard_chaos: killing shard $KILL_SHARD" >&2
    curl -fsS -X POST "http://$ROUTER_ADDR/fleet/kill?shard=$KILL_SHARD" -o /dev/null
    sleep $((RESTART_AT - KILL_AT))
    echo "shard_chaos: restarting shard $KILL_SHARD" >&2
    curl -fsS -X POST "http://$ROUTER_ADDR/fleet/restart?shard=$KILL_SHARD" -o /dev/null
) &

"$bin/loadgen" -mirror "http://$ROUTER_ADDR" -n "$N" -theta "$THETA" \
    -serve-out "$OUT" -workers "$WORKERS" -stages "$STAGES" \
    -stage-duration "$STAGE_DURATION" -warmup "$WARMUP" \
    -past-knee -status-url "http://$ROUTER_ADDR/status"

kill "$sampler" 2>/dev/null || true

echo "shard_chaos: checking $OUT" >&2

errors=$(jq '[.stages[].errors] | add' "$OUT")
if [ "$errors" != "0" ]; then
    echo "shard_chaos: FAIL: $errors non-503 request errors during the drill" >&2
    exit 1
fi

shed=$(jq '[.stages[].shed] | add' "$OUT")
if [ "$shed" -le 0 ]; then
    echo "shard_chaos: FAIL: no requests shed; the kill window never turned traffic away" >&2
    exit 1
fi

# Budget conservation at every sampled certified allocation, and the
# outage itself must have been observed (killed shard's slice at 0).
jq -s -e --argjson budget "$BANDWIDTH" '
    def abs: if . < 0 then -. else . end;
    [.[] | select(.[0])] as $certified |
    ($certified | map(select((.[1] - .[2]) | abs > 1e-6))) as $leaks |
    if ($certified | length) == 0 then error("no certified allocation sampled during the drill")
    elif ($leaks | length) > 0 then error("budget leaked in \($leaks | length) samples, e.g. \($leaks[0])")
    elif ($certified | map(select(.[3] == 0)) | length) == 0 then error("killed shard never observed with a zero slice")
    else "shard_chaos: budget conserved across \($certified | length) sampled allocations, outage observed"
    end' "$samples" >&2

# Recovery: all shards healthy again (the disk-faulted survivor too),
# allocation certified, the restarted shard holds budget, and the
# planned PF is back near the pre-kill steady state.
deadline=$((SECONDS + 45))
recovered=""
while [ "$SECONDS" -lt "$deadline" ]; do
    recovered=$(curl -fsS "http://$ROUTER_ADDR/status" |
        jq -r --argjson pf0 "$pf0" --argjson tol "$PF_TOLERANCE" "
            def abs: if . < 0 then -. else . end;
            select(.allocation_ok
                and .healthy_shards == $SHARDS
                and .shard_status[$KILL_SHARD].budget_slice > 0
                and .shard_status[$DISK_SHARD].healthy
                and (((.planned_perceived_freshness - \$pf0) / \$pf0) | abs) <= \$tol) |
            .planned_perceived_freshness") || true
    [ -n "$recovered" ] && break
    sleep 1
done
if [ -z "$recovered" ]; then
    echo "shard_chaos: FAIL: fleet did not recover to the pre-kill steady state; final status:" >&2
    curl -fsS "http://$ROUTER_ADDR/status" | jq . >&2 || true
    exit 1
fi

"$bin/freshenctl" fleet-status -url "http://$ROUTER_ADDR" >&2

echo "shard_chaos: PASS (shed $shed requests, zero non-503 errors, budget conserved, PF $pf0 -> $recovered)"
