#!/usr/bin/env bash
# bench_obs.sh — end-to-end observability benchmark.
#
# Stands up the full live loop (mocksource origin -> freshend mirror ->
# loadgen traffic), scrapes the mirror's /metrics while the traffic
# runs, and writes BENCH_obs.json (PF trajectory, refresh latency
# quantiles, solver solve-time mean), then appends the cold-start
# estimator benchmark under its cold_start key. Knobs come from the
# environment:
#
#   N=200 DURATION=30s OUT=BENCH_obs.json ./scripts/bench_obs.sh
set -euo pipefail

N=${N:-200}
RATE=${RATE:-50}
DURATION=${DURATION:-30s}
OUT=${OUT:-BENCH_obs.json}
MOCK_ADDR=${MOCK_ADDR:-127.0.0.1:18080}
MIRROR_ADDR=${MIRROR_ADDR:-127.0.0.1:18081}

cd "$(dirname "$0")/.."

bin=$(mktemp -d)
cleanup() {
    # shellcheck disable=SC2046
    kill $(jobs -p) 2>/dev/null || true
    wait 2>/dev/null || true
    rm -rf "$bin"
}
trap cleanup EXIT

go build -o "$bin" ./cmd/mocksource ./cmd/freshend ./cmd/loadgen ./cmd/freshenctl

wait_ready() {
    local url=$1 tries=50
    until curl -fsS -o /dev/null "$url" 2>/dev/null; do
        tries=$((tries - 1))
        if [ "$tries" -le 0 ]; then
            echo "bench_obs: $url never became ready" >&2
            return 1
        fi
        sleep 0.2
    done
}

"$bin/mocksource" -addr "$MOCK_ADDR" -n "$N" -mean 2 -period 10s &
wait_ready "http://$MOCK_ADDR/catalog"

"$bin/freshend" -addr "$MIRROR_ADDR" -upstream "http://$MOCK_ADDR" \
    -bandwidth "$((N / 4))" -period 2s -replan-every 2 \
    -explore-frac 0.2 &
wait_ready "http://$MIRROR_ADDR/readyz"

"$bin/loadgen" -mirror "http://$MIRROR_ADDR" -n "$N" -rate "$RATE" \
    -duration "$DURATION" \
    -metrics-url "http://$MIRROR_ADDR/metrics" -obs-out "$OUT"

# The offline estimator race merges its trajectories under the
# cold_start key; loadgen preserves the section on rewrite, so the
# order of the two steps does not matter.
"$bin/freshenctl" bench-coldstart -out "$OUT"

# The hierarchical budget-split benchmark merges under chain_split:
# the optimized cross-level share against the 50/50 and proportional
# heuristics on the same workload and inner solver.
"$bin/freshenctl" bench-chainsplit -out "$OUT" -n "$N"

echo "bench_obs: wrote $OUT"
