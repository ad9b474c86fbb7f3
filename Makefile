GO ?= go

.PHONY: all build fmt vet test test-short race cover fuzz-smoke restart-chaos overload-chaos shard-chaos edge-chain metrics-contract estimator-convergence ci bench-solver bench-obs bench-serve bench-all bench clean

all: ci

build:
	$(GO) build ./...

# Fails if any file is not gofmt-clean, listing the offenders.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# -shuffle=on randomizes test and subtest order every run, so hidden
# inter-test state dependencies fail here instead of in a flaky CI lane.
test:
	$(GO) test -shuffle=on ./...

# Fast feedback loop: slow experiment/simulation sweeps skip themselves
# under -short; CI runs the full suite.
test-short:
	$(GO) test -short ./...

# Total statement coverage with the same floor CI enforces.
cover:
	$(GO) test -count=1 -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# 30s per fuzz target: replays the checked-in corpus (regressions fail
# immediately) plus a short exploration burst. One -fuzz pattern per
# go test invocation, hence one run per target.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzWaterFill$$' -fuzztime 30s ./internal/solver/
	$(GO) test -run '^$$' -fuzz '^FuzzBandwidthForTarget$$' -fuzztime 30s ./internal/solver/
	$(GO) test -run '^$$' -fuzz '^FuzzEstimator$$' -fuzztime 30s ./internal/estimate/
	$(GO) test -run '^$$' -fuzz '^FuzzOnlineEstimators$$' -fuzztime 30s ./internal/estimate/
	$(GO) test -run '^$$' -fuzz '^FuzzExploreAllocation$$' -fuzztime 30s ./internal/schedule/
	$(GO) test -run '^$$' -fuzz '^FuzzHTTPHandler$$' -fuzztime 30s ./internal/httpmirror/
	$(GO) test -run '^$$' -fuzz '^FuzzRecoverSnapshot$$' -fuzztime 30s ./internal/persist/
	$(GO) test -run '^$$' -fuzz '^FuzzReplayJournal$$' -fuzztime 30s ./internal/persist/
	$(GO) test -run '^$$' -fuzz '^FuzzModeMachine$$' -fuzztime 30s ./internal/resilience/
	$(GO) test -run '^$$' -fuzz '^FuzzChainFreshness$$' -fuzztime 30s ./internal/freshness/

# The crash-recovery suite under the race detector: kill-and-restart
# chaos, shutdown persistence ordering, and the persistence layer.
restart-chaos:
	$(GO) test -race -count=1 -run 'TestKillRestartRecovery|TestMirrorSnapshotAndRecover|TestRecovery' ./internal/httpmirror/
	$(GO) test -race -count=1 -run 'TestDaemonShutdownPersistsState|TestMetricsAcrossRestart' ./cmd/freshend/
	$(GO) test -race -count=1 ./internal/persist/

# Overload + disk-fault chaos gate: race-built live loop driven far
# past the admission cap while a scheduled disk-fault window forces
# persist-degraded; asserts zero non-503 errors, bounded admitted p99,
# and recovery to full mode (see scripts/overload_chaos.sh). The unit-
# level halves of the same story run under the race detector first.
overload-chaos:
	$(GO) test -race -count=1 -run 'TestOverloadShedding|TestSourceDegradedHeaders|TestDiskDiesMidRun|TestKillRestartInPersistDegraded|TestReadyzRetryAfter' ./internal/httpmirror/
	$(GO) test -race -count=1 ./internal/resilience/
	./scripts/overload_chaos.sh

# Shard-kill chaos gate for the fleet tier: the whole internal/fleet
# suite under the race detector first — placement, allocator
# conservation/certificates, the router's in-process dispatch, the
# in-process kill-and-restart drill (TestShardKillChaos) — then the
# race-built live loop:
# loadgen driven past the knee through the router while a shard is
# hard-killed and restarted mid-ramp and a survivor's state disk fails
# (see scripts/shard_chaos.sh).
shard-chaos:
	$(GO) test -race -count=1 ./internal/fleet/
	./scripts/shard_chaos.sh

# Hierarchical-topology gate: the hierarchy package under the race
# detector (the MirrorSource observer's atomics run under concurrent
# refreshes), the chain closed form's sim cross-validation, then the
# live two-level drill — origin -> regional freshend -> edge freshend,
# regional hard-killed and restarted mid-run (see scripts/edge_chain.sh).
edge-chain:
	$(GO) test -race -count=1 ./internal/hierarchy/
	$(GO) test -race -count=1 -run 'TestChain|TestRunChain|TestCrossValid' ./internal/freshness/ ./internal/sim/ ./internal/testkit/
	$(GO) test -race -count=1 -run 'TestDaemonEdgeChain' ./cmd/freshend/
	./scripts/edge_chain.sh

# The estimator-convergence gate under the race detector: the
# ground-truth cross-validator (the online MLE and the batch-MLE
# baseline strictly beat the naive ratio at every catalog scale), the
# cold-start closed-loop race (MLE+explore reaches 99% of the converged
# plan; naive never does), the explore-budget property tests, and the
# live mirror's estimator: restart continuity, the poll counters, and
# the 10⁵-period soak that pins estimator memory and snapshot size.
estimator-convergence:
	$(GO) test -race -count=1 ./internal/estimate/
	$(GO) test -race -count=1 -run 'TestEstimator' ./internal/testkit/
	$(GO) test -race -count=1 -run 'TestColdStart' ./internal/experiment/
	$(GO) test -race -count=1 -run 'TestExplore|TestAllocateExplore' ./internal/schedule/
	$(GO) test -race -count=1 -run 'TestMirrorExplore|TestOnlineEstimatorRestart|TestEstimatorMetrics|TestSoakStateBounded' ./internal/httpmirror/

# The exposition schema golden test and the live-scrape integration
# tests, under the race detector (GaugeFunc closures scrape under the
# mirror lock while the refresh loop runs).
metrics-contract:
	$(GO) test -race -count=1 -run 'TestMetricsContract|TestMetricsEndToEnd|TestDebugListener' ./cmd/freshend/
	$(GO) test -race -count=1 ./internal/obs/

# Shared-state hot spots under the race detector: the solver's worker
# pool, the clustering buffers, the mirror's lock-free serving path
# (the per-object view stress test lives in internal/httpmirror, and
# runs five more times on its own) and its seeding workers, the
# admission limiter / mode machine atomics, the fleet router, a
# lock-free reader of the shard and health state that Kill, Start and
# the supervisor mutate, and the hierarchy source's observer, which
# wraps the transport a nil client builds.
race:
	$(GO) test -race ./internal/solver/... ./internal/cluster/... ./internal/httpmirror/... ./internal/resilience/... ./internal/fleet/... ./internal/hierarchy/...
	$(GO) test -race -count=10 -run 'TestSeed|TestNilClientSourceClientsShareNoConnection' ./internal/httpmirror/
	$(GO) test -race -count=5 -run 'TestServeSnapshotNotTorn|TestAccessLockFree' ./internal/httpmirror/
	$(GO) test -race -count=5 -run 'TestSolveRunsOffStateLock|TestHealthReplansKeepLearning|TestShardSolveKeepsShardHealthy' ./internal/httpmirror/ ./internal/fleet/

ci: build fmt vet test race

# Engine-vs-reference timings; writes BENCH_solver.json.
bench-solver:
	$(GO) run ./cmd/freshenctl bench-solver

# Live-loop observability benchmark; stands up mocksource + freshend,
# drives loadgen traffic, scrapes /metrics, writes BENCH_obs.json.
bench-obs:
	./scripts/bench_obs.sh

# Closed-loop serving benchmark; measures serving-path allocs/op, then
# ramps paced Zipf GET traffic against a live mirror while refreshes,
# breaker trips, and snapshots run concurrently. Writes BENCH_serve.json.
bench-serve:
	./scripts/bench_serve.sh

# The full reproducible perf trajectory in one command, followed by
# the overload/disk-fault chaos gate that proves the envelope the
# serve benchmark records is actually enforced.
bench-all: bench-solver bench-obs bench-serve overload-chaos

bench:
	$(GO) test -run xxx -bench . -benchmem ./internal/solver/
	$(GO) test -run xxx -bench . -benchmem ./internal/httpmirror/

clean:
	$(GO) clean ./...
