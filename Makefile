GO ?= go

.PHONY: all build fmt vet test test-short race cover fuzz-smoke serve-bench restart-chaos overload-chaos shard-chaos edge-chain metrics-contract estimator-convergence ci bench-solver bench clean

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
	$(GO) test -run '^$$' -fuzz '^FuzzFetchBatch$$' -fuzztime 30s ./internal/httpmirror/
	$(GO) test -run '^$$' -fuzz '^FuzzCatalog$$' -fuzztime 30s ./internal/httpmirror/
	$(GO) test -run '^$$' -fuzz '^FuzzRecoverSnapshot$$' -fuzztime 30s ./internal/persist/
	$(GO) test -run '^$$' -fuzz '^FuzzReplayJournal$$' -fuzztime 30s ./internal/persist/
	$(GO) test -run '^$$' -fuzz '^FuzzRecoveryReplayMatchesLive$$' -fuzztime 30s ./internal/httpmirror/
	$(GO) test -run '^$$' -fuzz '^FuzzModeMachine$$' -fuzztime 30s ./internal/resilience/
	$(GO) test -run '^$$' -fuzz '^FuzzChainFreshness$$' -fuzztime 30s ./internal/freshness/

# The zero-cost contract of the lock-free read path, as CI's
# serve-bench job asserts it: no allocations on Access or the /object
# route below version 256 (at most two past it), no blocking behind the
# state or step locks, one view per transferring refresh, one
# allocation per body a batch seed decodes, a 24 B view and a 24 B
# iterator entry, 88 B per object plus 24 B per funded object (at most
# 132 B per object for a cold mirror with an 11-byte body, 112 B under
# a learned plan funding 5% of them), a Plan() whose frequencies the
# caller owns, a recovered mirror within 10% of a cold one's heap, and
# at most 11 B per object for a fleet's placement.
serve-bench:
	$(GO) test -count=1 -run 'TestAccessZeroAllocs|TestObjectHandlerAllocs|TestAccessLockFree|TestAccessNotFoundPreallocated|TestTransferCommitAllocsFlat|TestCopyViewSize|TestMirrorBytesPerObject|TestLearnedPlanBytesPerObject|TestPlanFreqsIsACopy|TestRecoveredMirrorBytesPerObject|TestFetchBatchAllocs' ./internal/httpmirror/
	$(GO) test -count=1 -run 'TestIteratorEntrySize' ./internal/schedule/
	$(GO) test -count=1 -run 'TestPlacementBytesPerObject' ./internal/fleet/

# The crash-recovery suite under the race detector: kill-and-restart
# chaos, replay equal to the live run and a boot plan solved on the
# recovered knowledge (TestRecoveryReplayMatchesLive and
# TestRecoveryBootPlan*, through the TestRecovery prefix), snapshots
# that write only what recovery reads and that a release still storing
# the plan refuses loudly (TestSnapshotElementsSlim), shutdown
# persistence ordering, and the persistence layer.
restart-chaos:
	$(GO) test -race -count=1 -run 'TestKillRestartRecovery|TestMirrorSnapshotAndRecover|TestRecovery|TestSnapshotElementsSlim' ./internal/httpmirror/
	$(GO) test -race -count=1 -run 'TestDaemonShutdownPersistsState|TestMetricsAcrossRestart' ./cmd/freshend/
	$(GO) test -race -count=1 ./internal/persist/

# Overload + disk-fault chaos gate: the unit-level degradation suite
# and the resilience package under the race detector, then the drill
# three times over: 32 closed-loop clients driven far past the
# admission cap while the state disk is broken; asserts zero non-503
# errors, shed > 0, bounded admitted p99, persist-degraded served
# mid-run, and recovery to full mode with a new snapshot after the heal
# (TestOverloadDiskFaultDrill).
overload-chaos:
	$(GO) test -race -count=1 -run 'TestOverloadShedding|TestSourceDegradedHeaders|TestDiskDiesMidRun|TestKillRestartInPersistDegraded|TestReadyzRetryAfter' ./internal/httpmirror/
	$(GO) test -race -count=1 ./internal/resilience/
	$(GO) test -race -count=3 -run TestOverloadDiskFaultDrill ./internal/httpmirror/

# Shard-kill chaos gate for the fleet tier: the whole internal/fleet
# suite under the race detector first — placement, allocator
# conservation/certificates, the router's in-process dispatch — then
# the kill drills three times over: load past every shard's admission
# cap through the router while a shard is hard-killed and restarted and
# a survivor's state disk fails (TestShardKillChaos), and the dead
# shard's keyspace answering 503 + Retry-After (TestFleetDeadShardKeyspace).
shard-chaos:
	$(GO) test -race -count=1 ./internal/fleet/
	$(GO) test -race -count=3 -run 'TestShardKillChaos|TestFleetDeadShardKeyspace' ./internal/fleet/

# Hierarchical-topology gate: the hierarchy package under the race
# detector (the MirrorSource observer's atomics run under concurrent
# refreshes), the chain closed form's sim cross-validation, two real
# daemons chained, then the two-level drills three times over — origin
# -> regional -> edge with the regional killed and restarted mid-run,
# the origin cut above a live regional, an edge booted below a
# source-degraded regional — and the topology walk.
edge-chain:
	$(GO) test -race -count=1 ./internal/hierarchy/
	$(GO) test -race -count=1 -run 'TestChain|TestRunChain|TestCrossValid' ./internal/freshness/ ./internal/sim/ ./internal/testkit/
	$(GO) test -race -count=1 -run 'TestDaemonEdgeChain' ./cmd/freshend/
	$(GO) test -race -count=3 -run 'TestEdgeChainRegionalOutage|TestCompoundedStaleness' ./internal/hierarchy/
	$(GO) test -race -count=3 -run TestCmdTopologyStatus ./cmd/freshenctl/

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
# runs five more times on its own) and its seeding workers (ten more
# times, batch and per-object, a fleet shard's batches and the fleet's
# concurrent shard starts included), the
# admission limiter / mode machine atomics, the fleet router, a
# lock-free reader of the shard state that Kill and Start mutate, and
# the hierarchy source's observer, which wraps the transport a nil
# client builds. Then the fleet's liveness, leveling order and
# planning cadence three times over, and last the daemon's one serve
# and shutdown path three times over, in both modes, with no upstream
# connection left open.
race:
	$(GO) test -race ./internal/solver/... ./internal/cluster/... ./internal/httpmirror/... ./internal/resilience/... ./internal/fleet/... ./internal/hierarchy/...
	$(GO) test -race -count=10 -run 'TestSeed|TestNilClientSourceClientsShareNoConnection|TestFleetBoot' ./internal/httpmirror/ ./internal/fleet/
	$(GO) test -race -count=5 -run 'TestServeSnapshotNotTorn|TestAccessLockFree' ./internal/httpmirror/
	$(GO) test -race -count=5 -run 'TestSolveRunsOffStateLock|TestHealthReplansKeepLearning|TestSolveInputMatchesLearnFormula|TestShardSolveKeepsShardHealthy|TestFaultStateSparse' ./internal/httpmirror/ ./internal/fleet/
	$(GO) test -race -count=3 -run 'TestColdPersistentFleetServes|TestRestartRelevelsAtOnce|TestLevelingsApplyInOrder|TestShardLogsOneComponent|TestShardStepNeverCadenceReplans|TestLevelingReplansEveryShardOnce|TestSupervisorLevelsOnReplanCadence|TestNewRefusesBadConfig' ./internal/fleet/
	$(GO) test -race -count=3 -run 'TestDaemonServesAndShutsDown|TestDaemonFleetMode|TestRunListenError|TestDaemonShutdownPersistsState|TestRunClosesUpstreamConnections' ./cmd/freshend/

ci: build fmt vet test race

# Engine-vs-reference timings; writes BENCH_solver.json.
bench-solver:
	$(GO) run ./cmd/freshenctl bench-solver

bench:
	$(GO) test -run xxx -bench . -benchmem ./internal/solver/
	$(GO) test -run xxx -bench . -benchmem ./internal/httpmirror/

clean:
	$(GO) clean ./...
