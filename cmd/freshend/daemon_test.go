package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"freshen/internal/core"
	"freshen/internal/httpmirror"
	"freshen/internal/persist"
)

func TestParseFlagsDefaults(t *testing.T) {
	cfg, err := parseFlags([]string{"-upstream", "http://src:8080"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.upstream != "http://src:8080" {
		t.Errorf("upstream = %q", cfg.upstream)
	}
	if cfg.addr != ":8081" || cfg.bandwidth != 100 || cfg.period != 10*time.Second {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if cfg.strategy != "exact" || cfg.partitions != 100 || cfg.replanEvery != 5 {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	if cfg.upRetries != 3 || cfg.breakerAfter != 5 || cfg.quarantineAfter != 3 {
		t.Errorf("fault-policy defaults not applied: %+v", cfg)
	}
	if cfg.stateDir != "" || cfg.snapshotEvery != 5 {
		t.Errorf("persistence defaults not applied: %+v", cfg)
	}
	if cfg.debugAddr != "" || cfg.logLevel != "info" {
		t.Errorf("observability defaults not applied: %+v", cfg)
	}
	if cfg.upstreamURL != "" {
		t.Errorf("edge mode on by default: %+v", cfg)
	}
}

func TestParseFlagsUpstreamURL(t *testing.T) {
	cfg, err := parseFlags([]string{"-upstream-url", "http://regional:8081"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.upstreamURL != "http://regional:8081" || cfg.upstream != "" {
		t.Errorf("edge flags not parsed: %+v", cfg)
	}
}

func TestParseFlagsOverrides(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-addr", "127.0.0.1:0",
		"-upstream", "http://src",
		"-bandwidth", "42.5",
		"-period", "250ms",
		"-strategy", "clustered",
		"-partitions", "7",
		"-iterations", "2",
		"-replan-every", "3",
		"-explore-frac", "0.15",
		"-floor-lambda", "0.01",
		"-seed", "99",
		"-upstream-timeout", "1s",
		"-upstream-retries", "1",
		"-breaker-after", "-1",
		"-breaker-cooldown", "4",
		"-quarantine-after", "-1",
		"-probe-every", "2",
		"-state-dir", "/tmp/state",
		"-snapshot-every", "7",
		"-debug-addr", "127.0.0.1:6060",
		"-log-level", "debug",
		"-max-inflight", "32",
		"-min-inflight", "4",
		"-shed-target-latency", "20ms",
		"-persist-degrade-after", "2",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := config{
		addr: "127.0.0.1:0", upstream: "http://src",
		bandwidth: 42.5, period: 250 * time.Millisecond,
		strategy: "clustered", partitions: 7, iterations: 2,
		replanEvery: 3, seed: 99,
		exploreFrac: 0.15, floorLambda: 0.01,
		upTimeout: time.Second, upRetries: 1,
		breakerAfter: -1, breakerCooldown: 4,
		quarantineAfter: -1, probeEvery: 2,
		stateDir: "/tmp/state", snapshotEvery: 7,
		debugAddr: "127.0.0.1:6060", logLevel: "debug",
		shards: 1, placement: "hash",
		maxInflight: 32, minInflight: 4,
		shedTargetLatency: 20 * time.Millisecond, persistDegradeAfter: 2,
	}
	if cfg != want {
		t.Errorf("parsed %+v, want %+v", cfg, want)
	}
}

// TestMirrorConfigFlags follows each mirror-tuning flag past the
// config struct into the httpmirror.Config both modes build from it.
// Every value differs from the flag's default except -strategy exact,
// so a flag that parses but never reaches its field fails here.
func TestMirrorConfigFlags(t *testing.T) {
	cases := []struct {
		flag, value string
		field       func(httpmirror.Config) any
		want        any
	}{
		{"-bandwidth", "42.5", func(c httpmirror.Config) any { return c.Plan.Bandwidth }, 42.5},
		{"-strategy", "exact", func(c httpmirror.Config) any { return c.Plan.Strategy }, core.StrategyExact},
		{"-strategy", "partitioned", func(c httpmirror.Config) any { return c.Plan.Strategy }, core.StrategyPartitioned},
		{"-strategy", "clustered", func(c httpmirror.Config) any { return c.Plan.Strategy }, core.StrategyClustered},
		{"-partitions", "7", func(c httpmirror.Config) any { return c.Plan.NumPartitions }, 7},
		{"-iterations", "2", func(c httpmirror.Config) any { return c.Plan.KMeansIterations }, 2},
		{"-replan-every", "3", func(c httpmirror.Config) any { return c.ReplanEvery }, 3.0},
		{"-explore-frac", "0.15", func(c httpmirror.Config) any { return c.ExploreFrac }, 0.15},
		{"-floor-lambda", "0.01", func(c httpmirror.Config) any { return c.FloorLambda }, 0.01},
		{"-seed", "99", func(c httpmirror.Config) any { return c.Seed }, int64(99)},
		{"-breaker-after", "7", func(c httpmirror.Config) any { return c.Fault.BreakerThreshold }, 7},
		{"-breaker-cooldown", "4", func(c httpmirror.Config) any { return c.Fault.BreakerCooldown }, 4.0},
		{"-quarantine-after", "-1", func(c httpmirror.Config) any { return c.Fault.QuarantineAfter }, -1},
		{"-probe-every", "2", func(c httpmirror.Config) any { return c.Fault.ProbeEvery }, 2.0},
		{"-snapshot-every", "7", func(c httpmirror.Config) any { return c.SnapshotEvery }, 7.0},
		{"-max-inflight", "32", func(c httpmirror.Config) any { return c.Overload.MaxInflight }, 32},
		{"-min-inflight", "4", func(c httpmirror.Config) any { return c.Overload.MinInflight }, 4},
		{"-shed-target-latency", "20ms", func(c httpmirror.Config) any { return c.Overload.TargetLatency }, 20 * time.Millisecond},
		{"-persist-degrade-after", "2", func(c httpmirror.Config) any { return c.Degrade.PersistFailureThreshold }, 2},
	}
	for _, tc := range cases {
		t.Run(tc.flag+"="+tc.value, func(t *testing.T) {
			cfg, err := parseFlags([]string{"-upstream", "http://src", tc.flag, tc.value})
			if err != nil {
				t.Fatal(err)
			}
			mcfg, err := mirrorConfig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := tc.field(mcfg); got != tc.want {
				t.Errorf("%s %s: field = %v, want %v", tc.flag, tc.value, got, tc.want)
			}
		})
	}
}

func TestParseFlagsErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-bandwidth", "not-a-number"},
		{"-estimator", "mle"}, // removed: the online MLE is the only estimator
		// Removed chaos-only flags: the in-process drill tests inject
		// these faults through httpmirror.Config, fleet.Config and
		// persist.FaultStore.
		{"-persist-fault-after", "10"},
		{"-serve-fault-latency", "3ms"},
		{"-fleet-chaos"},
		{"-period", "sideways"},
		{"-no-such-flag"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%v) accepted", args)
		}
	}
}

// startDaemon runs the daemon against a simulated upstream and returns
// its base URL plus a shutdown function that cancels the run context
// and reports run's error.
func startDaemon(t *testing.T, strategy string) (string, func() error) {
	t.Helper()
	src, err := httpmirror.NewSimulatedSource([]float64{2, 1, 0.5, 0}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	upstream := httptest.NewServer(src.Handler())
	t.Cleanup(upstream.Close)

	cfg := testConfig(upstream.URL, strategy, 4, 5, 50*time.Millisecond)
	cfg.addr = "127.0.0.1:0"
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan net.Addr, 1)
	runErr := make(chan error, 1)
	go func() { runErr <- run(ctx, cfg, ready) }()
	var addr net.Addr
	select {
	case addr = <-ready:
	case err := <-runErr:
		cancel()
		t.Fatalf("daemon died before ready: %v", err)
	case <-time.After(10 * time.Second):
		cancel()
		t.Fatal("daemon never became ready")
	}
	return "http://" + addr.String(), func() error {
		cancel()
		select {
		case err := <-runErr:
			return err
		case <-time.After(15 * time.Second):
			return fmt.Errorf("daemon did not shut down")
		}
	}
}

// TestDaemonServesAndShutsDown drives the whole daemon over a real
// listener: every endpoint, the error contract for malformed and
// unknown object ids, and the graceful shutdown path.
func TestDaemonServesAndShutsDown(t *testing.T) {
	base, shutdown := startDaemon(t, "exact")

	cases := []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/healthz", http.StatusOK},
		{http.MethodGet, "/readyz", http.StatusOK},
		{http.MethodGet, "/status", http.StatusOK},
		{http.MethodGet, "/object/0", http.StatusOK},
		{http.MethodGet, "/object/3", http.StatusOK},
		{http.MethodGet, "/object/banana", http.StatusBadRequest},
		{http.MethodGet, "/object/999", http.StatusNotFound},
		{http.MethodPost, "/replan", http.StatusNoContent},
		{http.MethodPost, "/object/0", http.StatusMethodNotAllowed},
		{http.MethodGet, "/replan", http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, base+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.method, tc.path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: status %d, want %d (%s)", tc.method, tc.path, resp.StatusCode, tc.want, body)
		}
		if tc.path == "/object/0" && tc.want == http.StatusOK && resp.Header.Get("X-Version") == "" {
			t.Error("GET /object/0 missing X-Version header")
		}
	}

	resp, err := http.Get(base + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var status map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatalf("decoding /status: %v", err)
	}
	resp.Body.Close()
	if got, ok := status["objects"]; !ok || got.(float64) != 4 {
		t.Errorf("/status objects = %v, want 4", status["objects"])
	}

	if err := shutdown(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
}

// TestDaemonClusteredStrategy exercises the heuristic planning path
// end to end (plan → serve → shutdown) rather than just validation.
func TestDaemonClusteredStrategy(t *testing.T) {
	base, shutdown := startDaemon(t, "clustered")
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz: status %d", resp.StatusCode)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
}

// TestDaemonShutdownPersistsState drives a persistent daemon over a
// live listener and pins the graceful-shutdown ordering: the refresh
// loop drains, then the final snapshot is flushed (so it covers at
// least everything /status reported while serving), then the listener
// closes. The snapshot cadence is set far out so the only snapshot is
// the shutdown flush itself.
func TestDaemonShutdownPersistsState(t *testing.T) {
	src, err := httpmirror.NewSimulatedSource([]float64{2, 1, 0.5, 0}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	upstream := httptest.NewServer(src.Handler())
	t.Cleanup(upstream.Close)

	cfg := testConfig(upstream.URL, "exact", 4, 5, 50*time.Millisecond)
	cfg.addr = "127.0.0.1:0"
	cfg.stateDir = t.TempDir()
	cfg.snapshotEvery = 1e6
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan net.Addr, 1)
	runErr := make(chan error, 1)
	go func() { runErr <- run(ctx, cfg, ready) }()
	var addr net.Addr
	select {
	case addr = <-ready:
	case err := <-runErr:
		t.Fatalf("daemon died before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}
	base := "http://" + addr.String()

	// A cold persistent daemon is not ready until durable state
	// exists; with the cadence pushed out, that is only at shutdown.
	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("cold /readyz = %d, want 503", resp.StatusCode)
	}

	// Generate state to persist: accesses, and enough wall-clock for
	// the refresh loop to run some periods.
	status := func() (now float64, fetches, accesses int) {
		t.Helper()
		resp, err := http.Get(base + "/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var s struct {
			Now      float64 `json:"now_periods"`
			Fetches  int     `json:"fetches"`
			Accesses int     `json:"accesses"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
			t.Fatal(err)
		}
		return s.Now, s.Fetches, s.Accesses
	}
	for i := 0; i < 3; i++ {
		resp, err := http.Get(base + "/object/0")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	// Wait until the refresh loop has driven at least one full period
	// (fetches at boot come from seeding, not the loop).
	deadline := time.Now().Add(10 * time.Second)
	var preNow float64
	var preFetches, preAccesses int
	for {
		preNow, preFetches, preAccesses = status()
		if preNow >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("refresh loop never advanced a period")
		}
		time.Sleep(20 * time.Millisecond)
	}

	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("graceful shutdown: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not shut down")
	}

	// The listener is really closed, not just draining.
	if conn, err := net.DialTimeout("tcp", addr.String(), time.Second); err == nil {
		conn.Close()
		t.Error("listener still accepting connections after shutdown")
	}

	// The final snapshot landed, is loadable, and covers everything
	// /status reported while the daemon was serving.
	store, err := persist.Open(cfg.stateDir)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rec := store.Recovery()
	if rec.Snapshot == nil {
		t.Fatalf("no snapshot after graceful shutdown (snapshot err: %v)", rec.SnapshotErr)
	}
	if rec.Snapshot.Now <= 0 {
		t.Errorf("snapshot clock = %v, want > 0", rec.Snapshot.Now)
	}
	if got := rec.Snapshot.Counters.Fetches; got < preFetches {
		t.Errorf("snapshot fetches = %d < observed %d: flush did not wait for the refresh loop", got, preFetches)
	}
	if got := rec.Snapshot.Counters.Accesses; got < preAccesses {
		t.Errorf("snapshot accesses = %d < observed %d", got, preAccesses)
	}
	if len(rec.Records) != 0 {
		t.Errorf("%d journal records survived the final snapshot; shutdown flush should have reset the journal", len(rec.Records))
	}
}

// TestRunListenError pins the failure mode for an unusable listen
// address: run must fail fast, not hang with a half-built daemon.
func TestRunListenError(t *testing.T) {
	src, err := httpmirror.NewSimulatedSource([]float64{1}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	upstream := httptest.NewServer(src.Handler())
	defer upstream.Close()
	cfg := testConfig(upstream.URL, "exact", 4, 5, 50*time.Millisecond)
	cfg.addr = "256.256.256.256:1"
	if err := run(context.Background(), cfg, nil); err == nil {
		t.Fatal("bad listen address accepted")
	}
}
