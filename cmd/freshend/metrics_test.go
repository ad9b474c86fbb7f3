package main

import (
	"flag"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"freshen/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the metrics contract golden file")

// persistentConfig configures a persistent daemon against a fresh
// simulated upstream.
func persistentConfig(t *testing.T, stateDir string) config {
	t.Helper()
	cfg := simConfig(t)
	cfg.stateDir = stateDir
	cfg.snapshotEvery = 2
	return cfg
}

// startPersistentDaemon runs a persistent daemon against a fresh
// simulated upstream and returns its base URL and a shutdown function.
func startPersistentDaemon(t *testing.T, stateDir string) (string, func() error) {
	t.Helper()
	return startDaemonWith(t, persistentConfig(t, stateDir))
}

func scrapeDaemon(t *testing.T, url string) *obs.Exposition {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	e, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestMetricsContract pins the daemon's full metric schema — every
// family name and type a live persistent daemon exposes — against a
// golden file. Childless families still emit HELP/TYPE, so the schema
// is complete and deterministic right after boot. Run with -update to
// accept an intentional schema change.
func TestMetricsContract(t *testing.T) {
	base, shutdown := startPersistentDaemon(t, t.TempDir())
	defer shutdown()

	e := scrapeDaemon(t, base+"/metrics")
	lines := make([]string, 0, len(e.Types))
	for name, typ := range e.Types {
		lines = append(lines, name+" "+typ)
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"

	golden := filepath.Join("testdata", "metrics_contract.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create it): %v", err)
	}
	if got != string(want) {
		t.Errorf("metric schema changed.\n--- golden\n%s\n--- live\n%s\nIf intentional, re-run with -update and document the change in DESIGN.md §10.", want, got)
	}
}

// TestMetricsEndToEnd scrapes a live persistent daemon and checks the
// acceptance surface: at least 20 distinct families, with the
// headline series present and sane.
func TestMetricsEndToEnd(t *testing.T) {
	base, shutdown := startPersistentDaemon(t, t.TempDir())

	// Drive serve-path traffic.
	for i := 0; i < 3; i++ {
		resp, err := http.Get(base + "/object/0")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	// Wait until the refresh loop has produced at least one successful
	// refresh and a snapshot landed (cadence 2 periods at 50ms each).
	deadline := time.Now().Add(15 * time.Second)
	var e *obs.Exposition
	for {
		e = scrapeDaemon(t, base+"/metrics")
		refreshed, _ := e.Value("freshen_refreshes_total", "outcome", "success")
		snaps, _ := e.Value("freshen_persist_snapshots_total")
		if refreshed >= 1 && snaps >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never refreshed+snapshotted; refreshes=%v snapshots=%v", refreshed, snaps)
		}
		time.Sleep(25 * time.Millisecond)
	}

	if n := len(e.Types); n < 20 {
		t.Errorf("only %d distinct metric families exposed, want >= 20: %v", n, e.Families())
	}
	if typ := e.Types["freshen_refresh_duration_seconds"]; typ != "histogram" {
		t.Errorf("freshen_refresh_duration_seconds type = %q, want histogram", typ)
	}
	if v, ok := e.Value("freshen_pf"); !ok || v <= 0 || v > 1 {
		t.Errorf("freshen_pf = %v, %v; want in (0, 1]", v, ok)
	}
	if v, ok := e.Value("freshen_solver_solve_seconds_count"); !ok || v < 1 {
		t.Errorf("freshen_solver_solve_seconds_count = %v, %v; want >= 1 (the boot plan solves)", v, ok)
	}
	if v, ok := e.Value("freshen_refresh_duration_seconds_count", "outcome", "success"); !ok || v < 1 {
		t.Errorf("refresh duration histogram count = %v, %v; want >= 1", v, ok)
	}
	if _, ok := e.Value("freshen_breaker_state"); !ok {
		t.Error("freshen_breaker_state missing")
	}
	if _, ok := e.Value("freshen_quarantine_size"); !ok {
		t.Error("freshen_quarantine_size missing")
	}
	if v, ok := e.Value("freshen_persist_journal_records_total"); !ok || v < 1 {
		t.Errorf("freshen_persist_journal_records_total = %v, %v; want >= 1", v, ok)
	}
	if v, ok := e.Value("freshen_accesses_total"); !ok || v != 3 {
		t.Errorf("freshen_accesses_total = %v, %v; want 3", v, ok)
	}
	if v, ok := e.Value("freshen_estimator_polls_total"); !ok || v < 1 {
		t.Errorf("freshen_estimator_polls_total = %v, %v; want >= 1", v, ok)
	}
	if e.BadLines != 0 {
		t.Errorf("exposition had %d unparseable lines", e.BadLines)
	}

	if err := shutdown(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
}

// TestMetricsAcrossRestart pins that /metrics stays serveable across a
// kill-and-restart cycle on the same state dir and that the restarted
// daemon's gauges reflect the recovered state.
func TestMetricsAcrossRestart(t *testing.T) {
	stateDir := t.TempDir()
	base, shutdown := startPersistentDaemon(t, stateDir)
	e := scrapeDaemon(t, base+"/metrics")
	if _, ok := e.Value("freshen_objects"); !ok {
		t.Fatal("first process: freshen_objects missing")
	}
	// Let some clock accumulate so recovery has something to restore.
	deadline := time.Now().Add(10 * time.Second)
	for {
		e = scrapeDaemon(t, base+"/metrics")
		if now, _ := e.Value("freshen_clock_periods"); now >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("clock never advanced")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := shutdown(); err != nil {
		t.Fatalf("first shutdown: %v", err)
	}

	base2, shutdown2 := startPersistentDaemon(t, stateDir)
	defer shutdown2()
	e2 := scrapeDaemon(t, base2+"/metrics")
	if v, ok := e2.Value("freshen_clock_periods"); !ok || v < 1 {
		t.Errorf("restarted clock = %v, %v; want >= 1 (recovered, not reset)", v, ok)
	}
	if v, ok := e2.Value("freshen_estimator_polls_total"); !ok || v < 1 {
		t.Errorf("restarted estimator polls = %v, %v; want >= 1 (replayed history counts)", v, ok)
	}
	if v, ok := e2.Value("freshen_pf"); !ok || v <= 0 {
		t.Errorf("restarted freshen_pf = %v, %v; want > 0", v, ok)
	}
}

// TestDebugListener pins the -debug-addr surface in both modes:
// metrics and pprof on a second listener, separate from the serving
// address.
func TestDebugListener(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shards int
		family string // a series the mode's registry always carries
	}{
		{"mirror", 1, "freshen_objects"},
		{"fleet", 2, "fleet_shards"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			debugReady := make(chan net.Addr, 1)
			cfg := persistentConfig(t, t.TempDir())
			cfg.shards = tc.shards
			cfg.debugAddr = "127.0.0.1:0"
			cfg.debugReady = debugReady
			base, shutdown := startDaemonWith(t, cfg)
			defer func() {
				if err := shutdown(); err != nil {
					t.Errorf("graceful shutdown: %v", err)
				}
			}()
			var debugAddr net.Addr
			select {
			case debugAddr = <-debugReady:
			default:
				t.Fatal("daemon ready without its debug listener")
			}
			debugBase := "http://" + debugAddr.String()

			// Metrics on both listeners.
			for _, url := range []string{base + "/metrics", debugBase + "/metrics"} {
				e := scrapeDaemon(t, url)
				if _, ok := e.Value(tc.family); !ok {
					t.Errorf("%s: %s missing", url, tc.family)
				}
			}
			// pprof only on the debug listener.
			resp, err := http.Get(debugBase + "/debug/pprof/")
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("debug /debug/pprof/ = %d; want 200", resp.StatusCode)
			}
			resp, err = http.Get(base + "/debug/pprof/")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("serving-listener /debug/pprof/ = %d; want 404", resp.StatusCode)
			}
		})
	}
}
