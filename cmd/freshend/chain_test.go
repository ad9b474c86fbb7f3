package main

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"freshen/internal/httpmirror"
)

// startDaemonWith runs the daemon under an arbitrary config (addr
// forced to an ephemeral port) and returns its base URL plus a
// shutdown function.
func startDaemonWith(t *testing.T, cfg config) (string, func() error) {
	t.Helper()
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
			return context.DeadlineExceeded
		}
	}
}

// TestDaemonEdgeChain boots a two-level chain of real daemons —
// origin → regional freshend → edge freshend (-upstream-url) — and
// checks the edge serves the catalog end to end, reports its upstream
// in /status, and the regional counts the edge's conditional polls as
// 304 savings.
func TestDaemonEdgeChain(t *testing.T) {
	src, err := httpmirror.NewSimulatedSource([]float64{2, 1, 0.5, 0}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	origin := httptest.NewServer(src.Handler())
	t.Cleanup(origin.Close)

	regional, stopRegional := startDaemonWith(t, testConfig(origin.URL, 4, 5, 50*time.Millisecond))
	edgeCfg := testConfig("", 2, 5, 50*time.Millisecond)
	edgeCfg.upstreamURL = regional
	edge, stopEdge := startDaemonWith(t, edgeCfg)

	resp, err := http.Get(edge + "/object/0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Version") == "" {
		t.Errorf("edge GET /object/0: status %d, X-Version %q", resp.StatusCode, resp.Header.Get("X-Version"))
	}

	resp, err = http.Get(edge + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var st struct {
		Objects     int    `json:"objects"`
		UpstreamURL string `json:"upstream_url"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if st.Objects != 4 {
		t.Errorf("edge mirrors %d objects, want 4", st.Objects)
	}
	if st.UpstreamURL != regional {
		t.Errorf("edge upstream_url = %q, want %q", st.UpstreamURL, regional)
	}

	// Give the edge a few refresh periods against a mostly static
	// catalog, then check the regional answered some polls with 304.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(regional + "/status")
		if err != nil {
			t.Fatal(err)
		}
		var reg struct {
			NotModified int `json:"source_not_modified"`
		}
		err = json.NewDecoder(resp.Body).Decode(&reg)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if reg.NotModified > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Error("regional never answered an edge poll with 304")
			break
		}
		time.Sleep(50 * time.Millisecond)
	}

	if err := stopEdge(); err != nil {
		t.Errorf("edge shutdown: %v", err)
	}
	if err := stopRegional(); err != nil {
		t.Errorf("regional shutdown: %v", err)
	}
}

// TestEdgeModeFlagValidation pins the -upstream/-upstream-url
// contract: exactly one, and edge mode is single-mirror only.
func TestEdgeModeFlagValidation(t *testing.T) {
	both := testConfig("http://localhost:1", 10, 5, time.Second)
	both.upstreamURL = "http://localhost:2"
	if err := run(context.Background(), both, nil); err == nil {
		t.Error("both -upstream and -upstream-url accepted")
	}
	fleet := testConfig("", 10, 5, time.Second)
	fleet.upstreamURL = "http://localhost:2"
	fleet.shards = 2
	if err := run(context.Background(), fleet, nil); err == nil {
		t.Error("-upstream-url accepted in fleet mode")
	}
}
