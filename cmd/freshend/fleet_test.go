package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"freshen/internal/fleet"
	"freshen/internal/httpmirror"
)

// TestDaemonFleetMode boots the daemon with -shards 2 over a live
// listener: an object read routed to its owning shard, the fleet
// /status with one row per shard, and a clean shutdown on cancel.
func TestDaemonFleetMode(t *testing.T) {
	lambdas := make([]float64, 16)
	for i := range lambdas {
		lambdas[i] = 1
	}
	src, err := httpmirror.NewSimulatedSource(lambdas, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	origin := httptest.NewServer(src.Handler())
	t.Cleanup(origin.Close)

	cfg := testConfig(origin.URL, 8, 5, 50*time.Millisecond)
	cfg.shards = 2
	base, shutdown := startDaemonWith(t, cfg)

	resp, err := http.Get(base + "/object/5")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /object/5 = %d (%s), want 200", resp.StatusCode, body)
	}
	if resp.Header.Get("X-Version") == "" {
		t.Error("routed GET /object/5 has no X-Version header")
	}

	resp, err = http.Get(base + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var st fleet.FleetStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decoding /status: %v", err)
	}
	if len(st.ShardStatus) != 2 {
		t.Errorf("/status has %d shard rows, want 2", len(st.ShardStatus))
	}

	if err := shutdown(); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
}
