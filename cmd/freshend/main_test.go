package main

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"freshen/internal/fleet"
)

func testConfig(upstream string, bandwidth, replanEvery float64, period time.Duration) config {
	return config{
		addr:        ":0",
		upstream:    upstream,
		bandwidth:   bandwidth,
		period:      period,
		replanEvery: replanEvery,
		seed:        1,
		upTimeout:   time.Second,
		upRetries:   1,
		shards:      1,
	}
}

func TestRunValidation(t *testing.T) {
	cases := []struct {
		name                   string
		upstream               string
		bandwidth, replanEvery float64
		period                 time.Duration
	}{
		{"missing upstream", "", 10, 5, time.Second},
		{"zero bandwidth", "http://localhost:1", 0, 5, time.Second},
		{"zero period", "http://localhost:1", 10, 5, 0},
		{"zero replan", "http://localhost:1", 10, 0, time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(tc.upstream, tc.bandwidth, tc.replanEvery, tc.period)
			if err := run(context.Background(), cfg, nil); err == nil {
				t.Fatal("invalid configuration accepted")
			}
		})
	}
	t.Run("zero snapshot-every with state dir", func(t *testing.T) {
		cfg := testConfig("http://localhost:1", 10, 5, time.Second)
		cfg.stateDir = t.TempDir()
		cfg.snapshotEvery = 0
		if err := run(context.Background(), cfg, nil); err == nil {
			t.Fatal("invalid configuration accepted")
		}
	})
	// A placement indexes shards with a uint16, so -shards stops at
	// fleet.MaxShards. The refusal comes before any client or shard
	// exists: the upstream hears nothing and no listener opens.
	t.Run("shards past the placement's limit", func(t *testing.T) {
		var requests atomic.Int64
		up := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { requests.Add(1) }))
		defer up.Close()
		cfg := testConfig(up.URL, 10, 5, time.Second)
		cfg.shards = fleet.MaxShards + 1
		ready := make(chan net.Addr, 1)
		if err := run(context.Background(), cfg, ready); err == nil || !strings.Contains(err.Error(), "-shards") {
			t.Fatalf("-shards %d: run = %v, want a -shards error", cfg.shards, err)
		}
		if n := requests.Load(); n != 0 || len(ready) != 0 {
			t.Errorf("-shards %d: %d upstream requests and %d listeners before the refusal", cfg.shards, n, len(ready))
		}
	})
}

func TestRunUnreachableUpstream(t *testing.T) {
	// A valid configuration against a dead upstream must fail at the
	// catalog fetch, not hang.
	cfg := testConfig("http://127.0.0.1:1", 10, 5, time.Second)
	if err := run(context.Background(), cfg, nil); err == nil {
		t.Fatal("unreachable upstream accepted")
	}
}
