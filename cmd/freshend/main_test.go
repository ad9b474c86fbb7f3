package main

import (
	"context"
	"testing"
	"time"
)

func testConfig(upstream, strategy string, bandwidth, replanEvery float64, period time.Duration) config {
	return config{
		addr:        ":0",
		upstream:    upstream,
		bandwidth:   bandwidth,
		period:      period,
		strategy:    strategy,
		partitions:  10,
		iterations:  3,
		replanEvery: replanEvery,
		seed:        1,
		upTimeout:   time.Second,
		upRetries:   1,
		shards:      1,
		placement:   "hash",
	}
}

func TestRunValidation(t *testing.T) {
	cases := []struct {
		name                   string
		upstream, strategy     string
		bandwidth, replanEvery float64
		period                 time.Duration
	}{
		{"missing upstream", "", "exact", 10, 5, time.Second},
		{"zero bandwidth", "http://localhost:1", "exact", 0, 5, time.Second},
		{"zero period", "http://localhost:1", "exact", 10, 5, 0},
		{"zero replan", "http://localhost:1", "exact", 10, 0, time.Second},
		{"bad strategy", "http://localhost:1", "warp", 10, 5, time.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(tc.upstream, tc.strategy, tc.bandwidth, tc.replanEvery, tc.period)
			if err := run(context.Background(), cfg, nil); err == nil {
				t.Fatal("invalid configuration accepted")
			}
		})
	}
	t.Run("zero snapshot-every with state dir", func(t *testing.T) {
		cfg := testConfig("http://localhost:1", "exact", 10, 5, time.Second)
		cfg.stateDir = t.TempDir()
		cfg.snapshotEvery = 0
		if err := run(context.Background(), cfg, nil); err == nil {
			t.Fatal("invalid configuration accepted")
		}
	})
}

func TestRunUnreachableUpstream(t *testing.T) {
	// A valid configuration against a dead upstream must fail at the
	// catalog fetch, not hang.
	cfg := testConfig("http://127.0.0.1:1", "exact", 10, 5, time.Second)
	if err := run(context.Background(), cfg, nil); err == nil {
		t.Fatal("unreachable upstream accepted")
	}
}
