package main

import (
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func testCfg(mirror string) config {
	return config{
		mirror:   mirror,
		n:        10,
		theta:    1,
		rate:     10,
		duration: time.Second,
		seed:     1,
	}
}

func TestParseFlagsDefaults(t *testing.T) {
	cfg, err := parseFlags([]string{"-mirror", "http://m:8081"})
	if err != nil {
		t.Fatal(err)
	}
	want := config{mirror: "http://m:8081", n: 500, theta: 1.0, rate: 50, duration: 30 * time.Second, seed: 1}
	if cfg != want {
		t.Errorf("parsed %+v, want %+v", cfg, want)
	}
}

func TestParseFlagsOverridesAndErrors(t *testing.T) {
	cfg, err := parseFlags([]string{
		"-mirror", "http://m", "-n", "7", "-theta", "0.5", "-rate", "5",
		"-duration", "2s", "-seed", "3",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := config{
		mirror: "http://m", n: 7, theta: 0.5, rate: 5,
		duration: 2 * time.Second, seed: 3,
	}
	if cfg != want {
		t.Errorf("parsed %+v, want %+v", cfg, want)
	}
	for _, args := range [][]string{
		{"-rate", "not-a-number"},
		{"-duration", "sideways"},
		{"-no-such-flag"},
		// Removed with the scrape and ramp modes: bench/ measures both
		// paths now.
		{"-metrics-url", "http://m/metrics"},
		{"-serve-out", "BENCH_serve.json"},
		{"-past-knee"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%v) accepted", args)
		}
	}
}

func TestRunValidation(t *testing.T) {
	alter := func(f func(*config)) config {
		cfg := testCfg("http://x")
		f(&cfg)
		return cfg
	}
	cases := []struct {
		name string
		cfg  config
	}{
		{"missing mirror", alter(func(c *config) { c.mirror = "" })},
		{"zero objects", alter(func(c *config) { c.n = 0 })},
		{"zero rate", alter(func(c *config) { c.rate = 0 })},
		{"zero duration", alter(func(c *config) { c.duration = 0 })},
		{"negative theta", alter(func(c *config) { c.theta = -1 })},
	}
	for _, tc := range cases {
		if err := run(tc.cfg); err == nil {
			t.Errorf("%s: invalid configuration accepted", tc.name)
		}
	}
}

// TestRunDrivesTraffic runs loadgen at -rate 100 for one second
// against a mirror stub that takes 5 ms per read. On a fixed schedule
// the replies' latency does not eat into the rate, and with every body
// drained the one kept-alive connection carries all of it.
func TestRunDrivesTraffic(t *testing.T) {
	var hits, conns atomic.Int64
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/object/") {
			http.NotFound(w, r)
			return
		}
		if _, err := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/object/")); err != nil {
			http.Error(w, "bad id", http.StatusBadRequest)
			return
		}
		time.Sleep(5 * time.Millisecond)
		hits.Add(1)
		w.Write([]byte("ok"))
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	srv.Start()
	defer srv.Close()
	cfg := testCfg(srv.URL)
	cfg.n = 20
	cfg.rate = 100
	cfg.duration = time.Second
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	if got := hits.Load(); got < 90 {
		t.Errorf("mirror saw %d requests in 1 s at -rate 100, want >= 90", got)
	}
	if got := conns.Load(); got > 2 {
		t.Errorf("%d requests arrived over %d connections, want <= 2", hits.Load(), got)
	}
}
