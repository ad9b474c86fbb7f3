package fleet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"freshen/internal/core"
	"freshen/internal/httpmirror"
	"freshen/internal/obs"
	"freshen/internal/resilience"
)

// ctlSource is a memSource a test can take down (every Fetch and
// Version fails) or gate (every Fetch blocks until the gate closes).
type ctlSource struct {
	*memSource
	down    atomic.Bool
	gate    atomic.Pointer[chan struct{}]
	blocked chan struct{} // signaled (non-blocking) by each gated Fetch
}

func newCtlSource(src *memSource) *ctlSource {
	return &ctlSource{memSource: src, blocked: make(chan struct{}, 1)}
}

func (s *ctlSource) Fetch(ctx context.Context, id int) ([]byte, int, error) {
	if g := s.gate.Load(); g != nil {
		select {
		case s.blocked <- struct{}{}:
		default:
		}
		<-*g
	}
	if s.down.Load() {
		return nil, 0, errors.New("source down")
	}
	return s.memSource.Fetch(ctx, id)
}

func (s *ctlSource) Version(ctx context.Context, id int) (int, error) {
	if s.down.Load() {
		return 0, errors.New("source down")
	}
	return s.memSource.Version(ctx, id)
}

// newIdleFleet builds a fleet whose shards' refresh loops tick once an
// hour and whose supervisor never runs: nothing but the test itself
// allocates or takes a lock while it measures.
func newIdleFleet(t *testing.T, src *memSource, reg *obs.Registry) *Fleet {
	t.Helper()
	f, err := New(context.Background(), Config{
		Shards:   3,
		Budget:   12,
		Upstream: src,
		Mirror:   httpmirror.Config{Plan: core.Config{Strategy: core.StrategyExact}, Seed: 7},
		Period:   time.Hour,
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		f.Close(ctx)
	})
	return f
}

// gidOn returns the first global id shard s owns.
func gidOn(f *Fleet, s int) int { return int(f.Placement().Globals(s)[0]) }

// TestRouterObjectAllocs pins the routed read's cost: a GET through
// the fleet router — placement lookup, the owner's mirror load, the
// shard's ServeObject, the router's and the shard's request counters —
// allocates nothing, on a fleet built with metrics as freshend runs it.
func TestRouterObjectAllocs(t *testing.T) {
	reg := obs.NewRegistry()
	f := newIdleFleet(t, newMemSource(24), reg)
	h := f.Handler()
	for s := 0; s < 3; s++ {
		req := httptest.NewRequest(http.MethodGet, "/object/"+strconv.Itoa(gidOn(f, s)), nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req) // warm the statusWriter pool
		if rec.Code != http.StatusOK {
			t.Fatalf("shard %d read: status %d", s, rec.Code)
		}
		if n := testing.AllocsPerRun(200, func() {
			rec.Body.Reset()
			h.ServeHTTP(rec, req)
		}); n != 0 {
			t.Errorf("routed GET to shard %d allocates %v per op, want 0", s, n)
		}
	}
	var out strings.Builder
	if _, err := reg.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `fleet_router_requests_total{route="/object",code="200"}`) {
		t.Error("routed reads missing from fleet_router_requests_total")
	}
}

// TestRouterLockFree asserts the routed read takes no mutex: reads to
// every shard complete while the fleet's supervisor and leveling locks
// and every shard's lifecycle lock are held (a re-level, a boot, a
// teardown in progress). A mutex on the path would block here; the
// test fails by timeout instead of deadlocking the binary.
func TestRouterLockFree(t *testing.T) {
	f := newIdleFleet(t, newMemSource(24), obs.NewRegistry())
	h := f.Handler()

	f.levelMu.Lock()
	defer f.levelMu.Unlock()
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, sh := range f.shards {
		sh.mu.Lock()
		defer sh.mu.Unlock()
	}

	done := make(chan error, 1)
	go func() {
		for s := range f.shards {
			gid := gidOn(f, s)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/object/"+strconv.Itoa(gid), nil))
			if want := fmt.Sprintf("object-%d-v0", gid); rec.Code != http.StatusOK || rec.Body.String() != want {
				done <- fmt.Errorf("GET /object/%d = %d %q, want 200 %q", gid, rec.Code, rec.Body, want)
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("routed read blocked while the fleet and shard locks were held: not lock-free")
	}
}

// client bounds every test request, so a router that blocks fails the
// test instead of hanging it.
var client = &http.Client{Timeout: 5 * time.Second}

// get issues one request and returns the response with its body read.
func get(t *testing.T, method, url, ifVersion string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ifVersion != "" {
		req.Header.Set("X-If-Version", ifVersion)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp, string(body)
}

// TestRouterPassThrough pins that the router answers exactly as the
// owning shard does: conditional reads and HEADs match the shard's own
// listener response for response, a source-degraded shard's mode and
// staleness headers reach the client, and a shard that sheds keeps its
// own 503 and Retry-After.
func TestRouterPassThrough(t *testing.T) {
	t.Run("conditional and HEAD", func(t *testing.T) {
		src := newMemSource(24)
		f, srv := newTestFleet(t, src, nil)
		gid := gidOn(f, 2)
		src.Bump(gid)
		// Wait for the owner to pick up version 1, so "current" is not
		// just the seed value.
		waitFor(t, 5*time.Second, "refresh of the bumped object", func() bool {
			resp, _ := get(t, http.MethodGet, srv.URL+"/object/"+strconv.Itoa(gid), "")
			return resp.Header.Get("X-Version") == "1"
		})
		routed := srv.URL + "/object/" + strconv.Itoa(gid)
		direct := f.Shard(2).URL() + "/object/" + strconv.Itoa(f.Placement().Local(gid))
		for _, tc := range []struct {
			name, method, ifVersion string
			code                    int
		}{
			{"conditional hit", http.MethodGet, "1", http.StatusNotModified},
			{"conditional miss", http.MethodGet, "0", http.StatusOK},
			{"head", http.MethodHead, "", http.StatusOK},
		} {
			rr, rb := get(t, tc.method, routed, tc.ifVersion)
			dr, db := get(t, tc.method, direct, tc.ifVersion)
			if rr.StatusCode != tc.code || dr.StatusCode != tc.code {
				t.Errorf("%s: routed %d, direct %d, want %d", tc.name, rr.StatusCode, dr.StatusCode, tc.code)
			}
			if rb != db {
				t.Errorf("%s: routed body %q, direct %q", tc.name, rb, db)
			}
			for _, k := range []string{"X-Version", "Content-Type", "Content-Length", "X-Mirror-Mode"} {
				if rv, dv := rr.Header.Get(k), dr.Header.Get(k); rv != dv {
					t.Errorf("%s: %s routed %q, direct %q", tc.name, k, rv, dv)
				}
			}
		}
		// Methods the object path does not serve are refused, not routed.
		if resp, _ := get(t, http.MethodPost, routed, ""); resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST routed object: status %d, want 405", resp.StatusCode)
		}
	})

	t.Run("source-degraded headers", func(t *testing.T) {
		src := newMemSource(24)
		flaky := newCtlSource(src)
		f, srv := newTestFleet(t, src, func(cfg *Config) {
			cfg.ShardUpstream = func(i int) httpmirror.Source {
				if i == 0 {
					return flaky
				}
				return src
			}
			cfg.Mirror.Fault = httpmirror.FaultPolicy{BreakerThreshold: 2, BreakerCooldown: 1000, QuarantineAfter: -1}
		})
		flaky.down.Store(true)
		waitFor(t, 10*time.Second, "shard 0 to turn source-degraded", func() bool {
			m := f.Shard(0).Mirror()
			return m != nil && m.Mode()&resilience.ModeSourceDegraded != 0
		})
		gid := gidOn(f, 0)
		resp, body := get(t, http.MethodGet, srv.URL+"/object/"+strconv.Itoa(gid), "")
		if resp.StatusCode != http.StatusOK || body != fmt.Sprintf("object-%d-v0", gid) {
			t.Fatalf("degraded read: %d %q, want 200 serve-through", resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Mirror-Mode"); got != "source-degraded" {
			t.Errorf("X-Mirror-Mode = %q, want source-degraded", got)
		}
		if stale, err := strconv.ParseFloat(resp.Header.Get("X-Staleness-Periods"), 64); err != nil || stale < 0 {
			t.Errorf("X-Staleness-Periods = %q, want a non-negative float", resp.Header.Get("X-Staleness-Periods"))
		}
		// A healthy shard's reads carry neither header.
		resp, _ = get(t, http.MethodGet, srv.URL+"/object/"+strconv.Itoa(gidOn(f, 1)), "")
		if got := resp.Header.Get("X-Mirror-Mode"); got != "" {
			t.Errorf("healthy shard's read carries X-Mirror-Mode=%q", got)
		}
	})

	t.Run("shard shed", func(t *testing.T) {
		reg := obs.NewRegistry()
		f, srv := newTestFleet(t, newMemSource(24), func(cfg *Config) {
			cfg.Metrics = reg
			cfg.Mirror.Overload = resilience.LimiterConfig{MaxInflight: 1}
			cfg.Mirror.ServeFaultLatency = 300 * time.Millisecond
		})
		gids := f.Placement().Globals(0)
		m := f.Shard(0).Mirror()
		first := make(chan int, 1)
		go func() {
			resp, err := client.Get(srv.URL + "/object/" + strconv.Itoa(int(gids[0])))
			if err != nil {
				first <- 0
				return
			}
			resp.Body.Close()
			first <- resp.StatusCode
		}()
		waitFor(t, 5*time.Second, "the first read to hold shard 0's only slot", func() bool {
			return m.Status().Inflight == 1
		})
		resp, body := get(t, http.MethodGet, srv.URL+"/object/"+strconv.Itoa(int(gids[1])), "")
		if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(body, "overloaded") {
			t.Fatalf("read past shard 0's limit: %d %q, want the shard's own 503", resp.StatusCode, body)
		}
		ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || ra < resilience.RetryAfterSeconds || ra >= resilience.RetryAfterSeconds+resilience.RetryAfterSpread {
			t.Errorf("shed Retry-After %q", resp.Header.Get("Retry-After"))
		}
		if code := <-first; code != http.StatusOK {
			t.Errorf("admitted read: status %d, want 200", code)
		}
		if shed := m.Status().Shed; shed != 1 {
			t.Errorf("shard 0 shed %d reads, want 1", shed)
		}
		var out strings.Builder
		if _, err := reg.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out.String(), "fleet_router_dead_shard_rejects_total 0") {
			t.Error("a shard shed was counted as a dead-shard reject")
		}
	})
}

// TestShardLifecycleDoesNotStallFleet is the regression test for a
// shard's lifecycle lock stalling the fleet: while a restarting shard
// is stuck seeding from a blocked upstream, the fleet status, its
// health flags, the supervisor's re-level, and routed reads of the
// restarting shard's keyspace all answer promptly.
func TestShardLifecycleDoesNotStallFleet(t *testing.T) {
	const restarting = 1
	src := newMemSource(24)
	gated := newCtlSource(src)
	f, srv := newTestFleet(t, src, func(cfg *Config) {
		cfg.ShardUpstream = func(i int) httpmirror.Source {
			if i == restarting {
				return gated
			}
			return src
		}
	})
	if err := f.Kill(restarting); err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	gated.gate.Store(&gate)
	restarted := make(chan error, 1)
	go func() { restarted <- f.Restart(context.Background(), restarting) }()
	defer func() {
		gated.gate.Store(nil)
		close(gate)
		if err := <-restarted; err != nil {
			t.Errorf("restart: %v", err)
		}
	}()
	select {
	case <-gated.blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("restart never reached its seeding fetch")
	}

	within := func(what string, fn func()) {
		t.Helper()
		start := time.Now()
		fn()
		if d := time.Since(start); d > 100*time.Millisecond {
			t.Errorf("%s took %v during the restart, want ≤ 100ms", what, d)
		}
	}
	within("Fleet.Status", func() {
		st := f.Status()
		if row := st.ShardStatus[restarting]; row.Running || row.Healthy || row.URL != "" {
			t.Errorf("restarting shard reported %+v", row)
		}
	})
	within("routed read of the restarting keyspace", func() {
		resp, _ := get(t, http.MethodGet, srv.URL+"/object/"+strconv.Itoa(gidOn(f, restarting)), "")
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("restarting keyspace: status %d, want 503", resp.StatusCode)
		}
		ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || ra < resilience.RetryAfterSeconds || ra >= resilience.RetryAfterSeconds+resilience.RetryAfterSpread {
			t.Errorf("restarting keyspace: Retry-After %q", resp.Header.Get("Retry-After"))
		}
	})
	within("Fleet.Healthy", func() {
		if f.Healthy()[restarting] {
			t.Error("restarting shard reported healthy")
		}
	})
	within("survivor re-level", func() {
		f.reallocate("test")
		a, err := f.Allocation()
		if err != nil {
			t.Fatal(err)
		}
		if a.Healthy[restarting] || a.Slices[restarting] != 0 {
			t.Errorf("restarting shard holds budget: %+v", a)
		}
		if err := a.Conserved(1e-6); err != nil {
			t.Error(err)
		}
	})
}
