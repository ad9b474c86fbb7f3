package fleet

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"freshen/internal/core"
	"freshen/internal/httpmirror"
	"freshen/internal/resilience"
	"freshen/internal/testkit"
)

// memSource is an in-process global source: object gid's body names
// its global id, so any mis-route surfaces as a body mismatch.
type memSource struct {
	mu       sync.Mutex
	sizes    []float64
	versions []int
}

func newMemSource(n int) *memSource {
	s := &memSource{sizes: make([]float64, n), versions: make([]int, n)}
	for i := range s.sizes {
		s.sizes[i] = 1
	}
	return s
}

func (s *memSource) Catalog(context.Context) ([]httpmirror.CatalogEntry, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]httpmirror.CatalogEntry, len(s.sizes))
	for i := range out {
		out[i] = httpmirror.CatalogEntry{ID: i, Size: s.sizes[i]}
	}
	return out, nil
}

func (s *memSource) Fetch(_ context.Context, id int) ([]byte, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= len(s.versions) {
		return nil, 0, fmt.Errorf("no object %d", id)
	}
	v := s.versions[id]
	return []byte(fmt.Sprintf("object-%d-v%d", id, v)), v, nil
}

func (s *memSource) Version(_ context.Context, id int) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= len(s.versions) {
		return 0, fmt.Errorf("no object %d", id)
	}
	return s.versions[id], nil
}

func (s *memSource) Bump(id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.versions[id]++
}

func (s *memSource) Retries() int64  { return 0 }
func (s *memSource) Failures() int64 { return 0 }

// newTestFleet builds and starts a small fleet over a memSource, with
// the supervisor running and a router test server in front; everything
// stops at test cleanup.
func newTestFleet(t *testing.T, src *memSource, mutate func(*Config)) (*Fleet, *httptest.Server) {
	t.Helper()
	cfg := Config{
		Shards:   3,
		Budget:   12,
		Upstream: src,
		Mirror: httpmirror.Config{
			Plan:        core.Config{Strategy: core.StrategyExact},
			ReplanEvery: 1,
			// Pin λ̂ at the prior so planned PF depends only on the
			// profile and budget — stable enough to assert recovery
			// against a pre-kill baseline.
			PriorLambda: 1,
			FloorLambda: 1,
			Seed:        7,
		},
		Period:     50 * time.Millisecond,
		AllocEvery: 50 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	ctx, cancel := context.WithCancel(context.Background())
	f, err := New(ctx, cfg)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Run(ctx)
	}()
	srv := httptest.NewServer(f.Handler())
	t.Cleanup(func() {
		srv.Close()
		cancel()
		<-done
		closeCtx, closeCancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer closeCancel()
		f.Close(closeCtx)
	})
	return f, srv
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestFleetRoutesEveryObject(t *testing.T) {
	src := newMemSource(24)
	f, srv := newTestFleet(t, src, nil)
	for gid := 0; gid < 24; gid++ {
		resp, err := http.Get(srv.URL + "/object/" + strconv.Itoa(gid))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("object %d: status %d", gid, resp.StatusCode)
		}
		want := fmt.Sprintf("object-%d-v0", gid)
		if string(body) != want {
			t.Fatalf("object %d: body %q, want %q (mis-route?)", gid, body, want)
		}
	}
	// Outside the catalog: a clean 404, not a routing error.
	resp, err := http.Get(srv.URL + "/object/9999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown object: status %d, want 404", resp.StatusCode)
	}
	if err := f.Placement().Validate(); err != nil {
		t.Error(err)
	}
}

func TestFleetStatusAndReadyz(t *testing.T) {
	src := newMemSource(24)
	f, srv := newTestFleet(t, src, nil)

	st := f.Status()
	if st.Shards != 3 || st.Objects != 24 {
		t.Fatalf("status reports %d shards × %d objects", st.Shards, st.Objects)
	}
	if st.Mode != "full" {
		t.Errorf("fleet mode %q, want full", st.Mode)
	}
	if !st.AllocationOK {
		t.Error("boot allocation not certified")
	}

	// The HTTP document keeps the single-mirror contract fields.
	resp, err := http.Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, key := range []string{`"mode"`, `"mode_transitions"`, `"shard_status"`} {
		if !strings.Contains(string(body), key) {
			t.Errorf("/status missing %s", key)
		}
	}

	resp, err = http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz status %d with healthy shards", resp.StatusCode)
	}
}

func TestFleetDeadShardKeyspace(t *testing.T) {
	src := newMemSource(24)
	f, srv := newTestFleet(t, src, nil)
	place := f.Placement()

	if err := f.Kill(1); err != nil {
		t.Fatal(err)
	}

	// The dead shard's keyspace answers 503 + jittered Retry-After,
	// fast; the survivors' keyspace keeps serving.
	client := &http.Client{Timeout: 2 * time.Second}
	for gid := 0; gid < 24; gid++ {
		start := time.Now()
		resp, err := client.Get(srv.URL + "/object/" + strconv.Itoa(gid))
		if err != nil {
			t.Fatalf("object %d: %v", gid, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if place.ShardOf(gid) == 1 {
			if resp.StatusCode != http.StatusServiceUnavailable {
				t.Fatalf("dead-shard object %d: status %d, want 503", gid, resp.StatusCode)
			}
			ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
			if err != nil || ra < resilience.RetryAfterSeconds || ra >= resilience.RetryAfterSeconds+resilience.RetryAfterSpread {
				t.Errorf("dead-shard object %d: Retry-After %q", gid, resp.Header.Get("Retry-After"))
			}
			if d := time.Since(start); d > time.Second {
				t.Errorf("dead-shard object %d took %v — the router must answer immediately", gid, d)
			}
		} else {
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("survivor object %d: status %d body %q", gid, resp.StatusCode, body)
			}
		}
	}

	// The dead shard's slice went to the survivors, conserved.
	waitFor(t, 5*time.Second, "post-kill allocation", func() bool {
		a, err := f.Allocation()
		return err == nil && !a.Healthy[1]
	})
	a, err := f.Allocation()
	if err != nil {
		t.Fatal(err)
	}
	if a.Slices[1] != 0 {
		t.Errorf("dead shard holds budget %v", a.Slices[1])
	}
	if err := a.Conserved(1e-6); err != nil {
		t.Error(err)
	}

	// Restart: the shard rejoins and gets a slice back.
	if err := f.Restart(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "shard 1 to rejoin with budget", func() bool {
		a, err := f.Allocation()
		return err == nil && a.Healthy[1] && a.Slices[1] > 0
	})
	a, _ = f.Allocation()
	if err := a.Conserved(1e-6); err != nil {
		t.Error(err)
	}
}

// TestShardSolveKeepsShardHealthy pins what the mirror's two-lock rule
// buys the fleet: while shard 0's replan is parked inside its solve,
// the shard's /readyz keeps answering, so checkHealth runs
// healthFailures+1 times and the shard stays healthy. When a solve
// held the mirror's state lock, every probe timed out and a long
// replan failed over a healthy shard.
func TestShardSolveKeepsShardHealthy(t *testing.T) {
	pol := testkit.NewParkingPolicy()
	f, err := New(context.Background(), Config{
		Shards:   2,
		Budget:   8,
		Upstream: newMemSource(16),
		Mirror:   httpmirror.Config{Plan: core.Config{Strategy: core.StrategyExact, Policy: pol}, Seed: 7},
		// Refresh loops tick once an hour and the supervisor never runs:
		// the only solve is the one the test parks.
		Period:      time.Hour,
		HealthEvery: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		f.Close(ctx)
	})
	pol.Arm()
	replanned := make(chan error, 1)
	go func() { replanned <- f.Shard(0).Mirror().ForceReplan() }()
	select {
	case <-pol.Parked():
	case err := <-replanned:
		t.Fatalf("ForceReplan returned without reaching its solve: %v", err)
	}
	defer func() {
		pol.Release()
		if err := <-replanned; err != nil {
			t.Errorf("ForceReplan: %v", err)
		}
	}()
	for pass := 1; pass <= healthFailures+1; pass++ {
		if f.checkHealth(context.Background()) {
			t.Fatalf("health pass %d changed the healthy set while shard 0 solved: %v", pass, f.Healthy())
		}
	}
	if h := f.Healthy(); !h[0] || !h[1] {
		t.Fatalf("healthy = %v during shard 0's solve, want both", h)
	}
}
