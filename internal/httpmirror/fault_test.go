package httpmirror

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"freshen/internal/core"
)

// faultySource wraps a simulated source behind a server whose faults
// the test controls deterministically: a global "down" switch and a
// single broken object id.
type faultySource struct {
	src      *SimulatedSource
	srv      *httptest.Server
	down     atomic.Bool
	brokenID atomic.Int64
}

func newFaultySource(t *testing.T, lambdas []float64) *faultySource {
	t.Helper()
	src, err := NewSimulatedSource(lambdas, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	f := &faultySource{src: src}
	f.brokenID.Store(-1)
	inner := src.Handler()
	f.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if f.down.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		if id := f.brokenID.Load(); id >= 0 && strings.HasPrefix(r.URL.Path, fmt.Sprintf("/object/%d", id)) {
			http.Error(w, "broken object", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(f.srv.Close)
	return f
}

// fastRetry keeps test retries quick.
func fastRetry(attempts int) RetryPolicy {
	return RetryPolicy{
		MaxAttempts: attempts,
		Timeout:     time.Second,
		BaseBackoff: time.Millisecond,
		MaxBackoff:  2 * time.Millisecond,
	}
}

func newFaultMirror(t *testing.T, f *faultySource, bandwidth float64, fault FaultPolicy) *Mirror {
	t.Helper()
	client := NewSourceClient(f.srv.URL, f.srv.Client())
	client.SetRetryPolicy(fastRetry(1))
	m, err := New(context.Background(), Config{
		Upstream:    client,
		Plan:        core.Config{Bandwidth: bandwidth},
		ReplanEvery: 1000, // cadence replans off: plans change only on health events
		Fault:       fault,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRetryRecoversTransientFailures(t *testing.T) {
	// The upstream fails each call's first two attempts; a client with
	// three attempts per call succeeds anyway.
	var calls atomic.Int64
	src, err := NewSimulatedSource([]float64{1}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	inner := src.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1)%3 != 0 {
			http.Error(w, "flaky", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	client := NewSourceClient(srv.URL, srv.Client())
	client.SetRetryPolicy(fastRetry(3))
	ctx := context.Background()
	if _, err := client.Catalog(ctx); err != nil {
		t.Fatalf("catalog did not survive transient failures: %v", err)
	}
	if _, err := client.Version(ctx, 0); err != nil {
		t.Fatalf("version did not survive transient failures: %v", err)
	}
	if client.Retries() == 0 {
		t.Error("no retries recorded")
	}
	if client.Failures() != 0 {
		t.Errorf("Failures = %d, want 0", client.Failures())
	}
}

func TestBreakerOpensSkipsAndRecovers(t *testing.T) {
	f := newFaultySource(t, []float64{1, 1})
	m := newFaultMirror(t, f, 4, FaultPolicy{
		BreakerThreshold: 3,
		BreakerCooldown:  1,
		QuarantineAfter:  -1, // isolate the breaker
	})

	if _, err := m.Step(1); err != nil {
		t.Fatal(err)
	}
	if st := m.Status(); st.BreakerState != "closed" || st.RefreshFailures != 0 {
		t.Fatalf("healthy mirror: %+v", st)
	}

	// Outage: the batch aggregates failures instead of aborting, the
	// breaker opens after 3 of them, and the rest are skipped.
	f.down.Store(true)
	if _, err := m.Step(3); err != nil {
		t.Fatalf("Step must not abort on refresh failures: %v", err)
	}
	st := m.Status()
	if st.BreakerState != "open" {
		t.Fatalf("breaker state = %s, want open", st.BreakerState)
	}
	if st.RefreshFailures < 3 {
		t.Errorf("RefreshFailures = %d, want >= 3 (threshold)", st.RefreshFailures)
	}
	if st.SkippedRefreshes == 0 {
		t.Error("no refreshes skipped while the breaker was open")
	}
	if st.BreakerTrips == 0 {
		t.Error("breaker never tripped")
	}
	// Skipped polls never reach the estimator: the mirror still serves.
	if _, _, err := m.Access(0); err != nil {
		t.Fatalf("mirror stopped serving during outage: %v", err)
	}

	// Still down past the cooldown: the half-open probe fails and the
	// breaker reopens.
	if _, err := m.Step(5); err != nil {
		t.Fatal(err)
	}
	if st := m.Status(); st.BreakerState != "open" || st.BreakerTrips < 2 {
		t.Fatalf("probe against a dead upstream must reopen: %+v", st)
	}

	// Upstream back: the next probe closes the breaker and refreshes
	// flow again.
	f.down.Store(false)
	f.src.Advance(8)
	n, err := m.Step(8)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("no refreshes after recovery")
	}
	if st := m.Status(); st.BreakerState != "closed" {
		t.Errorf("breaker state = %s after recovery, want closed", st.BreakerState)
	}
}

func TestQuarantineExcludesAndReadmits(t *testing.T) {
	f := newFaultySource(t, []float64{1, 1, 1})
	m := newFaultMirror(t, f, 6, FaultPolicy{
		BreakerThreshold: -1, // isolate quarantine
		QuarantineAfter:  2,
		ProbeEvery:       1,
	})
	baseFreq := m.Plan().Freqs[1]
	if baseFreq <= 0 {
		t.Fatalf("element 1 not scheduled at baseline: %v", m.Plan().Freqs)
	}

	// Break object 1 only; walk time forward until it quarantines.
	f.brokenID.Store(1)
	for now := 0.25; now <= 4; now += 0.25 {
		if _, err := m.Step(now); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Status()
	if st.Quarantined != 1 || st.QuarantineEvents != 1 {
		t.Fatalf("quarantine did not engage: %+v", st)
	}
	plan := m.Plan()
	if plan.Freqs[1] != 0 {
		t.Errorf("quarantined element still scheduled at %v", plan.Freqs[1])
	}
	// Its budget water-filled back across the healthy elements.
	if plan.Freqs[0] <= baseFreq || plan.Freqs[2] <= baseFreq {
		t.Errorf("freed budget not redistributed: %v (baseline per-element %v)", plan.Freqs, baseFreq)
	}
	// The degraded copy still serves.
	if _, _, err := m.Access(1); err != nil {
		t.Fatalf("quarantined object stopped serving: %v", err)
	}

	// Heal it; the next probe readmits it, and the plan is the whole
	// catalog's again, solved on what the mirror knows at that instant.
	f.brokenID.Store(-1)
	for now := 4.25; m.Status().Recoveries == 0 && now <= 8; now += 0.25 {
		if _, err := m.Step(now); err != nil {
			t.Fatal(err)
		}
	}
	st = m.Status()
	if st.Quarantined != 0 || st.Recoveries != 1 {
		t.Fatalf("element did not recover: %+v", st)
	}
	if got := m.Plan().Freqs[1]; got <= 0 {
		t.Errorf("recovered element not rescheduled: freq %v", got)
	}
	whole, err := core.MakePlan(m.Elements(), core.Config{Bandwidth: 6})
	if err != nil {
		t.Fatal(err)
	}
	if pf := st.PlannedPF; math.Abs(pf-whole.Perceived) > 1e-12 {
		t.Errorf("planned PF %v after readmission, want the whole catalog's %v", pf, whole.Perceived)
	}
}

func TestStepClockMovedBackwards(t *testing.T) {
	f := newFaultySource(t, []float64{1, 1})
	m := newFaultMirror(t, f, 2, FaultPolicy{})
	if _, err := m.Step(3); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(2.9); err == nil {
		t.Fatal("clock moving backwards must fail")
	}
	// The failed call left the clock untouched; equal time is fine.
	if got := m.Status().Now; got != 3 {
		t.Errorf("Now = %v after rejected step, want 3", got)
	}
	if _, err := m.Step(3); err != nil {
		t.Errorf("equal-time step rejected: %v", err)
	}
}

func TestStepReplanCadenceBoundary(t *testing.T) {
	f := newFaultySource(t, []float64{1, 1})
	client := NewSourceClient(f.srv.URL, f.srv.Client())
	client.SetRetryPolicy(fastRetry(1))
	m, err := New(context.Background(), Config{
		Upstream:    client,
		Plan:        core.Config{Bandwidth: 2},
		ReplanEvery: 10,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(9.999); err != nil {
		t.Fatal(err)
	}
	if got := m.Status().Replans; got != 1 {
		t.Fatalf("replanned before the cadence elapsed: %d", got)
	}
	// Exactly now - lastReplan == ReplanEvery must replan.
	if _, err := m.Step(10); err != nil {
		t.Fatal(err)
	}
	if got := m.Status().Replans; got != 2 {
		t.Errorf("Replans = %d at the exact cadence boundary, want 2", got)
	}
}

func TestRunResumeNeverDrivesTimeBackwards(t *testing.T) {
	f := newFaultySource(t, []float64{1, 1})
	m := newFaultMirror(t, f, 2, FaultPolicy{})
	if _, err := m.Step(5); err != nil {
		t.Fatal(err)
	}
	// Two consecutive Runs (as after an error-restart) resume from the
	// mirror clock instead of rewinding it to zero.
	for i := 0; i < 2; i++ {
		before := m.Status().Now
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- m.Run(ctx, 20*time.Millisecond) }()
		time.Sleep(50 * time.Millisecond)
		cancel()
		if err := <-done; err != nil {
			t.Fatalf("Run %d returned %v", i, err)
		}
		if now := m.Status().Now; now < before {
			t.Fatalf("Run %d drove time backwards: %v -> %v", i, before, now)
		}
	}
	if now := m.Status().Now; now < 5 {
		t.Errorf("resumed Run rewound the clock below the stepped time: %v", now)
	}
}

func TestHandlerObjectStatusCodes(t *testing.T) {
	f := newFaultySource(t, []float64{1, 1})
	m := newFaultMirror(t, f, 2, FaultPolicy{})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	cases := []struct {
		path string
		want int
	}{
		{"/object/1", http.StatusOK},
		{"/object/abc", http.StatusBadRequest},     // malformed id
		{"/object/1.5", http.StatusBadRequest},     // malformed id
		{"/object/", http.StatusBadRequest},        // empty id
		{"/object/99", http.StatusNotFound},        // out of range
		{"/object/-2", http.StatusNotFound},        // out of range
		{"/object/999999999", http.StatusNotFound}, // out of range
	}
	for _, tc := range cases {
		resp, err := srv.Client().Get(srv.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s = %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
}

func TestHandlerHealthz(t *testing.T) {
	f := newFaultySource(t, []float64{1, 1})
	m := newFaultMirror(t, f, 2, FaultPolicy{BreakerThreshold: 2, QuarantineAfter: 1, BreakerCooldown: 100})
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	get := func() Health {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/healthz = %s", resp.Status)
		}
		var h Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h
	}

	h := get()
	if !h.Serving || h.BreakerState != "closed" || len(h.Quarantined) != 0 {
		t.Fatalf("healthy /healthz = %+v", h)
	}

	// Degrade the upstream: healthz reflects quarantine and breaker.
	f.down.Store(true)
	if _, err := m.Step(3); err != nil {
		t.Fatal(err)
	}
	h = get()
	if !h.Serving {
		t.Error("mirror must report serving through an outage")
	}
	if h.BreakerState == "closed" {
		t.Error("breaker state not reflected in /healthz")
	}
	if len(h.Quarantined) == 0 {
		t.Error("quarantined objects not reflected in /healthz")
	}
	if h.RefreshFailures == 0 {
		t.Error("refresh failures not reflected in /healthz")
	}
}

// chaosTransport is an http.RoundTripper that injects faults between a
// client and its upstream: synthetic connection errors, added latency,
// stalls, and a toggleable full outage. TestChaosMirrorSurvives wraps
// a mirror's http.Client with it to run the refresh pipeline through
// bad weather.
type chaosTransport struct {
	*chaosCore
	next http.RoundTripper
}

// newChaosTransport wraps next.
func newChaosTransport(next http.RoundTripper, cfg ChaosConfig) (*chaosTransport, error) {
	cc, err := newChaosCore(cfg)
	if err != nil {
		return nil, err
	}
	return &chaosTransport{chaosCore: cc, next: next}, nil
}

// RoundTrip implements http.RoundTripper.
func (t *chaosTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	fail, stall := t.roll()
	if fail {
		return nil, fmt.Errorf("httpmirror: injected fault for %s", req.URL.Path)
	}
	wait := t.cfg.Latency
	if stall {
		wait = t.cfg.StallFor
	}
	if wait > 0 {
		select {
		case <-req.Context().Done():
			return nil, req.Context().Err()
		case <-time.After(wait):
		}
	}
	return t.next.RoundTrip(req)
}

// TestChaosMirrorSurvives is the acceptance scenario: a mirror driven
// through a 20% upstream fault rate, a deterministic per-object
// failure, and a full-outage window keeps serving, its Run loop never
// returns an error, quarantined objects re-enter the plan after
// recovery, and the planned PF re-converges to the fault-free plan.
func TestChaosMirrorSurvives(t *testing.T) {
	f := newFaultySource(t, []float64{1, 1, 1, 1, 1, 1})
	chaos, err := newChaosTransport(f.srv.Client().Transport, ChaosConfig{
		ErrorRate: 0, // clean during seeding; ramped to 0.2 below
		StallProb: 0.01,
		Seed:      42,
	})
	if err != nil {
		t.Fatal(err)
	}
	client := NewSourceClient(f.srv.URL, &http.Client{Transport: chaos})
	client.SetRetryPolicy(RetryPolicy{
		MaxAttempts: 3,
		Timeout:     80 * time.Millisecond, // converts stalls into retries
		BaseBackoff: time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
	})
	m, err := New(context.Background(), Config{
		Upstream:    client,
		Plan:        core.Config{Bandwidth: 10},
		ReplanEvery: 1000,
		Fault: FaultPolicy{
			BreakerThreshold: 5,
			BreakerCooldown:  1,
			QuarantineAfter:  2,
			ProbeEvery:       0.5,
		},
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	faultFreePF := m.Status().PlannedPF

	api := httptest.NewServer(m.Handler())
	defer api.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const period = 40 * time.Millisecond

	// Wall-clock driver for the source.
	go func() {
		start := time.Now()
		for ctx.Err() == nil {
			f.src.Advance(time.Since(start).Seconds() / period.Seconds())
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Continuous client traffic: every access must succeed, throughout
	// every fault phase.
	served := make(chan int, 1)
	go func() {
		n := 0
		for i := 0; ctx.Err() == nil; i++ {
			resp, err := api.Client().Get(fmt.Sprintf("%s/object/%d", api.URL, i%6))
			if err != nil {
				if ctx.Err() == nil {
					t.Errorf("access during chaos failed: %v", err)
				}
				break
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK || len(body) == 0 {
				t.Errorf("access during chaos: %s %q", resp.Status, body)
				break
			}
			n++
			time.Sleep(4 * time.Millisecond)
		}
		served <- n
	}()

	runDone := make(chan error, 1)
	go func() { runDone <- m.Run(ctx, period) }()

	waitFor := func(what string, deadline time.Duration, ok func(Status) bool) {
		t.Helper()
		end := time.Now().Add(deadline)
		for time.Now().Before(end) {
			if ok(m.Status()) {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s: %+v", what, m.Status())
	}

	// Phase 1: 20% fault rate. The pipeline rides it out on retries.
	chaos.SetErrorRate(0.2)
	time.Sleep(8 * period)

	// Phase 2: one object breaks hard and must be quarantined — its
	// planned frequency drops to zero. (Random faults may quarantine
	// other objects too; they recover in phase 4.)
	f.brokenID.Store(3)
	quarantineEnd := time.Now().Add(10 * time.Second)
	for m.Plan().Freqs[3] != 0 && time.Now().Before(quarantineEnd) {
		time.Sleep(5 * time.Millisecond)
	}
	if freq := m.Plan().Freqs[3]; freq != 0 {
		t.Fatalf("broken object never quarantined, still planned at %v: %+v", freq, m.Status())
	}
	f.brokenID.Store(-1)

	// Phase 3: full outage. The breaker opens; the mirror keeps
	// serving and skips refreshes instead of recording non-changes.
	chaos.SetOutage(true)
	waitFor("breaker to open", 10*time.Second, func(st Status) bool {
		return st.BreakerState != "closed" && st.SkippedRefreshes > 0
	})
	chaos.SetOutage(false)

	// Phase 4: recovery. Breaker closes, quarantined objects re-enter.
	waitFor("full recovery", 15*time.Second, func(st Status) bool {
		return st.BreakerState == "closed" && st.Quarantined == 0 && st.Recoveries >= 1
	})

	cancel()
	if err := <-runDone; err != nil {
		t.Fatalf("Run returned an error under chaos: %v", err)
	}
	if n := <-served; n == 0 {
		t.Fatal("no accesses served during the chaos run")
	}

	st := m.Status()
	if st.Retries == 0 {
		t.Error("no retries recorded under a 20% fault rate")
	}
	if st.BreakerTrips == 0 {
		t.Error("breaker never tripped during the outage")
	}
	if got := m.Plan().Freqs[3]; got <= 0 {
		t.Errorf("recovered object not back in the plan: freq %v", got)
	}
	if math.Abs(st.PlannedPF-faultFreePF) > 0.05*faultFreePF {
		t.Errorf("planned PF %v did not re-converge to the fault-free %v", st.PlannedPF, faultFreePF)
	}
}
