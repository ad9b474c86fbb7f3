package httpmirror

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"freshen/internal/core"
	"freshen/internal/obs"
	"freshen/internal/persist"
)

// newInstrumentedMirror builds a mirror wired to a fresh registry and
// a test logger, backed by a simulated origin.
func newInstrumentedMirror(t *testing.T, lambdas []float64, bandwidth float64) (*SimulatedSource, *Mirror, *obs.Registry) {
	t.Helper()
	src, err := NewSimulatedSource(lambdas, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(src.Handler())
	t.Cleanup(srv.Close)
	reg := obs.NewRegistry()
	m, err := New(context.Background(), Config{
		Upstream:    NewSourceClient(srv.URL, srv.Client()),
		Plan:        core.Config{Bandwidth: bandwidth},
		ReplanEvery: 10,
		Metrics:     reg,
		Logger:      obs.NewTestLogger(io.Discard, -8),
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return src, m, reg
}

func scrape(t *testing.T, url string) *obs.Exposition {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	e, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestMirrorMetricsEndToEnd drives a live mirror and scrapes its own
// /metrics route: the core series (PF, refresh outcomes and latency,
// serve-path counters, state gauges) must all be present with sane
// values.
func TestMirrorMetricsEndToEnd(t *testing.T) {
	src, m, _ := newInstrumentedMirror(t, []float64{4, 2, 1, 0.5}, 4)
	api := httptest.NewServer(m.Handler())
	defer api.Close()

	for step := 1; step <= 6; step++ {
		src.Advance(float64(step))
		if _, err := m.Step(float64(step)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/object/%d", api.URL, i%4))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	// One miss for the 404 serve-path label.
	if resp, err := http.Get(api.URL + "/object/99"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	e := scrape(t, api.URL+"/metrics")

	if v, ok := e.Value("freshen_pf"); !ok || v <= 0 || v > 1 {
		t.Errorf("freshen_pf = %v, %v; want in (0, 1]", v, ok)
	}
	if v, ok := e.Value("freshen_avg_freshness"); !ok || v <= 0 || v > 1 {
		t.Errorf("freshen_avg_freshness = %v, %v", v, ok)
	}
	if v, ok := e.Value("freshen_objects"); !ok || v != 4 {
		t.Errorf("freshen_objects = %v, %v; want 4", v, ok)
	}
	if v, ok := e.Value("freshen_clock_periods"); !ok || v != 6 {
		t.Errorf("freshen_clock_periods = %v, %v; want 6", v, ok)
	}
	if v, ok := e.Value("freshen_refreshes_total", "outcome", "success"); !ok || v < 1 {
		t.Errorf("freshen_refreshes_total{success} = %v, %v; want >= 1", v, ok)
	}
	if v, ok := e.Value("freshen_refresh_duration_seconds_count", "outcome", "success"); !ok || v < 1 {
		t.Errorf("refresh duration count = %v, %v; want >= 1", v, ok)
	}
	if v, ok := e.Value("freshen_accesses_total"); !ok || v != 5 {
		t.Errorf("freshen_accesses_total = %v, %v; want 5", v, ok)
	}
	if v, ok := e.Value("freshen_replans_total"); !ok || v < 1 {
		t.Errorf("freshen_replans_total = %v, %v; want >= 1", v, ok)
	}
	if v, ok := e.Value("freshen_breaker_state"); !ok || v != 0 {
		t.Errorf("freshen_breaker_state = %v, %v; want 0 (closed)", v, ok)
	}
	if v, ok := e.Value("freshen_quarantine_size"); !ok || v != 0 {
		t.Errorf("freshen_quarantine_size = %v, %v; want 0", v, ok)
	}
	if v, ok := e.Value("freshen_serve_requests_total", "route", "/object", "code", "200"); !ok || v != 5 {
		t.Errorf("serve_requests{/object,200} = %v, %v; want 5", v, ok)
	}
	if v, ok := e.Value("freshen_serve_requests_total", "route", "/object", "code", "404"); !ok || v != 1 {
		t.Errorf("serve_requests{/object,404} = %v, %v; want 1", v, ok)
	}
	if v, ok := e.Value("freshen_schedule_staleness_periods"); !ok || v < 0 {
		t.Errorf("freshen_schedule_staleness_periods = %v, %v", v, ok)
	}
	if v, ok := e.Value("freshen_last_snapshot_age_periods"); !ok || v != -1 {
		t.Errorf("snapshot age without persistence = %v, %v; want -1", v, ok)
	}
	if v, ok := e.Value("freshen_estimator_polls_total"); !ok || v < 1 {
		t.Errorf("freshen_estimator_polls_total = %v, %v; want >= 1", v, ok)
	}

	// The scrape itself must land in the serve-path counters on the
	// next scrape.
	e2 := scrape(t, api.URL+"/metrics")
	if v, ok := e2.Value("freshen_serve_requests_total", "route", "/metrics", "code", "200"); !ok || v < 1 {
		t.Errorf("serve_requests{/metrics,200} = %v, %v; want >= 1", v, ok)
	}
}

// TestMetricsMethodNotAllowed pins the contract that /metrics rejects
// non-GET with 405, never 404.
func TestMetricsMethodNotAllowed(t *testing.T) {
	_, m, _ := newInstrumentedMirror(t, []float64{1}, 1)
	api := httptest.NewServer(m.Handler())
	defer api.Close()
	resp, err := http.Post(api.URL+"/metrics", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /metrics = %d; want 405", resp.StatusCode)
	}
}

// TestMetricsRouteAbsentWithoutRegistry: a mirror built without a
// registry serves no /metrics route at all.
func TestMetricsRouteAbsentWithoutRegistry(t *testing.T) {
	_, m := newTestPair(t, []float64{1}, 1)
	api := httptest.NewServer(m.Handler())
	defer api.Close()
	resp, err := http.Get(api.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /metrics without registry = %d; want 404", resp.StatusCode)
	}
}

// apply commits one refresh outcome through applyLocked, as a live
// attempt and journal replay both do.
func apply(m *Mirror, r persist.Record) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.applyLocked(r)
}

// TestFaultMetrics trips quarantine and the breaker through the
// outcome path and checks the counters and gauges follow.
func TestFaultMetrics(t *testing.T) {
	_, m, reg := newInstrumentedMirror(t, []float64{1, 1}, 1)
	// Default policy: quarantine after 3 consecutive per-element
	// failures, breaker opens after 5 consecutive failures overall.
	for i := 0; i < 3; i++ {
		apply(m, persist.Record{Kind: persist.KindFailure, Element: 0, At: 1})
	}
	for i := 0; i < 2; i++ {
		apply(m, persist.Record{Kind: persist.KindFailure, Element: 1, At: 1})
	}

	var b strings.Builder
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	e, err := obs.ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := e.Value("freshen_quarantine_events_total"); !ok || v != 1 {
		t.Errorf("freshen_quarantine_events_total = %v, %v; want 1", v, ok)
	}
	if v, ok := e.Value("freshen_quarantine_size"); !ok || v != 1 {
		t.Errorf("freshen_quarantine_size = %v, %v; want 1", v, ok)
	}
	if v, ok := e.Value("freshen_breaker_trips_total"); !ok || v != 1 {
		t.Errorf("freshen_breaker_trips_total = %v, %v; want 1", v, ok)
	}
	if v, ok := e.Value("freshen_breaker_state"); !ok || v != float64(BreakerOpen) {
		t.Errorf("freshen_breaker_state = %v, %v; want open", v, ok)
	}

	// A successful probe releases the element and closes the breaker.
	apply(m, persist.Record{Kind: persist.KindRefresh, Element: 0, At: 5})
	b.Reset()
	if _, err := reg.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	e2, err := obs.ParseExposition(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := e2.Value("freshen_recoveries_total"); !ok || v != 1 {
		t.Errorf("freshen_recoveries_total = %v, %v; want 1", v, ok)
	}
	if v, ok := e2.Value("freshen_quarantine_size"); !ok || v != 0 {
		t.Errorf("freshen_quarantine_size after recovery = %v, %v; want 0", v, ok)
	}
	if v, ok := e2.Value("freshen_breaker_state"); !ok || v != float64(BreakerClosed) {
		t.Errorf("freshen_breaker_state after success = %v, %v; want closed", v, ok)
	}
}

// TestHealthEndpointContentNegotiation pins the Accept-based split:
// JSON by default, bare ok/unavailable when text/plain is asked for.
func TestHealthEndpointContentNegotiation(t *testing.T) {
	_, m := newTestPair(t, []float64{1}, 1)
	api := httptest.NewServer(m.Handler())
	defer api.Close()

	get := func(path, accept string) (*http.Response, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodGet, api.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(body)
	}

	for _, path := range []string{"/healthz", "/readyz"} {
		resp, body := get(path, "")
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s default Content-Type = %q; want application/json", path, ct)
		}
		if !strings.HasPrefix(body, "{") {
			t.Errorf("%s default body is not JSON: %q", path, body)
		}
		resp, body = get(path, "text/plain")
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Errorf("%s text Content-Type = %q; want text/plain", path, ct)
		}
		if strings.TrimSpace(body) != "ok" {
			t.Errorf("%s text body = %q; want ok", path, body)
		}
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s = %d; want 200", path, resp.StatusCode)
		}
	}
}

// TestReadyzPlainTextUnavailable: a cold persistent mirror is not
// ready, and the plain-text form must say so with a 503.
func TestReadyzPlainTextUnavailable(t *testing.T) {
	src, err := NewSimulatedSource([]float64{1}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(src.Handler())
	defer srv.Close()
	store, err := persist.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	m, err := New(context.Background(), Config{
		Upstream: NewSourceClient(srv.URL, srv.Client()),
		Plan:     core.Config{Bandwidth: 1},
		Persist:  store,
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	api := httptest.NewServer(m.Handler())
	defer api.Close()

	req, err := http.NewRequest(http.MethodGet, api.URL+"/readyz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("cold /readyz = %d; want 503", resp.StatusCode)
	}
	if strings.TrimSpace(string(body)) != "unavailable" {
		t.Errorf("cold /readyz body = %q; want unavailable", body)
	}
}

// TestEstimatorMetricsCountLivePolls pins the estimator counters: every
// poll the live estimator observes counts, changed polls count
// separately, and a restarted mirror seeds both from the restored
// per-element totals and the replayed journal, so they always match
// the observations the estimates rest on.
func TestEstimatorMetricsCountLivePolls(t *testing.T) {
	f := newFaultySource(t, []float64{3, 1, 0.5, 2})
	dir := t.TempDir()
	counters := func(reg *obs.Registry) (polls, changes float64) {
		t.Helper()
		var b strings.Builder
		if _, err := reg.WriteTo(&b); err != nil {
			t.Fatal(err)
		}
		e, err := obs.ParseExposition(strings.NewReader(b.String()))
		if err != nil {
			t.Fatal(err)
		}
		polls, _ = e.Value("freshen_estimator_polls_total")
		changes, _ = e.Value("freshen_estimator_changes_total")
		return polls, changes
	}
	observed := func(m *Mirror) (polls, changes float64) {
		m.mu.Lock()
		defer m.mu.Unlock()
		for _, e := range estimatorState(m) {
			polls += float64(e.Polls)
			changes += float64(e.Changes)
		}
		return polls, changes
	}
	withRegistry := func(reg *obs.Registry) func(*Config) {
		return func(c *Config) { c.Metrics = reg }
	}

	reg1 := obs.NewRegistry()
	m1, store := newPersistMirror(t, f.srv.URL, f.srv.Client(), dir, 1, 1000, withRegistry(reg1))
	for step := 1; step <= 30; step++ {
		tm := 0.25 * float64(step)
		f.src.Advance(tm)
		if _, err := m1.Step(tm); err != nil {
			t.Fatal(err)
		}
		if step == 20 {
			if err := m1.FlushSnapshot(); err != nil {
				t.Fatal(err)
			}
		}
	}
	store.Close()
	polls, changes := counters(reg1)
	wantPolls, wantChanges := observed(m1)
	if polls == 0 || changes == 0 || polls != wantPolls || changes != wantChanges {
		t.Fatalf("live counters polls=%v changes=%v, estimator observed %v/%v", polls, changes, wantPolls, wantChanges)
	}

	// Restart on the snapshot plus the journal written after it.
	reg2 := obs.NewRegistry()
	m2, _ := newPersistMirror(t, f.srv.URL, f.srv.Client(), dir, 1, 1000, withRegistry(reg2))
	if rd := m2.Readiness(); rd.RecoveryStatus != "recovered" || rd.JournalReplayed == 0 {
		t.Fatalf("setup: recovery = %+v", rd)
	}
	if polls, changes := counters(reg2); polls != wantPolls || changes != wantChanges {
		t.Errorf("restarted counters polls=%v changes=%v, want the recovered %v/%v", polls, changes, wantPolls, wantChanges)
	}
}
