package hierarchy

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"freshen/internal/core"
	"freshen/internal/httpmirror"
	"freshen/internal/resilience"
)

// killable is an HTTP server that can be stopped and restarted on the
// same address — the in-process analogue of kill -9 on a mirror
// daemon, for chaos-testing the chain's failover behavior.
type killable struct {
	t    *testing.T
	addr string
	h    http.Handler
	srv  *http.Server
}

func startKillable(t *testing.T, h http.Handler) *killable {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	k := &killable{t: t, addr: ln.Addr().String(), h: h}
	k.serve(ln)
	t.Cleanup(k.Stop)
	return k
}

func (k *killable) serve(ln net.Listener) {
	k.srv = &http.Server{Handler: k.h}
	go k.srv.Serve(ln)
}

func (k *killable) URL() string { return "http://" + k.addr }

func (k *killable) Stop() {
	if k.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	k.srv.Shutdown(ctx)
	cancel()
	k.srv.Close()
	k.srv = nil
}

func (k *killable) Restart() {
	k.t.Helper()
	var ln net.Listener
	var err error
	for deadline := time.Now().Add(5 * time.Second); ; {
		ln, err = net.Listen("tcp", k.addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			k.t.Fatalf("rebinding %s: %v", k.addr, err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	k.serve(ln)
}

// fastRetry makes chain failures land in test time, not wall time.
var fastRetry = httpmirror.RetryPolicy{MaxAttempts: 1, Timeout: 2 * time.Second}

func newChainMirror(t *testing.T, up httpmirror.Source) *httpmirror.Mirror {
	t.Helper()
	m, err := httpmirror.New(context.Background(), httpmirror.Config{
		Upstream:    up,
		Plan:        core.Config{Bandwidth: 2},
		ReplanEvery: 50,
		Fault:       httpmirror.FaultPolicy{BreakerThreshold: 2, BreakerCooldown: 1},
		Seed:        11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func getHeaders(t *testing.T, url string) (int, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode, resp.Header
}

// TestEdgeChainRegionalOutage is the live two-level drill: origin →
// regional → edge, then the regional tier dies mid-run. The edge must
// keep serving every object from its local copies, flip to
// source-degraded with growing staleness headers, and re-converge to
// full mode once the regional comes back.
func TestEdgeChainRegionalOutage(t *testing.T) {
	origin, err := httpmirror.NewSimulatedSource([]float64{2, 1, 0.5}, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	originSrv := httptest.NewServer(origin.Handler())
	defer originSrv.Close()

	regUp := httpmirror.NewSourceClient(originSrv.URL, originSrv.Client())
	regUp.SetRetryPolicy(fastRetry)
	regional := newChainMirror(t, regUp)
	regSrv := startKillable(t, regional.Handler())

	edgeUp := NewMirrorSource(regSrv.URL(), nil)
	edgeUp.SetRetryPolicy(fastRetry)
	edge := newChainMirror(t, edgeUp)
	edgeAPI := httptest.NewServer(edge.Handler())
	defer edgeAPI.Close()

	// Healthy steady state: both tiers step, the edge serves clean.
	now := 0.0
	stepBoth := func(periods int) {
		for i := 0; i < periods; i++ {
			now++
			origin.Advance(now)
			if _, err := regional.Step(now); err != nil {
				t.Fatal(err)
			}
			if _, err := edge.Step(now); err != nil {
				t.Fatal(err)
			}
		}
	}
	stepBoth(3)
	if mode := edge.Mode(); mode != resilience.ModeFull {
		t.Fatalf("healthy chain: edge mode %v", mode)
	}
	if code, h := getHeaders(t, edgeAPI.URL+"/object/0"); code != http.StatusOK || h.Get("X-Mirror-Mode") != "" {
		t.Fatalf("healthy chain: code %d mode header %q", code, h.Get("X-Mirror-Mode"))
	}
	if st := edge.Status(); st.UpstreamURL != regSrv.URL() {
		t.Fatalf("edge upstream_url = %q, want %q", st.UpstreamURL, regSrv.URL())
	}

	// Kill the regional tier mid-run.
	regSrv.Stop()
	stepBoth(3)
	if mode := edge.Mode(); mode&resilience.ModeSourceDegraded == 0 {
		t.Fatalf("regional dead: edge mode %v, want source-degraded", mode)
	}
	// Every object still serves, 200, stale and saying so.
	var stale1 float64
	for id := 0; id < 3; id++ {
		code, h := getHeaders(t, edgeAPI.URL+"/object/"+strconv.Itoa(id))
		if code != http.StatusOK {
			t.Fatalf("object %d served %d during regional outage", id, code)
		}
		if got := h.Get("X-Mirror-Mode"); got != "source-degraded" {
			t.Errorf("object %d mode header %q", id, got)
		}
		s, err := strconv.ParseFloat(h.Get("X-Staleness-Periods"), 64)
		if err != nil || s <= 0 {
			t.Errorf("object %d staleness header %q", id, h.Get("X-Staleness-Periods"))
		}
		if id == 0 {
			stale1 = s
		}
	}
	// Staleness grows while the outage lasts.
	stepBoth(2)
	_, h := getHeaders(t, edgeAPI.URL+"/object/0")
	if s, _ := strconv.ParseFloat(h.Get("X-Staleness-Periods"), 64); s <= stale1 {
		t.Errorf("staleness did not grow during outage: %v then %v", stale1, s)
	}

	// Regional returns; the edge re-converges past its breaker
	// cooldown and drops the degradation headers.
	regSrv.Restart()
	for i := 0; i < 20 && edge.Mode() != resilience.ModeFull; i++ {
		stepBoth(1)
	}
	if mode := edge.Mode(); mode != resilience.ModeFull {
		t.Fatalf("edge did not re-converge after regional restart: mode %v", mode)
	}
	if _, h := getHeaders(t, edgeAPI.URL+"/object/0"); h.Get("X-Mirror-Mode") != "" {
		t.Errorf("recovered edge still sends mode header %q", h.Get("X-Mirror-Mode"))
	}
}

// TestCompoundedStaleness cuts the chain at the top instead: the
// origin dies, the regional goes source-degraded, and the edge — whose
// own refreshes against the regional keep succeeding — must still
// enter source-degraded mode via the upstream axis and add the
// regional's reported staleness to its own in the headers it serves.
func TestCompoundedStaleness(t *testing.T) {
	origin, err := httpmirror.NewSimulatedSource([]float64{2, 1}, nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	originSrv := startKillable(t, origin.Handler())

	regUp := httpmirror.NewSourceClient(originSrv.URL(), nil)
	regUp.SetRetryPolicy(fastRetry)
	regional := newChainMirror(t, regUp)
	regAPI := httptest.NewServer(regional.Handler())
	defer regAPI.Close()

	edgeUp := NewMirrorSource(regAPI.URL, regAPI.Client())
	edgeUp.SetRetryPolicy(fastRetry)
	edge := newChainMirror(t, edgeUp)
	edgeAPI := httptest.NewServer(edge.Handler())
	defer edgeAPI.Close()

	now := 0.0
	stepBoth := func(periods int) {
		for i := 0; i < periods; i++ {
			now++
			origin.Advance(now)
			if _, err := regional.Step(now); err != nil {
				t.Fatal(err)
			}
			if _, err := edge.Step(now); err != nil {
				t.Fatal(err)
			}
		}
	}
	stepBoth(2)

	// Origin dies: the regional degrades, the edge's own refreshes
	// keep succeeding against the still-serving regional.
	originSrv.Stop()
	stepBoth(4)
	if mode := regional.Mode(); mode&resilience.ModeSourceDegraded == 0 {
		t.Fatalf("origin dead: regional mode %v", mode)
	}
	if st := edge.Status(); st.BreakerState != "closed" {
		t.Fatalf("edge breaker %q; its upstream (the regional) is alive", st.BreakerState)
	}
	if mode := edge.Mode(); mode&resilience.ModeSourceDegraded == 0 {
		t.Fatal("edge did not compound the regional's degradation")
	}
	st := edge.Status()
	if !st.UpstreamDegraded {
		t.Error("edge status does not report upstream degradation")
	}

	// The edge's staleness header carries the chain total: its own
	// verification age plus what the regional reported. It must be at
	// least the regional's standing report for the same object.
	upStale := edgeUp.UpstreamStaleness(0)
	if upStale <= 0 {
		t.Fatal("observer recorded no upstream staleness")
	}
	_, h := getHeaders(t, edgeAPI.URL+"/object/0")
	if got := h.Get("X-Mirror-Mode"); got != "source-degraded" {
		t.Errorf("edge mode header %q", got)
	}
	s, err := strconv.ParseFloat(h.Get("X-Staleness-Periods"), 64)
	if err != nil {
		t.Fatalf("edge staleness header %q: %v", h.Get("X-Staleness-Periods"), err)
	}
	if s < upStale {
		t.Errorf("edge staleness %v below the upstream's reported %v: not compounded", s, upStale)
	}

	// Origin returns: the regional re-verifies, its headers clean up,
	// and the edge's upstream axis self-clears on the next polls.
	originSrv.Restart()
	for i := 0; i < 30 && (regional.Mode() != resilience.ModeFull || edge.Mode() != resilience.ModeFull); i++ {
		stepBoth(1)
	}
	if regional.Mode() != resilience.ModeFull {
		t.Fatalf("regional did not recover: %v", regional.Mode())
	}
	if edge.Mode() != resilience.ModeFull {
		t.Fatalf("edge upstream axis did not self-clear: %v", edge.Mode())
	}
	if st := edge.Status(); st.UpstreamDegraded {
		t.Error("recovered edge still reports upstream degradation")
	}
}

// TestCompoundedStalenessAtBoot cuts the regional off from its origin
// before the edge exists, then boots an edge below it. The edge must
// seed one object at a time, never asking the regional for GET
// /objects, whose frames carry no degradation headers, and from its
// first read serve every object at least as stale as the regional
// reports it.
func TestCompoundedStalenessAtBoot(t *testing.T) {
	const n = 5
	origin, err := httpmirror.NewSimulatedSource([]float64{2, 1, 0.5, 0.25, 0}, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	originSrv := startKillable(t, origin.Handler())
	regUp := httpmirror.NewSourceClient(originSrv.URL(), nil)
	regUp.SetRetryPolicy(fastRetry)
	regional := newChainMirror(t, regUp)
	var batches, objects atomic.Int64
	regHandler := regional.Handler()
	regAPI := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/objects":
			batches.Add(1)
		case strings.HasPrefix(r.URL.Path, "/object/"):
			objects.Add(1)
		}
		regHandler.ServeHTTP(w, r)
	}))
	defer regAPI.Close()

	originSrv.Stop()
	for now := 1.0; now <= 4; now++ {
		if _, err := regional.Step(now); err != nil {
			t.Fatal(err)
		}
	}
	if mode := regional.Mode(); mode&resilience.ModeSourceDegraded == 0 {
		t.Fatalf("origin dead: regional mode %v, want source-degraded", mode)
	}

	edgeUp := NewMirrorSource(regAPI.URL, regAPI.Client())
	edgeUp.SetRetryPolicy(fastRetry)
	edge := newChainMirror(t, edgeUp)
	edgeAPI := httptest.NewServer(edge.Handler())
	defer edgeAPI.Close()
	if b, o := batches.Load(), objects.Load(); b != 0 || o != n {
		t.Errorf("edge boot sent %d GET /objects and %d object requests to the regional, want 0 and %d", b, o, n)
	}
	for id := 0; id < n; id++ {
		path := "/object/" + strconv.Itoa(id)
		_, rh := getHeaders(t, regAPI.URL+path)
		regStale, err := strconv.ParseFloat(rh.Get("X-Staleness-Periods"), 64)
		if err != nil || regStale <= 0 {
			t.Fatalf("regional object %d staleness header %q", id, rh.Get("X-Staleness-Periods"))
		}
		code, eh := getHeaders(t, edgeAPI.URL+path)
		if code != http.StatusOK {
			t.Fatalf("edge object %d served %d", id, code)
		}
		if got := eh.Get("X-Mirror-Mode"); got != "source-degraded" {
			t.Errorf("edge object %d mode header %q, want source-degraded", id, got)
		}
		s, err := strconv.ParseFloat(eh.Get("X-Staleness-Periods"), 64)
		if err != nil || s < regStale {
			t.Errorf("edge object %d staleness header %q, regional reports %v", id, eh.Get("X-Staleness-Periods"), regStale)
		}
	}
}
