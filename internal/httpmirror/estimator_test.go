package httpmirror

import (
	"context"
	"net/http/httptest"
	"testing"

	"freshen/internal/core"
)

// newExploreMirror builds a mirror with an explore slice over a
// simulated source with the given true rates.
func newExploreMirror(t *testing.T, lambdas []float64, bandwidth, exploreFrac float64) (*SimulatedSource, *Mirror) {
	t.Helper()
	src, err := NewSimulatedSource(lambdas, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(src.Handler())
	t.Cleanup(srv.Close)
	m, err := New(context.Background(), Config{
		Upstream:    NewSourceClient(srv.URL, srv.Client()),
		Plan:        core.Config{Bandwidth: bandwidth},
		ReplanEvery: 2,
		ExploreFrac: exploreFrac,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return src, m
}

// TestMirrorExploreProbesAndBudget drives a live mirror with an
// explore slice end to end: probe refreshes must actually happen and
// be counted, the slice's bandwidth must respect the configured cap,
// and the slice must anneal — as the estimator converges, the probe
// budget shrinks and its bandwidth flows back to exploitation.
func TestMirrorExploreProbesAndBudget(t *testing.T) {
	// Three hot objects carry all access traffic; the rest are static
	// and unaccessed, so the exploit plan starves them and only the
	// explore slice keeps them observable.
	lambdas := make([]float64, 12)
	for i := 0; i < 3; i++ {
		lambdas[i] = 4
	}
	const bandwidth, exploreFrac = 6.0, 0.3
	src, m := newExploreMirror(t, lambdas, bandwidth, exploreFrac)

	cap := bandwidth * exploreFrac
	var firstBW float64
	for step := 1; step <= 300; step++ {
		tm := 0.5 * float64(step)
		src.Advance(tm)
		if _, err := m.Step(tm); err != nil {
			t.Fatal(err)
		}
		for k := 0; k < 3; k++ {
			if _, _, err := m.Access(step % 3); err != nil {
				t.Fatal(err)
			}
		}
		st := m.Status()
		if st.ExploreBandwidth > cap+1e-9 {
			t.Fatalf("step %d: explore bandwidth %v exceeds cap %v", step, st.ExploreBandwidth, cap)
		}
		if firstBW == 0 && st.ExploreBandwidth > 0 {
			firstBW = st.ExploreBandwidth
		}
	}
	st := m.Status()
	if st.ExploreProbes == 0 {
		t.Error("no explore probes counted over 150 periods")
	}
	if firstBW == 0 {
		t.Fatal("explore slice never received bandwidth")
	}
	// Annealing: a cold mirror's slice starts near the cap (every
	// element at uncertainty 1) and must shrink substantially once the
	// catalog is well estimated.
	if firstBW < 0.8*cap {
		t.Errorf("cold explore bandwidth %v, want near cap %v", firstBW, cap)
	}
	if st.ExploreBandwidth > firstBW/2 {
		t.Errorf("explore bandwidth did not anneal: first %v, final %v", firstBW, st.ExploreBandwidth)
	}
	if st.Estimator != "mle" || st.ExploreFrac != exploreFrac {
		t.Errorf("status reports estimator %q frac %v", st.Estimator, st.ExploreFrac)
	}
}

// TestMirrorExploreDisabled pins the zero-config behavior: without an
// explore fraction the mirror runs pure exploitation — no probe
// bandwidth, no probe counts.
func TestMirrorExploreDisabled(t *testing.T) {
	src, m := newTestPair(t, []float64{4, 1, 0.2, 0.2}, 4)
	for step := 1; step <= 20; step++ {
		tm := 0.5 * float64(step)
		src.Advance(tm)
		if _, err := m.Step(tm); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Status()
	if st.ExploreProbes != 0 || st.ExploreBandwidth != 0 {
		t.Errorf("explore active without ExploreFrac: probes=%d bw=%v",
			st.ExploreProbes, st.ExploreBandwidth)
	}
}

// TestOnlineEstimatorRestartContinuity round-trips the online MLE
// through snapshot and restart: the recovered mirror must
// resume with the exact pre-crash estimates — convergence carries
// across the restart instead of resetting to the prior.
func TestOnlineEstimatorRestartContinuity(t *testing.T) {
	f := newFaultySource(t, []float64{3, 1, 0.5, 2})
	dir := t.TempDir()
	mod := func(c *Config) { c.ExploreFrac = 0.2 }
	m1, _ := newPersistMirror(t, f.srv.URL, f.srv.Client(), dir, 1, 1000, mod)
	for step := 1; step <= 40; step++ {
		tm := 0.25 * float64(step)
		f.src.Advance(tm)
		if _, err := m1.Step(tm); err != nil {
			t.Fatal(err)
		}
		m1.Access(step % 4)
	}
	if err := m1.FlushSnapshot(); err != nil {
		t.Fatal(err)
	}
	preEst, err := m1.estimatesSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	pre := m1.est.Estimate(0)
	if pre.Polls == 0 {
		t.Fatal("setup: object 0 never polled")
	}

	m2, _ := newPersistMirror(t, f.srv.URL, f.srv.Client(), dir, 1, 1000, mod)
	if got := m2.Status().Estimator; got != "mle" {
		t.Fatalf("recovered estimator kind %q", got)
	}
	postEst, err := m2.estimatesSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	for i := range preEst {
		if preEst[i] != postEst[i] {
			t.Errorf("element %d: recovered λ̂ %v != pre-crash %v", i, postEst[i], preEst[i])
		}
	}
	// Confidence survives too: the recovered estimator remembers how
	// much it has seen, not just where it landed.
	post := m2.est.Estimate(0)
	if post.Polls != pre.Polls || post.StdErr != pre.StdErr {
		t.Errorf("estimator state reset: pre polls=%d stderr=%v, post polls=%d stderr=%v",
			pre.Polls, pre.StdErr, post.Polls, post.StdErr)
	}
	// And the restarted mirror keeps learning from where it left off.
	f.src.Advance(11)
	if _, err := m2.Step(11); err != nil {
		t.Fatal(err)
	}
	if got := m2.est.Estimate(0); got.Polls <= post.Polls {
		t.Errorf("recovered estimator not observing: polls %d -> %d", post.Polls, got.Polls)
	}
}
