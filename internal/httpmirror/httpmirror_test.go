package httpmirror

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"freshen/internal/core"
)

func newTestPair(t *testing.T, lambdas []float64, bandwidth float64) (*SimulatedSource, *Mirror) {
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
		ReplanEvery: 10,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return src, m
}

func TestSimulatedSourceVersions(t *testing.T) {
	src, err := NewSimulatedSource([]float64{5, 0}, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	v0a, err := src.Version(0)
	if err != nil {
		t.Fatal(err)
	}
	src.Advance(10)
	v0b, _ := src.Version(0)
	v1, _ := src.Version(1)
	if v0b <= v0a {
		t.Errorf("object 0 (λ=5) did not change over 10 periods: %d -> %d", v0a, v0b)
	}
	if v1 != 0 {
		t.Errorf("object 1 (λ=0) changed: version %d", v1)
	}
	if _, err := src.Version(9); err == nil {
		t.Error("out-of-range version must fail")
	}
	if src.Now() != 10 {
		t.Errorf("Now = %v", src.Now())
	}
	// Advancing backwards is a no-op.
	src.Advance(5)
	if src.Now() != 10 {
		t.Errorf("clock moved backwards to %v", src.Now())
	}
}

func TestSourceHandlerProtocol(t *testing.T) {
	src, err := NewSimulatedSource([]float64{1, 2}, []float64{1, 3.5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(src.Handler())
	defer srv.Close()
	client := NewSourceClient(srv.URL, srv.Client())
	ctx := context.Background()

	catalog, err := client.Catalog(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(catalog) != 2 || catalog[1].Size != 3.5 {
		t.Errorf("catalog = %+v", catalog)
	}
	body, ver, err := client.Fetch(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 0 || !strings.Contains(string(body), "object 0") {
		t.Errorf("fetch: version %d body %q", ver, body)
	}
	if _, err := client.Version(ctx, 1); err != nil {
		t.Errorf("head failed: %v", err)
	}
	if _, _, err := client.Fetch(ctx, 99); err == nil {
		t.Error("fetching a missing object must fail")
	}
	resp, err := srv.Client().Get(srv.URL + "/object/xyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id returned %s", resp.Status)
	}
}

func TestMirrorSeedsAndServes(t *testing.T) {
	_, m := newTestPair(t, []float64{2, 1, 0.5}, 3)
	body, ver, err := m.Access(0)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 0 || len(body) == 0 {
		t.Errorf("seeded copy: version %d, body %q", ver, body)
	}
	if _, _, err := m.Access(9); err == nil {
		t.Error("out-of-range access must fail")
	}
	st := m.Status()
	if st.Objects != 3 || st.Fetches != 0 || st.Accesses != 1 {
		t.Errorf("status = %+v", st)
	}
	if st.PlannedPF <= 0 {
		t.Errorf("planned PF = %v", st.PlannedPF)
	}
}

// TestNewRefusesHeuristicStrategies: the live mirror plans with the
// exact solve only; New refuses the paper's heuristics against a
// source it could otherwise mirror.
func TestNewRefusesHeuristicStrategies(t *testing.T) {
	src, err := NewSimulatedSource([]float64{2, 1, 0.5, 0}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []core.Strategy{core.StrategyPartitioned, core.StrategyClustered} {
		_, err := New(context.Background(), Config{
			Upstream: simSource{src},
			Plan:     core.Config{Bandwidth: 4, Strategy: st, NumPartitions: 2, KMeansIterations: 2},
		})
		if err == nil {
			t.Errorf("New accepted Plan.Strategy %v", st)
		}
	}
}

func TestMirrorStepRefreshes(t *testing.T) {
	src, m := newTestPair(t, []float64{4, 4, 4, 4}, 8)
	src.Advance(3)
	refreshes, err := m.Step(3)
	if err != nil {
		t.Fatal(err)
	}
	// Budget 8/period over 3 periods: about 24 refreshes.
	if refreshes < 18 || refreshes > 30 {
		t.Errorf("refreshes = %d, want about 24", refreshes)
	}
	// A refreshed copy carries the advanced version.
	_, ver, err := m.Access(0)
	if err != nil {
		t.Fatal(err)
	}
	srcVer, _ := src.Version(0)
	if ver == 0 && srcVer > 2 {
		t.Errorf("copy still at version 0 while source is at %d", srcVer)
	}
	if _, err := m.Step(1); err == nil {
		t.Error("clock moving backwards must fail")
	}
}

func TestMirrorLearnsAndReplans(t *testing.T) {
	src, m := newTestPair(t, []float64{6, 6, 0.1, 0.1}, 4)
	initial := m.Plan()
	// All traffic hits object 0; advance past the replan cadence.
	for i := 0; i < 500; i++ {
		if _, _, err := m.Access(0); err != nil {
			t.Fatal(err)
		}
	}
	for now := 0.5; now <= 12; now += 0.5 {
		src.Advance(now)
		if _, err := m.Step(now); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Status()
	if st.Replans < 2 {
		t.Fatalf("mirror never replanned: %+v", st)
	}
	replanned := m.Plan()
	if replanned.Freqs[0] <= initial.Freqs[0] {
		t.Errorf("hot object frequency did not rise: %v -> %v",
			initial.Freqs[0], replanned.Freqs[0])
	}
}

func TestMirrorConditionalFetch(t *testing.T) {
	// An object that never changes costs polls but no transfers; a
	// churning one transfers on (almost) every refresh.
	src, m := newTestPair(t, []float64{0, 50}, 8)
	src.Advance(5)
	if _, err := m.Step(5); err != nil {
		t.Fatal(err)
	}
	st := m.Status()
	// ~40 refreshes happened; the static object contributed none of
	// the transfers.
	if st.Transfers == 0 {
		t.Fatal("no transfers despite a churning object")
	}
	if st.Transfers >= st.Fetches {
		t.Errorf("transfers %d not below polls %d (static object should skip bodies)",
			st.Transfers, st.Fetches)
	}
	// The static copy is still version 0 and still served.
	body, ver, err := m.Access(0)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 0 || len(body) == 0 {
		t.Errorf("static copy: version %d body %q", ver, body)
	}
	// The churning copy tracked the source.
	_, ver, err = m.Access(1)
	if err != nil {
		t.Fatal(err)
	}
	srcVer, _ := src.Version(1)
	if srcVer-ver > 60 { // λ=50 over ~0.125 period between refreshes
		t.Errorf("churning copy fell far behind: mirror %d vs source %d", ver, srcVer)
	}
}

func TestMirrorForceReplan(t *testing.T) {
	_, m := newTestPair(t, []float64{1, 1}, 2)
	before := m.Status().Replans
	if err := m.ForceReplan(); err != nil {
		t.Fatal(err)
	}
	if got := m.Status().Replans; got != before+1 {
		t.Errorf("Replans = %d, want %d", got, before+1)
	}
}

func TestMirrorHandler(t *testing.T) {
	_, m := newTestPair(t, []float64{1, 2}, 2)
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/object/1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(body) == 0 {
		t.Errorf("object: %s %q", resp.Status, body)
	}
	if resp.Header.Get("X-Version") == "" {
		t.Error("missing X-Version header")
	}

	resp, err = srv.Client().Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Objects != 2 || st.Accesses != 1 {
		t.Errorf("status = %+v", st)
	}

	resp, err = srv.Client().Post(srv.URL+"/replan", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("replan returned %s", resp.Status)
	}

	resp, err = srv.Client().Get(srv.URL + "/object/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id returned %s", resp.Status)
	}
	resp, err = srv.Client().Get(srv.URL + "/object/77")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("missing object returned %s", resp.Status)
	}
}

func TestSourceClientErrors(t *testing.T) {
	ctx := context.Background()
	// A dead endpoint fails every call (retries exhausted quickly).
	dead := NewSourceClient("http://127.0.0.1:1", nil)
	dead.SetRetryPolicy(RetryPolicy{MaxAttempts: 2, Timeout: time.Second, BaseBackoff: time.Millisecond})
	if _, err := dead.Catalog(ctx); err == nil {
		t.Error("catalog against a dead endpoint must fail")
	}
	if _, _, err := dead.Fetch(ctx, 0); err == nil {
		t.Error("fetch against a dead endpoint must fail")
	}
	if _, err := dead.Version(ctx, 0); err == nil {
		t.Error("head against a dead endpoint must fail")
	}
	if dead.Retries() == 0 {
		t.Error("transient failures must be retried")
	}
	if dead.Failures() != 3 {
		t.Errorf("Failures = %d, want 3", dead.Failures())
	}

	// An endpoint returning garbage fails decoding, without retrying:
	// a malformed payload is permanent.
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("not json, no version header"))
	}))
	defer bad.Close()
	client := NewSourceClient(bad.URL, bad.Client())
	if _, err := client.Catalog(ctx); err == nil {
		t.Error("garbage catalog must fail")
	}
	if _, _, err := client.Fetch(ctx, 0); err == nil {
		t.Error("fetch without X-Version must fail")
	}
	if _, err := client.Version(ctx, 0); err == nil {
		t.Error("head without X-Version must fail")
	}
	if client.Retries() != 0 {
		t.Errorf("permanent errors retried %d times", client.Retries())
	}

	// An empty catalog is rejected explicitly.
	empty := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("[]"))
	}))
	defer empty.Close()
	if _, err := NewSourceClient(empty.URL, empty.Client()).Catalog(ctx); err == nil {
		t.Error("empty catalog must fail")
	}
}

func TestSourceHandlerMethodNotAllowed(t *testing.T) {
	src, err := NewSimulatedSource([]float64{1}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(src.Handler())
	defer srv.Close()
	resp, err := srv.Client().Post(srv.URL+"/catalog", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /catalog returned %s", resp.Status)
	}
	resp, err = srv.Client().Post(srv.URL+"/object/0", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /object returned %s", resp.Status)
	}
	resp, err = srv.Client().Post(srv.URL+"/objects?ids=0", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /objects returned %s", resp.Status)
	}
}

// TestSourceBatchRoute: GET /objects answers every named object in
// request order, and refuses an id list that is empty, malformed, out
// of the catalog or over the cap.
func TestSourceBatchRoute(t *testing.T) {
	src, err := NewSimulatedSource([]float64{5, 0, 1}, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	src.Advance(2)
	srv := httptest.NewServer(src.Handler())
	defer srv.Close()
	var want []byte
	for _, id := range []int{2, 0, 2} {
		v, _ := src.Version(id)
		want = appendFrame(want, id, v, appendBody(nil, id, v))
	}
	overCap := strings.Repeat("0,", maxBatchIDs) + "0"
	for _, tc := range []struct {
		query string
		code  int
	}{
		{"ids=2,0,2", http.StatusOK},
		{"ids=2%2C0%2C2", http.StatusOK},
		{"", http.StatusBadRequest},
		{"ids=", http.StatusBadRequest},
		{"ids=1,", http.StatusBadRequest},
		{"ids=1,x", http.StatusBadRequest},
		{"ids=3", http.StatusBadRequest},
		{"ids=-1", http.StatusBadRequest},
		{"ids=" + overCap, http.StatusBadRequest},
	} {
		resp, err := srv.Client().Get(srv.URL + "/objects?" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.code {
			t.Errorf("?%.40s: %s, want %d", tc.query, resp.Status, tc.code)
			continue
		}
		if tc.code != http.StatusOK {
			continue
		}
		if ct := resp.Header.Get("Content-Type"); ct != batchContentType {
			t.Errorf("?%s: Content-Type %q", tc.query, ct)
		}
		if !bytes.Equal(body, want) {
			t.Errorf("?%s: body %q, want %q", tc.query, body, want)
		}
	}
}

func TestMirrorRunLoop(t *testing.T) {
	src, m := newTestPair(t, []float64{20, 20}, 40)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	// Advance the simulated source alongside the wall clock.
	go func() {
		start := time.Now()
		for ctx.Err() == nil {
			src.Advance(time.Since(start).Seconds() / 0.05)
			time.Sleep(2 * time.Millisecond)
		}
	}()
	go func() { done <- m.Run(ctx, 50*time.Millisecond) }()
	time.Sleep(300 * time.Millisecond)
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run returned %v on cancel", err)
	}
	st := m.Status()
	// ~6 periods at 40 refreshes/period plus the seeding fetches.
	if st.Fetches < 50 {
		t.Errorf("only %d fetches after 6 periods at budget 40/period", st.Fetches)
	}
	// A second Run resumes without driving the clock backwards.
	ctx2, cancel2 := context.WithCancel(context.Background())
	go func() { done <- m.Run(ctx2, 50*time.Millisecond) }()
	time.Sleep(60 * time.Millisecond)
	cancel2()
	if err := <-done; err != nil {
		t.Fatalf("resumed Run returned %v", err)
	}
	if err := m.Run(context.Background(), 0); err == nil {
		t.Error("zero period must fail")
	}
}

func TestMirrorValidation(t *testing.T) {
	if _, err := New(context.Background(), Config{}); err == nil {
		t.Error("missing upstream must fail")
	}
	if _, err := NewSimulatedSource(nil, nil, 1); err == nil {
		t.Error("empty source must fail")
	}
	if _, err := NewSimulatedSource([]float64{-1}, nil, 1); err == nil {
		t.Error("negative rate must fail")
	}
	if _, err := NewSimulatedSource([]float64{1}, []float64{1, 2}, 1); err == nil {
		t.Error("size length mismatch must fail")
	}
}
