package hierarchy

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"freshen/internal/httpmirror"
)

// TestMirrorSourceSpeaksSourceProtocol points a MirrorSource at a
// plain origin: the adapter must be a drop-in Source (catalog, fetch,
// head, conditional fetch) with the health interface reporting
// healthy throughout.
func TestMirrorSourceSpeaksSourceProtocol(t *testing.T) {
	origin, err := httpmirror.NewSimulatedSource([]float64{1, 2}, []float64{1, 2.5}, 7)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(origin.Handler())
	defer srv.Close()
	ms := NewMirrorSource(srv.URL, srv.Client())
	ctx := context.Background()

	catalog, err := ms.Catalog(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(catalog) != 2 || catalog[1].Size != 2.5 {
		t.Fatalf("catalog = %+v", catalog)
	}
	body, ver, err := ms.Fetch(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) == 0 {
		t.Error("empty body")
	}
	if v, err := ms.Version(ctx, 0); err != nil || v != ver {
		t.Errorf("Version = %d, %v; want %d", v, err, ver)
	}
	_, _, notMod, err := ms.FetchIfNewer(ctx, 0, ver)
	if err != nil {
		t.Fatal(err)
	}
	if !notMod {
		t.Error("conditional fetch of the current version was not a 304")
	}
	if ms.UpstreamDegraded() {
		t.Error("healthy origin reported degraded")
	}
	if s := ms.UpstreamStaleness(0); s != 0 {
		t.Errorf("healthy origin staleness = %v", s)
	}
	if ms.UpstreamURL() != srv.URL {
		t.Errorf("UpstreamURL = %q, want %q", ms.UpstreamURL(), srv.URL)
	}
}

// TestObserverTracksDegradationHeaders drives the observing transport
// with a scriptable upstream: degraded responses must set the flag and
// record per-object staleness, healthy ones must self-clear both, and
// non-substantive answers (a 503 shed) must leave a standing signal
// alone.
func TestObserverTracksDegradationHeaders(t *testing.T) {
	var mode, staleness string
	var code int
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/catalog" {
			w.Write([]byte(`[{"id":0,"size":1},{"id":1,"size":1}]`))
			return
		}
		if mode != "" {
			w.Header().Set("X-Mirror-Mode", mode)
		}
		if staleness != "" {
			w.Header().Set("X-Staleness-Periods", staleness)
		}
		w.Header().Set("X-Version", "3")
		if code != 0 && code != http.StatusOK {
			w.WriteHeader(code)
			return
		}
		w.Write([]byte("body"))
	}))
	defer srv.Close()
	ms := NewMirrorSource(srv.URL, srv.Client())
	ms.SetRetryPolicy(httpmirror.RetryPolicy{MaxAttempts: 1})
	ctx := context.Background()
	if _, err := ms.Catalog(ctx); err != nil {
		t.Fatal(err)
	}

	mode, staleness = "source-degraded", "4.50"
	if _, _, err := ms.Fetch(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if !ms.UpstreamDegraded() {
		t.Fatal("degraded header not observed")
	}
	if s := ms.UpstreamStaleness(0); s != 4.5 {
		t.Errorf("staleness(0) = %v, want 4.5", s)
	}
	if s := ms.UpstreamStaleness(1); s != 0 {
		t.Errorf("staleness(1) = %v, want 0 (never reported)", s)
	}

	// A shed says nothing: the standing signal survives.
	code = http.StatusServiceUnavailable
	if _, _, err := ms.Fetch(ctx, 0); err == nil {
		t.Fatal("shed fetch should fail")
	} else if !strings.Contains(err.Error(), "503") {
		t.Fatalf("unexpected error: %v", err)
	}
	if !ms.UpstreamDegraded() || ms.UpstreamStaleness(0) != 4.5 {
		t.Error("a 503 cleared the degradation signal")
	}

	// Persist-degraded alone is not source degradation: the upstream
	// still verifies against its origin, so the source axis clears.
	code, mode, staleness = 0, "persist-degraded", ""
	if _, _, err := ms.Fetch(ctx, 0); err != nil {
		t.Fatal(err)
	}
	if ms.UpstreamDegraded() || ms.UpstreamStaleness(0) != 0 {
		t.Error("persist-degraded answer did not clear the source axis")
	}

	// The compound mode counts as source degradation again.
	mode, staleness = "source-degraded+persist-degraded", "1.25"
	if _, _, err := ms.Fetch(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if !ms.UpstreamDegraded() || ms.UpstreamStaleness(1) != 1.25 {
		t.Error("compound mode not observed")
	}

	// Fully healthy self-clears.
	mode, staleness = "", ""
	if _, _, err := ms.Fetch(ctx, 1); err != nil {
		t.Fatal(err)
	}
	if ms.UpstreamDegraded() || ms.UpstreamStaleness(1) != 0 {
		t.Error("healthy answer did not self-clear")
	}
}

// TestNilClientMirrorSourcesOwnPools: with a nil client each
// MirrorSource gets a transport of its own, so no connection serves
// two sources, and the observer still reads every response through it.
func TestNilClientMirrorSourcesOwnPools(t *testing.T) {
	var (
		mu    sync.Mutex
		owner = map[string]int{} // connection → the source that used it first
		cur   int
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if k, ok := owner[r.RemoteAddr]; ok && k != cur {
			t.Errorf("connection %s served sources %d and %d", r.RemoteAddr, k, cur)
		}
		owner[r.RemoteAddr] = cur
		mu.Unlock()
		if r.URL.Path == "/catalog" {
			w.Write([]byte(`[{"id":0,"size":1},{"id":1,"size":1}]`))
			return
		}
		w.Header().Set("X-Mirror-Mode", "source-degraded")
		w.Header().Set("X-Staleness-Periods", "2")
		w.Header().Set("X-Version", "1")
		w.Write([]byte("body"))
	}))
	defer srv.Close()
	ctx := context.Background()
	for k := range 2 {
		mu.Lock()
		cur = k
		mu.Unlock()
		ms := NewMirrorSource(srv.URL, nil)
		if _, err := ms.Catalog(ctx); err != nil {
			t.Fatal(err)
		}
		for id := range 2 {
			if _, _, err := ms.Fetch(ctx, id); err != nil {
				t.Fatal(err)
			}
		}
		if !ms.UpstreamDegraded() || ms.UpstreamStaleness(1) != 2 {
			t.Errorf("source %d: the observer missed the degradation headers", k)
		}
	}
}
