package fleet

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"freshen/internal/core"
	"freshen/internal/httpmirror"
)

// TestShardPollsWithConditionalFetches: over a conditional source a
// shard's mirror polls with one conditional GET per refresh, as a
// single mirror does, and unchanged objects come back 304.
func TestShardPollsWithConditionalFetches(t *testing.T) {
	const n = 60
	lambdas := make([]float64, n)
	for i := range lambdas {
		lambdas[i] = 0.3
	}
	src, err := httpmirror.NewSimulatedSource(lambdas, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	var requests, heads atomic.Int64
	inner := src.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/object/") {
			requests.Add(1)
			if r.Method == http.MethodHead {
				heads.Add(1)
			}
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	place, err := HashPlacement(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	up := newShardSource(httpmirror.NewSourceClient(srv.URL, srv.Client()), place, 1)
	if _, ok := up.(httpmirror.ConditionalSource); !ok {
		t.Fatal("the shard view of a conditional source is not conditional")
	}
	if _, ok := newShardSource(newMemSource(n), place, 1).(httpmirror.ConditionalSource); ok {
		t.Error("the shard view of a plain source claims conditional fetches")
	}
	if _, _, _, err := up.(httpmirror.ConditionalSource).FetchIfNewer(context.Background(), len(place.Globals(1)), 0); err == nil {
		t.Error("a local id past the shard's catalog reached the upstream")
	}

	m, err := httpmirror.New(context.Background(), httpmirror.Config{
		Upstream: up,
		Plan:     core.Config{Bandwidth: 10},
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	seeded := requests.Load()
	for tm := 0.25; tm <= 12; tm += 0.25 {
		src.Advance(tm)
		if _, err := m.Step(tm); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Status()
	polls := int64(st.Fetches - st.Objects)
	if polls == 0 {
		t.Fatal("the shard never refreshed")
	}
	if got := requests.Load() - seeded; got != polls {
		t.Errorf("%d upstream requests for %d polls, want one each", got, polls)
	}
	if h := heads.Load(); h != 0 {
		t.Errorf("%d HEAD requests; conditional polls need none", h)
	}
	if st.NotModified == 0 || st.Transfers == 0 {
		t.Errorf("NotModified = %d, Transfers = %d; want both > 0", st.NotModified, st.Transfers)
	}
}
