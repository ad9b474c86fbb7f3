package fleet

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"sync"
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
	up := newShardSource(httpmirror.NewSourceClient(srv.URL, srv.Client()), place, 1, nil)
	if _, ok := up.(httpmirror.ConditionalSource); !ok {
		t.Fatal("the shard view of a conditional source is not conditional")
	}
	if _, ok := newShardSource(newMemSource(n), place, 1, nil).(httpmirror.ConditionalSource); ok {
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
	polls := int64(st.Fetches)
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

// TestSeedBatchShardOwnIDs boots one shard of a batch-serving origin:
// its seed batches name only the shard's own global ids, and its
// copies match the origin's objects under those ids.
func TestSeedBatchShardOwnIDs(t *testing.T) {
	const n, shards, shard = 900, 3, 2
	src, err := httpmirror.NewSimulatedSource(make([]float64, n), nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	place, err := HashPlacement(n, shards)
	if err != nil {
		t.Fatal(err)
	}
	own := make(map[string]bool)
	for _, gid := range place.Globals(shard) {
		own[strconv.Itoa(int(gid))] = true
	}
	var mu sync.Mutex
	var batches, seen int
	var strays []string
	inner := src.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/objects" {
			mu.Lock()
			batches++
			for _, id := range strings.Split(r.URL.Query().Get("ids"), ",") {
				seen++
				if !own[id] {
					strays = append(strays, id)
				}
			}
			mu.Unlock()
		}
		inner.ServeHTTP(w, r)
	}))
	defer srv.Close()
	up := newShardSource(httpmirror.NewSourceClient(srv.URL, srv.Client()), place, shard, nil)
	batch, ok := up.(httpmirror.BatchSource)
	if !ok {
		t.Fatal("the shard view of a batch source fetches no batches")
	}
	if _, _, err := batch.FetchBatch(context.Background(), []int{0, len(own)}); err == nil {
		t.Error("a local id past the shard's catalog reached the upstream")
	}
	if batches != 0 {
		t.Errorf("an out-of-range batch sent %d requests", batches)
	}
	plain := newShardSource(newMemSource(n), place, shard, nil).(httpmirror.BatchSource)
	if _, _, err := plain.FetchBatch(context.Background(), []int{0}); !errors.Is(err, httpmirror.ErrBatchUnsupported) {
		t.Errorf("the shard view of a per-object source: FetchBatch = %v, want ErrBatchUnsupported", err)
	}

	m, err := httpmirror.New(context.Background(), httpmirror.Config{
		Upstream: up,
		Plan:     core.Config{Bandwidth: 10},
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if batches == 0 || seen != len(own) || len(strays) > 0 {
		t.Errorf("%d batches named %d ids for a %d-object shard; ids of other shards: %v", batches, seen, len(own), strays)
	}
	for l, gid := range place.Globals(shard) {
		body, _, err := m.Access(l)
		if want := fmt.Sprintf("object %d version 0", gid); err != nil || string(body) != want {
			t.Fatalf("local copy %d = %q, %v; want %q", l, body, err, want)
		}
	}
}

// catalogSource is a memSource that lists catalog, whatever it holds,
// and counts the fetches of it.
type catalogSource struct {
	*memSource
	catalog []httpmirror.CatalogEntry
	fetches int
}

func (s *catalogSource) Catalog(context.Context) ([]httpmirror.CatalogEntry, error) {
	s.fetches++
	return s.catalog, nil
}

// TestShardSourceCatalog: a boot catalog answers the view's first
// Catalog call without a fetch, once; later calls fetch the global
// catalog and refuse one that is not dense or lacks an owned object.
func TestShardSourceCatalog(t *testing.T) {
	const n, shard = 20, 1
	place, err := HashPlacement(n, 3)
	if err != nil {
		t.Fatal(err)
	}
	dense := make([]httpmirror.CatalogEntry, n)
	for i := range dense {
		dense[i] = httpmirror.CatalogEntry{ID: i, Size: float64(i + 1)}
	}
	src := &catalogSource{memSource: newMemSource(n), catalog: dense}
	boot := []httpmirror.CatalogEntry{{ID: 0, Size: 99}}
	ss := newShardSource(src, place, shard, boot)
	ctx := context.Background()
	if got, err := ss.Catalog(ctx); err != nil || len(got) != 1 || got[0].Size != 99 || src.fetches != 0 {
		t.Fatalf("first Catalog = %v, %v after %d fetches; want the boot catalog and no fetch", got, err, src.fetches)
	}
	gids := place.Globals(shard)
	got, err := ss.Catalog(ctx)
	if err != nil || len(got) != len(gids) || src.fetches != 1 {
		t.Fatalf("second Catalog = %d entries, %v after %d fetches; want %d entries from one fetch", len(got), err, src.fetches, len(gids))
	}
	for l, e := range got {
		if e.ID != l || e.Size != dense[gids[l]].Size {
			t.Errorf("local entry %d = %+v, want id %d size %v", l, e, l, dense[gids[l]].Size)
		}
	}

	permuted := append([]httpmirror.CatalogEntry(nil), dense...)
	permuted[3].ID, permuted[4].ID = 4, 3
	src.catalog = permuted
	if _, err := ss.Catalog(ctx); err == nil || !strings.Contains(err.Error(), "got 4 at position 3") {
		t.Errorf("permuted global catalog: %v", err)
	}
	last := slices.Max(gids)
	src.catalog = dense[:last]
	if _, err := ss.Catalog(ctx); err == nil || !strings.Contains(err.Error(), "missing object") {
		t.Errorf("global catalog without owned object %d: %v", last, err)
	}
}
