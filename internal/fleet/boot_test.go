package fleet

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"freshen/internal/core"
	"freshen/internal/httpmirror"
	"freshen/internal/stats"
)

// bootOrigin serves a SimulatedSource over loopback HTTP and counts
// the requests it receives: all of them, GET /catalog and GET /objects.
type bootOrigin struct {
	srv                    *httptest.Server
	all, catalogs, batches atomic.Int64
}

// newBootOrigin serves n objects whose change rates are drawn from the
// fleet-router workload's Gamma (mean 2, sd 1). A non-nil catalog
// replaces the one the source lists.
func newBootOrigin(tb testing.TB, n int, catalog []httpmirror.CatalogEntry) *bootOrigin {
	tb.Helper()
	g, err := stats.NewGammaMeanStdDev(2, 1)
	if err != nil {
		tb.Fatal(err)
	}
	src, err := httpmirror.NewSimulatedSource(g.SampleN(stats.NewRNG(1), n), nil, 1)
	if err != nil {
		tb.Fatal(err)
	}
	inner := src.Handler()
	o := &bootOrigin{}
	o.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		o.all.Add(1)
		switch r.URL.Path {
		case "/catalog":
			o.catalogs.Add(1)
			if catalog != nil {
				json.NewEncoder(w).Encode(catalog)
				return
			}
		case "/objects":
			o.batches.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	tb.Cleanup(o.srv.Close)
	return o
}

// bootConfig is a 4-shard fleet over o with per-shard state dirs; each
// shard's upstream is its own nil-client SourceClient, as in freshend,
// passed through wrap when wrap is non-nil.
func bootConfig(tb testing.TB, o *bootOrigin, budget float64, wrap func(int, *httpmirror.SourceClient) httpmirror.Source) Config {
	return Config{
		Shards:   4,
		Budget:   budget,
		Upstream: httpmirror.NewSourceClient(o.srv.URL, nil),
		ShardUpstream: func(i int) httpmirror.Source {
			c := httpmirror.NewSourceClient(o.srv.URL, nil)
			if wrap != nil {
				return wrap(i, c)
			}
			return c
		},
		Mirror: httpmirror.Config{
			Plan:        core.Config{Strategy: core.StrategyExact},
			ReplanEvery: 5,
			Seed:        1,
		},
		Period:   20 * time.Millisecond,
		StateDir: tb.TempDir(),
	}
}

// closeFleet stops f at cleanup.
func closeFleet(tb testing.TB, f *Fleet) {
	tb.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		f.Close(ctx)
	})
}

// TestNewRefusesBadConfig: New refuses a config it cannot run before
// it fetches the catalog or starts a shard. Among them is a planning
// cadence that is not a positive Duration: the supervisor's ticker
// panics on a non-positive interval, and a shard whose cadence is
// negative would solve on every Step.
func TestNewRefusesBadConfig(t *testing.T) {
	for _, c := range []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"no shards", func(c *Config) { c.Shards = 0 }, "shard count"},
		{"negative shards", func(c *Config) { c.Shards = -2 }, "shard count"},
		{"more shards than a placement indexes", func(c *Config) { c.Shards = MaxShards + 1 }, "shard count"},
		{"nil upstream", func(c *Config) { c.Upstream = nil }, "upstream"},
		{"zero period", func(c *Config) { c.Period = 0 }, "period"},
		{"negative period", func(c *Config) { c.Period = -time.Second }, "period"},
		{"zero budget", func(c *Config) { c.Budget = 0 }, "budget"},
		{"negative budget", func(c *Config) { c.Budget = -1 }, "budget"},
		{"negative cadence", func(c *Config) { c.Mirror.ReplanEvery = -1 }, "leveling"},
		{"NaN cadence", func(c *Config) { c.Mirror.ReplanEvery = math.NaN() }, "leveling"},
		{"infinite cadence", func(c *Config) { c.Mirror.ReplanEvery = math.Inf(1) }, "leveling"},
		{"sub-nanosecond cadence", func(c *Config) {
			c.Mirror.ReplanEvery = 1e-9
			c.Period = time.Millisecond
		}, "leveling"},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := Config{
				Shards:   2,
				Budget:   8,
				Upstream: newMemSource(16),
				Mirror:   httpmirror.Config{Plan: core.Config{Strategy: core.StrategyExact}, Seed: 7},
				Period:   time.Hour,
			}
			c.mutate(&cfg)
			f, err := New(context.Background(), cfg)
			if err == nil {
				closeFleet(t, f)
				t.Fatal("New accepted the config")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("New: %v; want an error naming the %s", err, c.want)
			}
		})
	}
}

// TestFleetRejectsNonDenseCatalog: shards take their objects from the
// global catalog by id, so New holds it to the rule a single mirror
// holds its own to, entry i has id i, and fails before any shard
// opens its state dir or seeds.
func TestFleetRejectsNonDenseCatalog(t *testing.T) {
	const n = 40
	for _, c := range []struct {
		name string
		bad  func([]httpmirror.CatalogEntry) // breaks position 7
	}{
		{"gap", func(cat []httpmirror.CatalogEntry) {
			for i := 7; i < len(cat); i++ {
				cat[i].ID++
			}
		}},
		{"duplicate", func(cat []httpmirror.CatalogEntry) { cat[7].ID = 6 }},
		{"permuted", func(cat []httpmirror.CatalogEntry) { cat[7].ID, cat[8].ID = 8, 7 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			catalog := make([]httpmirror.CatalogEntry, n)
			for i := range catalog {
				catalog[i] = httpmirror.CatalogEntry{ID: i, Size: 1}
			}
			c.bad(catalog)
			o := newBootOrigin(t, n, catalog)
			cfg := bootConfig(t, o, 8, nil)
			f, err := New(context.Background(), cfg)
			if err == nil {
				closeFleet(t, f)
				t.Fatal("New accepted a non-dense catalog")
			}
			if want := fmt.Sprintf("got %d at position 7", catalog[7].ID); !strings.Contains(err.Error(), want) {
				t.Errorf("New: %v; want an error naming %q", err, want)
			}
			if b := o.batches.Load(); b != 0 {
				t.Errorf("%d GET /objects before the catalog was rejected", b)
			}
			if dirs, err := os.ReadDir(cfg.StateDir); err != nil || len(dirs) != 0 {
				t.Errorf("state dir holds %d entries (%v); no shard may open one", len(dirs), err)
			}
		})
	}
}

// TestFleetBootFetchesCatalogOnce: a boot fetches the global catalog
// once and hands each shard its slice; a restart fetches it again.
func TestFleetBootFetchesCatalogOnce(t *testing.T) {
	o := newBootOrigin(t, 400, nil)
	f, err := New(context.Background(), bootConfig(t, o, 40, nil))
	if err != nil {
		t.Fatal(err)
	}
	closeFleet(t, f)
	if got := o.catalogs.Load(); got != 1 {
		t.Errorf("a 4-shard boot sent %d GET /catalog, want 1", got)
	}
	for i := 0; i < 4; i++ {
		if !f.Shard(i).Running() {
			t.Errorf("shard %d is not running after New", i)
		}
	}
	if err := f.Kill(2); err != nil {
		t.Fatal(err)
	}
	if err := f.Restart(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if got := o.catalogs.Load(); got != 2 {
		t.Errorf("boot plus one restart sent %d GET /catalog, want 2", got)
	}
}

// TestColdPersistentFleetServes: a cold persistent shard has no
// durable state until its first snapshot, yet it is seeded, planned
// and serving from the moment it starts. From boot through every
// shard's first snapshot, the router answers every read 200 and every
// leveling succeeds.
func TestColdPersistentFleetServes(t *testing.T) {
	const n = 24
	f, srv := newTestFleet(t, newMemSource(n), func(cfg *Config) {
		cfg.StateDir = t.TempDir()
		cfg.Mirror.SnapshotEvery = 4
	})
	snapshotted := func() bool {
		for i := range f.shards {
			if f.Shard(i).Mirror().Readiness().Snapshots == 0 {
				return false
			}
		}
		return true
	}
	deadline := time.Now().Add(10 * time.Second)
	// One more sweep of the catalog after the last first snapshot.
	for last := false; !last; {
		last = snapshotted()
		for gid := 0; gid < n; gid++ {
			if resp, body := get(t, http.MethodGet, srv.URL+"/object/"+strconv.Itoa(gid), ""); resp.StatusCode != http.StatusOK {
				t.Fatalf("object %d: status %d %q, want 200 from boot on", gid, resp.StatusCode, body)
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("a shard took no snapshot within 10s")
		}
	}
	history := f.AllocationHistory()
	if len(history) < 2 {
		t.Errorf("%d levelings recorded; want the boot's and a cadence's", len(history))
	}
	for i, rec := range history {
		if rec.Err != nil {
			t.Errorf("leveling %d: %v", i, rec.Err)
		}
	}
}

// stallBatches holds every batch until its context ends, so its
// shard's seed ends only when New cancels it. limit bounds the wait,
// so a New that never cancels fails the test instead of hanging it.
type stallBatches struct {
	*httpmirror.SourceClient
	limit time.Duration
}

func (s stallBatches) FetchBatch(ctx context.Context, _ []int) ([]string, []int, error) {
	select {
	case <-ctx.Done():
		return nil, nil, ctx.Err()
	case <-time.After(s.limit):
		return nil, nil, errors.New("batch stalled past its cap")
	}
}

// failBatches fails every batch once each of ready is closed.
type failBatches struct {
	*httpmirror.SourceClient
	ready  []chan struct{}
	failed *atomic.Int64 // unix nanos of the first failure
}

func (s failBatches) FetchBatch(ctx context.Context, _ []int) ([]string, []int, error) {
	for _, ch := range s.ready {
		select {
		case <-ch:
		case <-ctx.Done():
		}
	}
	s.failed.CompareAndSwap(0, time.Now().UnixNano())
	return nil, nil, errors.New("injected batch failure")
}

// signalPolls closes polled on its first refresh poll, which a shard
// makes only after its start has succeeded.
type signalPolls struct {
	*httpmirror.SourceClient
	once   *sync.Once
	polled chan struct{}
}

func (s signalPolls) FetchIfNewer(ctx context.Context, id, have int) ([]byte, int, bool, error) {
	s.once.Do(func() { close(s.polled) })
	return s.SourceClient.FetchIfNewer(ctx, id, have)
}

// TestFleetBootShardFailure: shards 0 and 1 start, shard 2's seed
// stalls, and shard 3's upstream fails every batch once 0 and 1 are
// polling. New must return shard 3's failure, end shard 2's seed
// promptly, and stop the shards that started: over 3 periods after New
// returns the origin hears nothing more, so no refresh loop survived.
func TestFleetBootShardFailure(t *testing.T) {
	const stallCap = 20 * time.Second
	o := newBootOrigin(t, 400, nil)
	polled := []chan struct{}{make(chan struct{}), make(chan struct{})}
	var failed atomic.Int64
	cfg := bootConfig(t, o, 40, func(i int, c *httpmirror.SourceClient) httpmirror.Source {
		switch i {
		case 0, 1:
			return signalPolls{SourceClient: c, once: new(sync.Once), polled: polled[i]}
		case 2:
			return stallBatches{SourceClient: c, limit: stallCap}
		default:
			return failBatches{SourceClient: c, ready: polled, failed: &failed}
		}
	})
	f, err := New(context.Background(), cfg)
	returned := time.Now()
	if err == nil {
		closeFleet(t, f)
		t.Fatal("New succeeded with a shard whose every batch fails")
	}
	if !strings.Contains(err.Error(), "shard 3") || !strings.Contains(err.Error(), "injected batch failure") {
		t.Errorf("New: %v; want shard 3's batch failure", err)
	}
	for i, ch := range polled {
		select {
		case <-ch:
		default:
			t.Errorf("shard %d never started, so the test stopped no running shard", i)
		}
	}
	if at := failed.Load(); at == 0 {
		t.Error("shard 3's upstream never failed a batch")
	} else if d := returned.Sub(time.Unix(0, at)); d > stallCap/4 {
		t.Errorf("New returned %v after the failure; shard 2's seed outlived it", d)
	}
	before := o.all.Load()
	time.Sleep(3 * cfg.Period)
	if after := o.all.Load(); after != before {
		t.Errorf("the origin received %d requests after New failed; a started shard kept refreshing", after-before)
	}
}

// BenchmarkFleetBoot times New at the fleet-router workload's shape —
// 4 shards over N=20,000 objects, B=1,000, a 1 s period, per-shard
// nil-client SourceClients and state dirs — against a loopback
// SimulatedSource. Each op is a cold boot: a fresh state dir, and
// Close outside the timer.
func BenchmarkFleetBoot(b *testing.B) {
	o := newBootOrigin(b, 20_000, nil)
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		cfg := bootConfig(b, o, 1000, nil)
		cfg.Period = time.Second
		b.StartTimer()
		f, err := New(context.Background(), cfg)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		err = f.Close(ctx)
		cancel()
		if err != nil {
			b.Fatal(err)
		}
	}
}
