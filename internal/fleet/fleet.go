package fleet

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"freshen/internal/httpmirror"
	"freshen/internal/obs"
	"freshen/internal/persist"
	"freshen/internal/resilience"
)

// Config describes a fleet: K shards over one global source, a global
// budget, and the cadences of the two supervisor loops (health
// checking and budget leveling).
type Config struct {
	// Shards is K, the shard count.
	Shards int
	// Budget is the global refresh budget per period, water-filled
	// across healthy shards every AllocEvery.
	Budget float64
	// Placement fixes the object→shard map; nil means HashPlacement
	// over the source catalog.
	Placement *Placement
	// Upstream is the global source the fleet mirrors.
	Upstream httpmirror.Source
	// ShardUpstream, when non-nil, supplies shard i's own view of the
	// global source — production fleets give every shard its own
	// SourceClient so retry/failure counters and connection pools stay
	// fault-isolated. The pool is the client's own only when the
	// SourceClient is built with a nil http.Client (see
	// httpmirror.NewTransport); clients built on one shared
	// http.Client share its pool. nil shares Upstream: its counters
	// and its pool, and so, when Upstream is a nil-client
	// SourceClient, that pool's cap of four connections, which every
	// shard's seeding and refreshes then queue for.
	ShardUpstream func(shard int) httpmirror.Source
	// Mirror is the per-shard configuration template (strategy,
	// estimator, fault policy, overload limits). Upstream, Persist,
	// Metrics, and Logger are overridden per shard; Plan.Bandwidth is
	// overridden by the allocator.
	Mirror httpmirror.Config
	// Period is the wall-clock length of one period.
	Period time.Duration
	// StateDir, when non-empty, gives shard i the persist directory
	// StateDir/shard-i.
	StateDir string
	// WrapStore, when non-nil, wraps shard i's store on every start —
	// the chaos hook for persist.FaultStore.
	WrapStore func(shard int, s *persist.Store) persist.Storer
	// AllocEvery is the budget re-leveling cadence; 0 means Period.
	// Health transitions additionally trigger an immediate re-level,
	// so a dead shard's slice reaches the survivors within one period
	// regardless of cadence.
	AllocEvery time.Duration
	// HealthEvery is the /readyz probe cadence, and the bound on one
	// probe; 0 means Period/4.
	HealthEvery time.Duration
	// Metrics, when non-nil, carries the fleet-level series (shard
	// health, slices, router traffic). Per-shard series live on each
	// shard's own listener.
	Metrics *obs.Registry
	// Logger receives fleet events; nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.AllocEvery <= 0 {
		c.AllocEvery = c.Period
	}
	if c.HealthEvery <= 0 {
		c.HealthEvery = c.Period / 4
	}
	if c.HealthEvery <= 0 {
		c.HealthEvery = time.Second
	}
	if c.Logger == nil {
		c.Logger = obs.Nop()
	}
	return c
}

// healthFailures is how many consecutive probe failures mark a live
// shard unhealthy, so one slow probe does not trigger a fleet-wide
// re-level.
const healthFailures = 2

// certifyTol is the tolerance of the KKT certificate and the budget
// conservation check every leveling must pass.
const certifyTol = 1e-6

// AllocationRecord is one supervisor re-leveling, kept in the fleet's
// bounded history so chaos gates can assert budget conservation and
// certification at every replan — including the degraded ones taken
// while shards were down.
type AllocationRecord struct {
	Allocation Allocation
	Err        error
}

// allocHistoryCap bounds the in-memory allocation history.
const allocHistoryCap = 4096

// Fleet is the running sharded tier: the shards, the supervisor state
// (health, allocation), and the router (see router.go).
type Fleet struct {
	cfg    Config
	place  *Placement
	shards []*Shard
	probes *http.Client // /readyz health probes
	log    *slog.Logger
	m      *fleetMetrics

	// healthy is the supervisor's per-shard verdict. The router reads
	// it lock-free on every object read; writers flip it under mu, so
	// a flip and its fails bookkeeping stay one step.
	healthy []atomic.Bool

	mu        sync.Mutex
	fails     []int
	alloc     Allocation
	allocErr  error
	reallocs  int
	certFails int
	history   []AllocationRecord

	// Windowed traffic accounting for the allocator: the mirror each
	// shard's last access reading came from (counters reset when a
	// shard restarts — a new mirror means a new baseline) and that
	// reading itself. reallocate weights shards by the delta since the
	// previous leveling, never by lifetime counts.
	lastMirror []*httpmirror.Mirror
	lastAcc    []int
}

// New builds and starts the fleet: placement, K shards (each booted
// and seeded via ctx), and one initial budget leveling so no shard
// runs on a made-up budget for longer than the boot takes.
func New(ctx context.Context, cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	if cfg.Shards <= 0 {
		return nil, fmt.Errorf("fleet: shard count must be positive, got %d", cfg.Shards)
	}
	if cfg.Upstream == nil {
		return nil, fmt.Errorf("fleet: upstream is required")
	}
	if cfg.Period <= 0 {
		return nil, fmt.Errorf("fleet: period must be positive, got %v", cfg.Period)
	}
	if cfg.Budget <= 0 {
		return nil, fmt.Errorf("fleet: budget must be positive, got %v", cfg.Budget)
	}

	place := cfg.Placement
	catalog, err := cfg.Upstream.Catalog(ctx)
	if err != nil {
		return nil, fmt.Errorf("fleet: global catalog: %w", err)
	}
	if place == nil {
		place, err = HashPlacement(len(catalog), cfg.Shards)
		if err != nil {
			return nil, err
		}
	}
	if place.K() != cfg.Shards {
		return nil, fmt.Errorf("fleet: placement has %d shards, config wants %d", place.K(), cfg.Shards)
	}
	if place.NumObjects() != len(catalog) {
		return nil, fmt.Errorf("fleet: placement covers %d objects, catalog has %d", place.NumObjects(), len(catalog))
	}

	f := &Fleet{
		cfg:        cfg,
		place:      place,
		log:        obs.Component(cfg.Logger, "fleet"),
		healthy:    make([]atomic.Bool, cfg.Shards),
		fails:      make([]int, cfg.Shards),
		lastMirror: make([]*httpmirror.Mirror, cfg.Shards),
		lastAcc:    make([]int, cfg.Shards),
		// Its own transport, so Close drops only the probes' idle
		// connections.
		probes: &http.Client{Transport: &http.Transport{}},
	}
	f.m = instrumentFleet(f, cfg.Metrics)

	// Until the first leveling, each shard boots on a budget slice
	// proportional to the transfer mass it owns — close enough that
	// the warm-started solvers do useful work during seeding.
	totalSize := 0.0
	sizeOf := make([]float64, cfg.Shards)
	for _, e := range catalog {
		s := place.ShardOf(e.ID)
		sizeOf[s] += e.Size
		totalSize += e.Size
	}

	for i := 0; i < cfg.Shards; i++ {
		up := cfg.Upstream
		if cfg.ShardUpstream != nil {
			up = cfg.ShardUpstream(i)
		}
		mcfg := cfg.Mirror
		mcfg.Plan.Bandwidth = cfg.Budget * sizeOf[i] / totalSize
		// Stagger refresh phases across shards so the fleet's upstream
		// traffic does not arrive in K synchronized pulses.
		mcfg.Seed = cfg.Mirror.Seed + int64(i)
		stateDir := ""
		if cfg.StateDir != "" {
			stateDir = filepath.Join(cfg.StateDir, fmt.Sprintf("shard-%d", i))
		}
		var wrap func(*persist.Store) persist.Storer
		if cfg.WrapStore != nil {
			idx := i
			wrap = func(s *persist.Store) persist.Storer { return cfg.WrapStore(idx, s) }
		}
		sh, err := NewShard(ShardConfig{
			Index:     i,
			Placement: place,
			Upstream:  up,
			Mirror:    mcfg,
			StateDir:  stateDir,
			WrapStore: wrap,
			Period:    cfg.Period,
			Logger:    cfg.Logger,
		})
		if err != nil {
			f.closeShards()
			return nil, err
		}
		f.shards = append(f.shards, sh)
		if err := sh.Start(ctx); err != nil {
			f.closeShards()
			return nil, err
		}
		f.healthy[i].Store(true)
	}

	f.reallocate("boot")
	return f, nil
}

// closeShards hard-stops whatever started during a failed New.
func (f *Fleet) closeShards() {
	for _, sh := range f.shards {
		if sh != nil {
			sh.Kill()
		}
	}
}

// Run drives the supervisor until ctx is done: /readyz probes on the
// health cadence, budget leveling on the allocation cadence, and an
// immediate leveling whenever the healthy set changes — that is what
// moves a dead shard's slice to the survivors within one period, and
// hands it back on recovery.
func (f *Fleet) Run(ctx context.Context) error {
	health := time.NewTicker(f.cfg.HealthEvery)
	defer health.Stop()
	alloc := time.NewTicker(f.cfg.AllocEvery)
	defer alloc.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-health.C:
			if f.checkHealth(ctx) {
				f.reallocate("health change")
			}
		case <-alloc.C:
			f.reallocate("cadence")
		}
	}
}

// checkHealth probes every shard's /readyz and reports whether the
// healthy set changed. A dead process fails instantly (Running() is
// false); a live one must answer 200 within HealthEvery. Unhealthy
// needs healthFailures consecutive misses so one slow probe does not
// trigger a fleet-wide re-level; recovery is immediate on the first
// 200 — a restarted shard gets its budget back as fast as possible.
func (f *Fleet) checkHealth(ctx context.Context) (changed bool) {
	for i, sh := range f.shards {
		ok := sh.Running() && f.probe(ctx, sh.URL())
		f.mu.Lock()
		if ok {
			f.fails[i] = 0
			if !f.healthy[i].Load() {
				f.healthy[i].Store(true)
				changed = true
				f.log.Info("shard recovered", "shard", i)
			}
		} else {
			f.fails[i]++
			// A dead process cannot come back without Restart; skip
			// the grace window and fail it now so its keyspace 503s
			// honestly instead of timing out healthFailures more times.
			if f.healthy[i].Load() && (f.fails[i] >= healthFailures || !sh.Running()) {
				f.healthy[i].Store(false)
				changed = true
				f.log.Warn("shard unhealthy", "shard", i, "consecutive_failures", f.fails[i])
			}
		}
		f.mu.Unlock()
	}
	return changed
}

// probe is one /readyz round-trip.
func (f *Fleet) probe(ctx context.Context, url string) bool {
	if url == "" {
		return false
	}
	ctx, cancel := context.WithTimeout(ctx, f.cfg.HealthEvery)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/readyz", nil)
	if err != nil {
		return false
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := f.probes.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// reallocate re-levels the global budget across the currently healthy
// shards and applies the slices. Every attempt — including failed
// ones — is recorded in the bounded history.
func (f *Fleet) reallocate(reason string) {
	healthy, _ := f.healthySnapshot()
	mirrors := make([]*httpmirror.Mirror, len(f.shards))
	for i, sh := range f.shards {
		mirrors[i] = sh.Mirror()
	}
	traffic := f.trafficWindow(mirrors)
	alloc, err := Allocate(mirrors, healthy, traffic, f.cfg.Budget, f.cfg.Mirror.Plan.Policy, certifyTol)

	f.mu.Lock()
	f.alloc, f.allocErr = alloc, err
	f.reallocs++
	if err != nil {
		f.certFails++
	}
	if len(f.history) < allocHistoryCap {
		f.history = append(f.history, AllocationRecord{Allocation: alloc, Err: err})
	}
	f.mu.Unlock()
	f.m.countRealloc(err)
	f.m.setSlices(alloc)

	if err != nil {
		f.log.Error("budget leveling failed", "reason", reason, "error", err)
		return
	}
	for i, m := range mirrors {
		if m == nil || !alloc.Healthy[i] {
			continue
		}
		if err := m.SetBudget(alloc.Slices[i]); err != nil {
			f.log.Error("applying budget slice failed", "shard", i, "slice", alloc.Slices[i], "error", err)
		}
	}
	f.log.Debug("budget leveled", "reason", reason, "perceived", alloc.Perceived)
}

// trafficWindow returns the allocator's per-shard traffic counts:
// accesses since the previous leveling plus one Laplace pseudo-count
// per owned object. The windowing makes readings comparable across
// restarts — a recovering shard's counter starts at zero, and judging
// it against survivors' lifetime totals would starve its keyspace of
// budget forever. With no recent traffic anywhere the pseudo-counts
// dominate and the split decays to size-proportional.
func (f *Fleet) trafficWindow(mirrors []*httpmirror.Mirror) []float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	traffic := make([]float64, len(mirrors))
	for i, m := range mirrors {
		traffic[i] = float64(len(f.place.Globals(i)))
		if m == nil {
			f.lastMirror[i] = nil
			f.lastAcc[i] = 0
			continue
		}
		cur := m.Status().Accesses
		if m == f.lastMirror[i] && cur >= f.lastAcc[i] {
			traffic[i] += float64(cur - f.lastAcc[i])
		} else {
			// A different mirror (restart) or a smaller reading: the
			// counter restarted from zero, so the whole reading is
			// this window's delta.
			traffic[i] += float64(cur)
		}
		f.lastMirror[i] = m
		f.lastAcc[i] = cur
	}
	return traffic
}

// Kill hard-kills shard i (crash semantics; see Shard.Kill) and marks
// it unhealthy immediately so the next supervisor pass redistributes
// its slice without waiting out the probe grace window.
func (f *Fleet) Kill(i int) error {
	if i < 0 || i >= len(f.shards) {
		return fmt.Errorf("fleet: no shard %d", i)
	}
	f.shards[i].Kill()
	f.mu.Lock()
	changed := f.healthy[i].Swap(false)
	f.fails[i] = healthFailures
	f.mu.Unlock()
	if changed {
		f.reallocate("kill")
	}
	return nil
}

// Restart boots a killed shard again; it recovers from its persist
// directory and rejoins the healthy set on its first 200 /readyz.
func (f *Fleet) Restart(ctx context.Context, i int) error {
	if i < 0 || i >= len(f.shards) {
		return fmt.Errorf("fleet: no shard %d", i)
	}
	return f.shards[i].Start(ctx)
}

// Close stops every shard gracefully (final snapshots included).
func (f *Fleet) Close(ctx context.Context) error {
	var firstErr error
	var wg sync.WaitGroup
	errs := make([]error, len(f.shards))
	for i, sh := range f.shards {
		wg.Add(1)
		go func(i int, sh *Shard) {
			defer wg.Done()
			errs[i] = sh.Stop(ctx)
		}(i, sh)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	f.probes.CloseIdleConnections()
	return firstErr
}

// Placement returns the fleet's object→shard map.
func (f *Fleet) Placement() *Placement { return f.place }

// Healthy returns a copy of the current health flags.
func (f *Fleet) Healthy() []bool {
	healthy, _ := f.healthySnapshot()
	return healthy
}

// Allocation returns the most recent budget leveling and its error.
func (f *Fleet) Allocation() (Allocation, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.alloc, f.allocErr
}

// AllocationHistory returns every recorded leveling, oldest first.
func (f *Fleet) AllocationHistory() []AllocationRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]AllocationRecord(nil), f.history...)
}

// Shard returns shard i.
func (f *Fleet) Shard(i int) *Shard { return f.shards[i] }

// healthySnapshot returns (healthy flags, healthy count).
func (f *Fleet) healthySnapshot() ([]bool, int) {
	healthy := make([]bool, len(f.healthy))
	n := 0
	for i := range f.healthy {
		if healthy[i] = f.healthy[i].Load(); healthy[i] {
			n++
		}
	}
	return healthy, n
}

// fleetMode ORs the degradation modes of the healthy shards: the
// fleet is source-degraded if any healthy shard is, and so on. Dead
// shards do not contribute (their keyspace is already 503ing, which
// /status reports through the health flags instead).
func (f *Fleet) fleetMode() resilience.Mode {
	healthy, _ := f.healthySnapshot()
	mode := resilience.ModeFull
	for i, sh := range f.shards {
		if !healthy[i] {
			continue
		}
		if m := sh.Mirror(); m != nil {
			mode |= m.Mode()
		}
	}
	return mode
}
