package fleet

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"path/filepath"
	"sync"
	"time"

	"freshen/internal/httpmirror"
	"freshen/internal/obs"
	"freshen/internal/persist"
	"freshen/internal/resilience"
)

// Config describes a fleet: K shards over one global source, a global
// budget, and the one planning cadence, Mirror.ReplanEvery.
type Config struct {
	// Shards is K, the shard count.
	Shards int
	// Budget is the global refresh budget per period: each shard boots
	// on Budget/K, then every leveling water-fills it across the
	// running shards.
	Budget float64
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
	// Mirror is the per-shard configuration template (sync policy,
	// estimator, fault policy, overload limits). Upstream, Persist,
	// Metrics, and Logger are overridden per shard; Plan.Bandwidth is
	// overridden by the allocator. ReplanEvery (0 means
	// httpmirror.DefaultReplanEvery) is the leveling cadence (see Run);
	// each shard's own is +Inf.
	Mirror httpmirror.Config
	// Period is the wall-clock length of one period.
	Period time.Duration
	// StateDir, when non-empty, gives shard i the persist directory
	// StateDir/shard-i.
	StateDir string
	// WrapStore, when non-nil, wraps shard i's store on every start —
	// the chaos hook for persist.FaultStore.
	WrapStore func(shard int, s *persist.Store) persist.Storer
	// Metrics, when non-nil, carries the fleet-level series (shard
	// health, slices, router traffic). Per-shard series live on each
	// shard's own listener.
	Metrics *obs.Registry
	// Logger receives fleet events; nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Mirror.ReplanEvery == 0 {
		c.Mirror.ReplanEvery = httpmirror.DefaultReplanEvery
	}
	if c.Logger == nil {
		c.Logger = obs.Nop()
	}
	return c
}

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
// (allocation), and the router (see router.go). A shard is healthy
// exactly while it runs (Shard.Running): from the moment Start
// publishes its mirror until Kill or Stop clears it.
type Fleet struct {
	cfg    Config
	place  *Placement
	shards []*Shard
	log    *slog.Logger
	m      *fleetMetrics

	// levelMu orders the levelings: the cadence's, Kill's and
	// Restart's each solve, record and apply under it, so a leveling
	// that read the shards before a kill cannot land after the kill's.
	levelMu sync.Mutex

	mu        sync.Mutex
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

// New builds and starts the fleet: placement, K shards on Budget/K
// each, and the boot leveling, which re-solves every shard at its
// slice as soon as all of them run. A boot fetches the global catalog
// once and hands each shard its slice of it; the shards then start
// together, each booted and seeded via ctx. If one fails to start, New
// cancels the others' starts, stops every shard that did start, and
// returns that failure.
func New(ctx context.Context, cfg Config) (*Fleet, error) {
	cfg = cfg.withDefaults()
	if cfg.Shards <= 0 || cfg.Shards > MaxShards {
		return nil, fmt.Errorf("fleet: shard count must be in [1, %d], got %d", MaxShards, cfg.Shards)
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
	// Run's ticker panics on a non-positive interval.
	if d := cfg.Mirror.ReplanEvery * float64(cfg.Period); !(d >= 1 && d < math.MaxInt64) {
		return nil, fmt.Errorf("fleet: a leveling every %v periods of %v is not a positive duration", cfg.Mirror.ReplanEvery, cfg.Period)
	}

	catalog, err := cfg.Upstream.Catalog(ctx)
	if err != nil {
		return nil, fmt.Errorf("fleet: global catalog: %w", err)
	}
	if err := checkDense(catalog); err != nil {
		return nil, err
	}
	place, err := HashPlacement(len(catalog), cfg.Shards)
	if err != nil {
		return nil, err
	}

	f := &Fleet{
		cfg:        cfg,
		place:      place,
		log:        obs.Component(cfg.Logger, "fleet"),
		lastMirror: make([]*httpmirror.Mirror, cfg.Shards),
		lastAcc:    make([]int, cfg.Shards),
	}
	f.m = instrumentFleet(f, cfg.Metrics)

	for i := 0; i < cfg.Shards; i++ {
		up := cfg.Upstream
		if cfg.ShardUpstream != nil {
			up = cfg.ShardUpstream(i)
		}
		mcfg := cfg.Mirror
		mcfg.Plan.Bandwidth = cfg.Budget / float64(cfg.Shards)
		mcfg.ReplanEvery = math.Inf(1)
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
			return nil, err
		}
		f.shards = append(f.shards, sh)
	}
	if err := f.startShards(ctx, catalog); err != nil {
		return nil, err
	}

	f.reallocate("boot")
	return f, nil
}

// startShards starts every shard at once, each on its slice of the
// global catalog, so a boot costs the slowest shard's start rather
// than the sum of them. The first failure cancels the other starts;
// once every start has returned, the shards that did start are
// stopped and that failure is returned.
func (f *Fleet) startShards(ctx context.Context, catalog []httpmirror.CatalogEntry) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	for i, sh := range f.shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			boot, err := localCatalog(catalog, f.place.Globals(i))
			if err == nil {
				err = sh.start(ctx, boot)
			}
			if err != nil {
				once.Do(func() {
					first = err
					cancel()
				})
			}
		}()
	}
	wg.Wait()
	if first != nil {
		f.closeShards()
	}
	return first
}

// closeShards hard-stops whatever started during a failed New.
func (f *Fleet) closeShards() {
	for _, sh := range f.shards {
		if sh != nil {
			sh.Kill()
		}
	}
}

// Run drives the supervisor until ctx is done: a budget leveling every
// Mirror.ReplanEvery periods. Each leveling is every running shard's
// cadence replan, so no shard replans on a cadence of its own; its
// health replans (quarantine, recovery) still run in its Step. Kill and
// Restart level on their own, at once.
func (f *Fleet) Run(ctx context.Context) error {
	level := time.NewTicker(time.Duration(f.cfg.Mirror.ReplanEvery * float64(f.cfg.Period)))
	defer level.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-level.C:
			f.reallocate("cadence")
		}
	}
}

// reallocate re-levels the global budget across the running shards
// and applies the slices: each SetBudget re-solves its shard, as that
// shard's cadence replan. Every attempt — including failed ones — is
// recorded in the bounded history. A failed leveling applies nothing,
// so every shard keeps its current plan until the next one succeeds;
// its health replans still run.
func (f *Fleet) reallocate(reason string) {
	f.levelMu.Lock()
	defer f.levelMu.Unlock()
	mirrors := make([]*httpmirror.Mirror, len(f.shards))
	healthy := make([]bool, len(f.shards))
	for i, sh := range f.shards {
		mirrors[i] = sh.Mirror()
		healthy[i] = mirrors[i] != nil
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
	f.log.Debug("budget leveled", "reason", reason, "perceived", alloc.Perceived, "slices", alloc.Slices)
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

// Kill hard-kills shard i (crash semantics; see Shard.Kill) and, once
// it has stopped, re-levels, so its slice goes to the survivors at
// once. Killing a dead shard is a no-op. A shard killed through
// Shard.Kill directly is left out at the next cadence leveling.
func (f *Fleet) Kill(i int) error {
	if i < 0 || i >= len(f.shards) {
		return fmt.Errorf("fleet: no shard %d", i)
	}
	if f.shards[i].Kill() {
		f.reallocate("kill")
	}
	return nil
}

// Restart boots a killed shard again, recovered from its persist
// directory, and re-levels as soon as it runs, so its keyspace gets
// its budget back at once.
func (f *Fleet) Restart(ctx context.Context, i int) error {
	if i < 0 || i >= len(f.shards) {
		return fmt.Errorf("fleet: no shard %d", i)
	}
	if err := f.shards[i].Start(ctx); err != nil {
		return err
	}
	f.reallocate("restart")
	return nil
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
	return firstErr
}

// Placement returns the fleet's object→shard map.
func (f *Fleet) Placement() *Placement { return f.place }

// Healthy reports, per shard, whether it is running.
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
	healthy := make([]bool, len(f.shards))
	n := 0
	for i, sh := range f.shards {
		if healthy[i] = sh.Running(); healthy[i] {
			n++
		}
	}
	return healthy, n
}

// fleetMode ORs the degradation modes of the running shards: the
// fleet is source-degraded if any running shard is, and so on. Dead
// shards do not contribute (their keyspace is already 503ing, which
// /status reports through the health flags instead).
func (f *Fleet) fleetMode() resilience.Mode {
	mode := resilience.ModeFull
	for _, sh := range f.shards {
		if m := sh.Mirror(); m != nil {
			mode |= m.Mode()
		}
	}
	return mode
}
