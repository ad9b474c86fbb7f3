package httpmirror

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"freshen/internal/core"
	"freshen/internal/estimate"
	"freshen/internal/freshness"
	"freshen/internal/obs"
	"freshen/internal/persist"
	"freshen/internal/resilience"
)

// ErrNotFound reports an object id outside the mirror's catalog.
var ErrNotFound = errors.New("httpmirror: no such object")

// Config assembles a mirror service.
type Config struct {
	// Upstream is the origin to mirror. *SourceClient is the usual
	// implementation; the fleet layer substitutes a shard-scoped view
	// of a global source.
	Upstream Source
	// Plan configures the planner; Plan.Bandwidth is the refresh
	// budget per period. Plan.Strategy must be core.StrategyExact: the
	// exact water-fill solves the paper's N=500,000 case in well under
	// a second, so the live mirror runs none of the heuristics.
	Plan core.Config
	// PriorLambda seeds change-rate knowledge before the mirror's own
	// polls accumulate; 0 means 1 change/period. Change rates are
	// learned by the online MLE (estimate.KindMLE), whose O(1) state
	// per element persists through snapshots.
	PriorLambda float64
	// ExploreFrac diverts this fraction of Plan.Bandwidth to probing
	// high-uncertainty elements: the explore slice is water-filled over
	// estimator uncertainty (see schedule.AllocateExplore) and its
	// frequencies are added on top of the exploit plan. 0 disables
	// exploration; values must stay below 0.9.
	ExploreFrac float64
	// FloorLambda is the lower bound applied to every learned change
	// rate, so a run of no-change polls can never starve an element of
	// refresh budget forever (the cold-start bias fix). 0 means
	// PriorLambda/10; negative disables the floor entirely.
	FloorLambda float64
	// ReplanEvery is the replanning cadence in periods; 0 means
	// DefaultReplanEvery. +Inf means no cadence of its own: the owner
	// replans the mirror through SetBudget, as a fleet's supervisor
	// does.
	ReplanEvery float64
	// Fault tunes the circuit breaker and quarantine (zero value:
	// sensible defaults; see FaultPolicy).
	Fault FaultPolicy
	// Overload tunes the adaptive concurrency limiter guarding the
	// object read path (zero value: enabled defaults; MaxInflight < 0
	// disables shedding). Health, readiness, status, and metrics
	// routes are never shed.
	Overload resilience.LimiterConfig
	// Degrade tunes the degraded-mode state machine (zero value:
	// sensible defaults; see resilience.ModeConfig).
	Degrade resilience.ModeConfig
	// ServeFaultLatency is a chaos knob: artificial latency added to
	// every admitted object read, inside the limiter's inflight
	// window. The lock-free read path is sub-microsecond, so real
	// overload (inflight exceeding the limit) needs either enormous
	// fan-in or a slowed handler; chaos tests use this to make the
	// shedding envelope reachable deterministically. 0 (production)
	// adds nothing.
	ServeFaultLatency time.Duration
	// Persist enables crash-safe state persistence when non-nil: the
	// mirror recovers its learned state from the store on boot,
	// journals every refresh outcome, and snapshots on the period
	// clock. The mirror owns neither opening nor closing the store.
	// Wrap a *persist.Store in a persist.FaultStore to chaos-test the
	// degradation envelope.
	Persist persist.Storer
	// SnapshotEvery is the snapshot cadence in periods; 0 means 5.
	// Only meaningful with Persist.
	SnapshotEvery float64
	// Metrics, when non-nil, registers the mirror's instrumentation on
	// the registry and mounts GET /metrics on the Handler. The same
	// registry can also carry solver and store series (see
	// solver.Instrument and persist.Store.Instrument).
	Metrics *obs.Registry
	// Logger receives the mirror's structured events (quarantine,
	// breaker, snapshot outcomes, replans); nil discards them.
	Logger *slog.Logger
	// Seed drives refresh phases.
	Seed int64
}

// DefaultReplanEvery is Config.ReplanEvery's default, in periods.
const DefaultReplanEvery = 5

func (c Config) withDefaults() Config {
	if c.PriorLambda == 0 {
		c.PriorLambda = 1
	}
	if c.FloorLambda == 0 {
		c.FloorLambda = c.PriorLambda / 10
	} else if c.FloorLambda < 0 {
		c.FloorLambda = 0
	}
	if c.ReplanEvery == 0 {
		c.ReplanEvery = DefaultReplanEvery
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 5
	}
	c.Fault = c.Fault.withDefaults()
	return c
}

// profileSmoothing is the Laplace pseudo-count added to every
// object's access count when the profile is learned from the access
// log.
const profileSmoothing = 1

// Mirror is the running service: local copies, the planner (live plan,
// refresh iterator, learned element knowledge), and the fault-tracking
// state (circuit breaker + per-element quarantine). Methods are safe
// for concurrent use.
//
// Locking: two mutexes, and none on the read path.
//
//   - stepMu serializes the calls that change what the mirror knows or
//     plans: Step, ForceReplan, SetBudget and FlushSnapshot.
//   - mu guards the mutable state and is never held across network
//     I/O or a solve, so Status, Readiness, Health, Plan, Budget and
//     the /metrics gauges never wait on either.
//
// The two-lock rule: the planner's state, and the health map, the
// quarantined count, est, cfg.Plan and clock it is computed from, are
// written only with both stepMu and mu held, so a holder of either lock
// may read them. Every writer of them already holds stepMu. The
// expensive passes therefore run under stepMu alone: building the
// solver's input, the solve and iterator build, and the snapshot's
// per-element records. Only installing a plan and its iterator and
// reading scalar counters take mu. The read path serves each object's
// immutable view from views and counts into the cumulative counters in
// acc (see serve.go and DESIGN.md §11).
type Mirror struct {
	stepMu sync.Mutex
	mu     sync.Mutex

	// Lock-free serving state: one view per object, which readers
	// load, and the access accounting they write. views[i] is stored by
	// seeding and replaced under m.mu by a refresh that transferred a
	// new body; acc's counters only grow, and every solve and the
	// snapshot load them.
	views []atomic.Pointer[copyView]
	acc   *accessCounters

	cfg        Config
	condSrc    ConditionalSource // non-nil while the upstream answers conditional fetches; nil for good once it ignores one
	upHealth   UpstreamHealth    // non-nil when the upstream is itself a mirror tier
	pl         *planner
	health     map[int]elemHealth // failing objects only: in on a first failure, out on the next success
	brk        breaker
	est        *estimate.Online // the online MLE
	estParams  estimate.Params
	now        float64
	accessBase int // accesses restored from a snapshot at boot; live total adds acc.total()
	fetches    int // refresh polls that succeeded; the boot seed is not a poll
	transfers  int

	notModified      int // conditional polls the upstream answered 304 (no body)
	refreshFailures  int
	skippedRefreshes int
	quarantineEvents int
	recoveries       int
	quarantined      int // elements currently quarantined; maintained at transitions

	exploreProbes int // refreshes of elements funded only by the explore slice

	// Crash-safe persistence (nil store disables it; see Config.Persist).
	store          persist.Storer
	lastSnapshot   float64 // period clock at the last snapshot attempt; stepMu holders only
	lastSnapshotAt float64 // period clock of the last durable snapshot; -1 none
	snapshots      int     // snapshots written this process
	persistErrors  int     // journal/snapshot write failures (state kept in memory)
	journalSkipped int     // appends withheld while persist-degraded
	replayed       int     // journal records replayed at boot
	recovered      bool    // some durable state survived into this process
	recoveryStatus string  // human-readable recovery outcome for /readyz
	ready          bool    // serves 200 on /readyz

	// Overload shedding and degraded-mode state (see degrade.go).
	// machine is mutated under m.mu; modeWord publishes its derived
	// mode for lock-free readers; limiter is pure-atomic; verified and
	// clockBits carry Float64bits of per-copy last-verified times and
	// the period clock so the degraded read path computes staleness
	// without locks. verified[i] is object i's last successful poll,
	// which is also where the estimator's next elapsed time starts.
	limiter     *resilience.Limiter
	machine     *resilience.Machine
	canceled    atomic.Uint64 // admitted reads whose client disconnected first
	modeWord    atomic.Uint32
	clockBits   atomic.Uint64
	verified    []atomic.Uint64
	journalWarn *obs.LogLimiter

	// Observability (see obs.go): nil metrics disable instrumentation;
	// log is never nil (a no-op logger stands in).
	metrics *mirrorMetrics
	log     *slog.Logger
}

// New creates a mirror: it pulls the upstream catalog, seeds every
// local copy with an initial fetch (seedWorkers fetches in flight at
// a time), and, while the seed runs, solves the first plan on what the
// mirror knows: a uniform profile and the prior change rate on a cold
// boot. The first failure of either fails New. ctx bounds the seeding
// round-trips.
//
// With Config.Persist set, New first recovers: the snapshot restores
// the estimator state, access counts, quarantine and breaker state, and
// the period clock; journal records written after that snapshot replay
// through the live commit path. The first plan is then solved on that
// recovered knowledge, quarantines included, by the same solve a cold
// boot runs: no plan is persisted. Object bodies are never persisted
// either — seeding re-fetches them — and the downtime gap is excluded
// from estimation (the boot fetch is not a poll: the mirror's clock did
// not run while it was down, and Status().Fetches does not count it).
func New(ctx context.Context, cfg Config) (*Mirror, error) {
	if cfg.Upstream == nil {
		return nil, fmt.Errorf("httpmirror: Upstream is required")
	}
	cfg = cfg.withDefaults()
	if cfg.SnapshotEvery < 0 {
		return nil, fmt.Errorf("httpmirror: SnapshotEvery must be positive, got %v", cfg.SnapshotEvery)
	}
	if cfg.Plan.Strategy != core.StrategyExact {
		return nil, fmt.Errorf("httpmirror: Plan.Strategy must be exact, got %v", cfg.Plan.Strategy)
	}
	if f := cfg.ExploreFrac; math.IsNaN(f) || f < 0 || f >= 0.9 {
		return nil, fmt.Errorf("httpmirror: ExploreFrac must be in [0, 0.9), got %v", f)
	}
	catalog, err := cfg.Upstream.Catalog(ctx)
	if err != nil {
		return nil, err
	}
	n := len(catalog)
	m := &Mirror{
		cfg:    cfg,
		pl:     newPlanner(catalog, cfg),
		views:  make([]atomic.Pointer[copyView], n),
		health: make(map[int]elemHealth),
		acc:    newAccessCounters(n),
		brk: breaker{
			threshold: cfg.Fault.BreakerThreshold,
			cooldown:  cfg.Fault.BreakerCooldown,
		},
		store:          cfg.Persist,
		lastSnapshotAt: -1,
		recoveryStatus: "disabled",
		log:            obs.Component(cfg.Logger, "mirror"),
		limiter:        resilience.NewLimiter(cfg.Overload),
		machine:        resilience.NewMachine(cfg.Degrade),
		verified:       make([]atomic.Uint64, n),
		journalWarn:    obs.NewLogLimiter(journalWarnInterval),
	}
	// Optional upstream capabilities, probed once: conditional fetches
	// collapse the HEAD-then-GET poll into one round trip, and a
	// hierarchy-aware upstream surfaces its own degradation for the
	// mode machine and the compounded staleness headers.
	m.condSrc, _ = cfg.Upstream.(ConditionalSource)
	m.upHealth, _ = cfg.Upstream.(UpstreamHealth)
	// withDefaults already resolved FloorLambda (0 → PriorLambda/10,
	// negative → disabled), so Params take it verbatim.
	m.estParams = estimate.Params{Prior: cfg.PriorLambda, Floor: cfg.FloorLambda}
	m.est, err = estimate.NewOnline(estimate.KindMLE, n, m.estParams)
	if err != nil {
		return nil, err
	}
	if cfg.Metrics != nil {
		// Registered before recovery so replayed journal polls land in
		// the estimator counters like live ones.
		m.metrics = instrumentMirror(m, cfg.Metrics)
	}
	for i, entry := range catalog {
		if entry.ID != i {
			return nil, fmt.Errorf("httpmirror: catalog ids must be dense, got %d at position %d", entry.ID, i)
		}
	}
	if m.store != nil {
		m.applyRecovery(m.store.Recovery())
		// The restored breaker and quarantine state feed the mode
		// machine so a mirror that died degraded wakes up degraded.
		m.machine.SetBreakerOpen(m.brk.state != BreakerClosed)
		m.machine.SetQuarantineFrac(float64(m.quarantined) / float64(n))
		// Boot-time disk probe: one bare fsync. If the state device is
		// already dead the mirror starts persist-degraded instead of
		// discovering it one timed-out append at a time — and "re-enter
		// full only after a successful fsync" holds from the first boot.
		if err := m.store.Sync(); err != nil {
			m.persistErrors++
			m.metrics.countPersistError()
			m.machine.ForcePersistDegraded(m.now)
			m.log.Warn("boot fsync probe failed; starting persist-degraded", "error", err)
		}
		m.publishModeLocked()
	}
	if err := m.seedAndPlan(ctx); err != nil {
		return nil, err
	}
	if r, ok := m.store.(interface{ ReleaseRecovery() }); ok {
		// Recovery is applied, so a store that kept the decoded
		// snapshot and records since Open (persist.Store, FaultStore)
		// drops them instead of holding them for the process lifetime.
		// The method is optional: any Storer may back a mirror.
		r.ReleaseRecovery()
	}
	m.pl.lastCadence = m.now
	m.clockBits.Store(math.Float64bits(m.now))
	if m.upHealth != nil {
		// The seed's fetches read the upstream tier's degradation, so a
		// mirror booting below a source-degraded tier serves degraded,
		// with the compounded staleness, from its first read.
		m.machine.SetUpstreamDegraded(m.upHealth.UpstreamDegraded())
		m.publishModeLocked()
	}
	m.lastSnapshot = m.now
	// Readiness: immediately without persistence or after a recovery;
	// a cold persistent mirror answers 503 until its first snapshot.
	m.ready = m.store == nil || m.recovered
	m.log.Info("mirror up",
		"objects", n,
		"planned_pf", m.pl.plan.Perceived,
		"recovery", m.recoveryStatus,
		"journal_replayed", m.replayed,
		"ready", m.ready)
	return m, nil
}

// seedWorkers is how many fetches seeding keeps in flight, and so how
// many connections a SourceClient built without a client may open per
// host (see NewTransport). A sweep of New against a same-process
// loopback origin on 2 vCPUs (medians of 3 rounds × 3 runs, per
// fetch), W = 1, 2, 4, 8 workers:
//
//	50,000 objects, no added latency:       50, 31, 34, 34 µs
//	10,000 objects, 1 ms added per request: 1289, 641, 352, 206 µs
//
// Without latency every W ≥ 2 sits at the two cores' limit. Where the
// round trip bounds a fetch, 4 seeds twice as fast as 2. 8 is faster
// still there, but it doubles the connections each client opens to
// the origin, a fleet shard's included, and it was no faster than 4
// without latency.
const seedWorkers = 4

// seedBatch is how many ids a seeding worker claims at a time from a
// BatchSource, and so how many objects one GET /objects names. It
// stays at or below the server's cap, maxBatchIDs. A sweep on 2
// vCPUs, batches of 16, 64, 128, 256, 512 and 1024:
//
//	catalog-50k set-up, s (bench/run.sh --seconds 2, seed 1, 3 runs):
//	  0.19–0.24, 0.14–0.24, 0.15–0.16, 0.12–0.16, 0.14–0.15, 0.13–0.14
//	BenchmarkSeed/batch, ms (N=50,000, 3 interleaved rounds × 10 ops):
//	  137–153,   106–115,   96–101,    92–96,     91–95,     90–94
//
// From 256 on the per-request cost no longer shows. 256 keeps the URL
// under 2 KB at N=500,000 and leaves 4 workers ~200 claims to share
// at N=50,000, so the last claims end close together.
const seedBatch = 256

// seedAndPlan runs the seed and the first plan side by side: the plan
// reads only the catalog and the recovered knowledge, and the seed
// writes only views and verified and never takes m.mu. The first error
// from either side cancels the seed and is returned once both have
// finished.
func (m *Mirror) seedAndPlan(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		once  sync.Once
		first error
	)
	fail := func(err error) {
		once.Do(func() {
			first = err
			cancel()
		})
	}
	planned := make(chan struct{})
	go func() {
		defer close(planned)
		if err := m.replan(m.cfg.Plan.Bandwidth, false); err != nil {
			fail(err)
		}
	}()
	if err := m.seed(ctx); err != nil {
		fail(err)
	}
	<-planned
	return first
}

// seed gives every copy its first view over seedWorkers goroutines.
// Each worker claims ids from a shared counter, seedBatch at a time
// from a BatchSource and one at a time otherwise, and writes only the
// views[i] and verified[i] of the ids it claimed, so the workers share
// no other state and take no lock; m.now is settled before they start.
// The boot fetch is not a poll: verified[i] starts at the (restored)
// clock, so the downtime gap never reaches the estimator. The first
// failure cancels the rest and is returned once every worker has
// exited.
func (m *Mirror) seed(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	n := len(m.views)
	batch, _ := m.cfg.Upstream.(BatchSource)
	claim, start := 1, 0
	if batch != nil {
		// The first batch goes out alone. Its answer says whether the
		// upstream serves batches at all, so one that does not costs a
		// single probe rather than one per worker, and the seed goes on
		// one object at a time. A later batch the upstream refuses
		// fails the seed like any other error.
		ids := seedIDs(make([]int, 0, seedBatch), 0, n)
		switch err := m.seedMany(ctx, batch, ids); {
		case errors.Is(err, ErrBatchUnsupported):
			batch = nil
		case err != nil:
			return fmt.Errorf("httpmirror: seeding copy 0: %w", err)
		default:
			claim, start = seedBatch, len(ids)
		}
	}
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		once  sync.Once
		first error
	)
	next.Store(int64(start))
	fail := func(i int, err error) {
		once.Do(func() {
			first = fmt.Errorf("httpmirror: seeding copy %d: %w", i, err)
			cancel()
		})
	}
	for range min(seedWorkers, (n-start+claim-1)/claim) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids := make([]int, 0, claim)
			for {
				lo := int(next.Add(int64(claim))) - claim
				if lo >= n {
					return
				}
				// A claim is either seeded or reported, so a nil first
				// error after Wait means every copy is in place.
				err := ctx.Err()
				if err == nil {
					if batch != nil {
						err = m.seedMany(ctx, batch, seedIDs(ids, lo, n))
					} else {
						err = m.seedOne(ctx, lo)
					}
				}
				if err != nil {
					fail(lo, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return first
}

// seedIDs fills ids, up to its capacity, with the ids from lo on that
// are below n.
func seedIDs(ids []int, lo, n int) []int {
	ids = ids[:0]
	for i := lo; i < n && len(ids) < cap(ids); i++ {
		ids = append(ids, i)
	}
	return ids
}

// seedOne gives copy i its first view with one fetch.
func (m *Mirror) seedOne(ctx context.Context, i int) error {
	body, ver, err := m.cfg.Upstream.Fetch(ctx, i)
	if err != nil {
		return err
	}
	m.seedCopy(i, body, ver)
	return nil
}

// seedMany gives every copy ids names its first view with one batch.
func (m *Mirror) seedMany(ctx context.Context, batch BatchSource, ids []int) error {
	bodies, versions, err := batch.FetchBatch(ctx, ids)
	if err != nil {
		return err
	}
	if len(bodies) != len(ids) || len(versions) != len(ids) {
		return fmt.Errorf("httpmirror: batch of %d ids returned %d bodies and %d versions", len(ids), len(bodies), len(versions))
	}
	for k, i := range ids {
		m.seedCopy(i, bodies[k], versions[k])
	}
	return nil
}

// seedCopy installs copy i's first view.
func (m *Mirror) seedCopy(i int, body []byte, version int) {
	m.views[i].Store(&copyView{body: body, version: version})
	m.verified[i].Store(math.Float64bits(m.now))
}

// replan solves at budget on what the mirror knows now, under stepMu
// alone, then installs the plan, its iterator and the budget together
// under m.mu, so a failed solve changes nothing. A cadence replan
// (cadence set: the cadence, SetBudget and ForceReplan, not a health
// replan) restarts the cadence clock and records the estimator's
// confidence. The caller holds stepMu and not m.mu (or is New).
func (m *Mirror) replan(budget float64, cadence bool) error {
	if cadence {
		m.pl.lastCadence = m.now
	}
	var u []float64
	if m.cfg.ExploreFrac > 0 {
		u = m.uncertainty()
		if cadence {
			m.metrics.observeConfidence(u)
		}
	}
	cfg := m.cfg.Plan
	cfg.Bandwidth = budget
	s, err := m.pl.solve(cfg, m.knowledge(), u, m.quarantinedIDs())
	if err != nil {
		return err
	}
	m.install(s, budget)
	m.metrics.countReplan()
	m.log.Debug("replanned",
		"planned_pf", s.plan.Perceived,
		"bandwidth_used", s.plan.BandwidthUsed,
		"active", len(m.views)-m.quarantined,
		"now", m.now)
	return nil
}

// install makes s the live plan at budget, under m.mu, and sets the
// plan gauges from its numbers. The caller holds stepMu and not m.mu
// (or is New).
func (m *Mirror) install(s solved, budget float64) {
	m.mu.Lock()
	m.cfg.Plan.Bandwidth = budget
	m.pl.install(s, m.now)
	m.mu.Unlock()
	m.metrics.setPlan(s)
}

// Run drives the refresh loop against the wall clock, mapping one
// scheduling period to periodLength, until ctx is cancelled (which is
// a normal shutdown, reported as nil). Upstream failures never
// terminate the loop — retries, the circuit breaker, and quarantine
// absorb them; only internal errors (a clock inversion, a planner
// failure) are returned.
func (m *Mirror) Run(ctx context.Context, periodLength time.Duration) error {
	if periodLength <= 0 {
		return fmt.Errorf("httpmirror: period length must be positive, got %v", periodLength)
	}
	tick := periodLength / 100
	if tick <= 0 {
		tick = time.Millisecond
	}
	// Resume from the mirror's current clock so a restarted Run never
	// drives time backwards.
	base := m.Status().Now
	start := time.Now()
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C:
			now := base + time.Since(start).Seconds()/periodLength.Seconds()
			if _, err := m.Step(now); err != nil {
				return err
			}
		}
	}
}

// Access serves one local copy, recording the access for profile
// learning. It returns the stored body and version. Unknown ids fail
// with ErrNotFound.
//
// This is the hot path: a bounds check, one atomic load of the
// object's view, and two atomic counter increments — no locks, no
// allocations. It serves concurrently with refresh commits, replans,
// and snapshot fsyncs; the body/version pair always comes from one
// immutable view, so it is never torn.
func (m *Mirror) Access(id int) (body []byte, version int, err error) {
	if id < 0 || id >= len(m.views) {
		return nil, 0, errAccessOutOfRange
	}
	m.acc.record(id)
	v := m.views[id].Load()
	return v.body, v.version, nil
}

// totalAccessesLocked is the lifetime access count: whatever a
// restored snapshot carried in plus everything this process recorded.
// Callers hold m.mu (the base is mutated only at boot, but callers
// are already serializing status/export reads).
func (m *Mirror) totalAccessesLocked() int {
	return m.accessBase + int(m.acc.total())
}

// Status is the mirror's observable state.
type Status struct {
	Objects       int     `json:"objects"`
	Now           float64 `json:"now_periods"`
	Accesses      int     `json:"accesses"`
	Fetches       int     `json:"fetches"`
	Transfers     int     `json:"transfers"`
	Replans       int     `json:"replans"`
	PlannedPF     float64 `json:"planned_perceived_freshness"`
	PlannedAvg    float64 `json:"planned_average_freshness"`
	BandwidthUsed float64 `json:"bandwidth_used"`

	// Change-rate estimation and explore/exploit state.
	Estimator        string  `json:"estimator"`
	ExploreFrac      float64 `json:"explore_frac"`
	ExploreProbes    int     `json:"explore_probes"`
	ExploreBandwidth float64 `json:"explore_bandwidth"`

	// Hierarchical topology state (zero/empty outside a chain).
	NotModified      int    `json:"source_not_modified"`
	UpstreamURL      string `json:"upstream_url,omitempty"`
	UpstreamDegraded bool   `json:"upstream_degraded,omitempty"`

	// Fault-tolerance counters.
	Retries          int64  `json:"retries"`
	RefreshFailures  int    `json:"refresh_failures"`
	SkippedRefreshes int    `json:"skipped_refreshes"`
	BreakerState     string `json:"breaker_state"`
	BreakerTrips     int    `json:"breaker_trips"`
	Quarantined      int    `json:"quarantined"`
	QuarantineEvents int    `json:"quarantine_events"`
	Recoveries       int    `json:"recoveries"`

	// Overload and degradation state (see DESIGN.md §12).
	Mode            string `json:"mode"`
	ModeTransitions int    `json:"mode_transitions"`
	Inflight        int64  `json:"inflight"`
	InflightLimit   int64  `json:"inflight_limit"`
	Admitted        uint64 `json:"admitted_requests"`
	Shed            uint64 `json:"shed_requests"`
	Canceled        uint64 `json:"canceled_requests"`

	// Persistence counters (zero when persistence is disabled).
	Snapshots                  int `json:"snapshots"`
	PersistErrors              int `json:"persist_errors"`
	ConsecutivePersistFailures int `json:"consecutive_persist_failures"`
	JournalSkipped             int `json:"journal_records_skipped"`
}

// Status reports the mirror's current state. The quarantined count is
// a field maintained at quarantine/recovery transitions, not an O(n)
// scan — /healthz, /readyz, and status scrapes stay O(1) in the
// catalog size.
func (m *Mirror) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Status{
		Objects:          len(m.views),
		Now:              m.now,
		Accesses:         m.totalAccessesLocked(),
		Fetches:          m.fetches,
		Transfers:        m.transfers,
		Replans:          m.pl.replans,
		PlannedPF:        m.pl.plan.Perceived,
		PlannedAvg:       m.pl.plan.AvgFreshness,
		BandwidthUsed:    m.pl.plan.BandwidthUsed,
		Estimator:        m.est.Kind(),
		ExploreFrac:      m.cfg.ExploreFrac,
		ExploreProbes:    m.exploreProbes,
		ExploreBandwidth: m.pl.exploreBW,
		NotModified:      m.notModified,
		Retries:          m.cfg.Upstream.Retries(),
		RefreshFailures:  m.refreshFailures,
		SkippedRefreshes: m.skippedRefreshes,
		BreakerState:     m.brk.state.String(),
		BreakerTrips:     m.brk.trips,
		Quarantined:      m.quarantined,
		QuarantineEvents: m.quarantineEvents,
		Recoveries:       m.recoveries,

		Mode:            m.machine.Mode().String(),
		ModeTransitions: m.machine.Transitions(),
		Inflight:        m.limiter.Inflight(),
		InflightLimit:   m.limiter.Limit(),
		Admitted:        m.limiter.Admitted(),
		Shed:            m.limiter.Shed(),
		Canceled:        m.canceled.Load(),

		Snapshots:                  m.snapshots,
		PersistErrors:              m.persistErrors,
		ConsecutivePersistFailures: m.machine.ConsecutivePersistFailures(),
		JournalSkipped:             m.journalSkipped,
	}
	if m.upHealth != nil {
		s.UpstreamURL = m.upHealth.UpstreamURL()
		s.UpstreamDegraded = m.upHealth.UpstreamDegraded()
	}
	return s
}

// Health is the mirror's liveness report, served by /healthz. It is
// deliberately always an HTTP 200 while the process lives — the mirror
// serves stale copies through any upstream trouble — so orchestrators
// never restart a mirror for an origin outage. Traffic-gating belongs
// to /readyz (see Readiness).
type Health struct {
	// Serving is always true while the process lives: the mirror
	// serves its local copies even through a full upstream outage.
	Serving          bool   `json:"serving"`
	BreakerState     string `json:"breaker_state"`
	BreakerTrips     int    `json:"breaker_trips"`
	Quarantined      []int  `json:"quarantined_objects"`
	SkippedRefreshes int    `json:"skipped_refreshes"`
	RefreshFailures  int    `json:"refresh_failures"`
	Retries          int64  `json:"retries"`
}

// Health reports the fault-tolerance state.
func (m *Mirror) Health() Health {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Health{
		Serving:          true,
		BreakerState:     m.brk.state.String(),
		BreakerTrips:     m.brk.trips,
		Quarantined:      m.quarantinedIDs(),
		SkippedRefreshes: m.skippedRefreshes,
		RefreshFailures:  m.refreshFailures,
		Retries:          m.cfg.Upstream.Retries(),
	}
}

// Plan returns the current plan. Its Freqs is the vector the live
// refresh iterator reads: callers must not modify it.
func (m *Mirror) Plan() core.Plan {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.pl.plan
}

// ForceReplan re-plans immediately on what the mirror knows now and
// restarts the replan cadence. The solve runs off m.mu, so readers
// keep answering while it runs.
func (m *Mirror) ForceReplan() error {
	m.stepMu.Lock()
	defer m.stepMu.Unlock()
	return m.replan(m.cfg.Plan.Bandwidth, true)
}

// Catalog lists the mirror's objects in source-protocol form. Serving
// it (GET /catalog) is what lets a mirror stand upstream of another
// mirror: a downstream SourceClient bootstraps against this tier
// exactly as it would against an origin. The catalog is fixed at New,
// so Catalog takes no lock.
func (m *Mirror) Catalog() []CatalogEntry {
	out := make([]CatalogEntry, len(m.pl.sizes))
	for i, s := range m.pl.sizes {
		out[i] = CatalogEntry{ID: i, Size: s}
	}
	return out
}

// Elements returns the mirror's current element knowledge, as the next
// solve would read it: the learned change rates, the learned access
// profile, and the catalog sizes.
func (m *Mirror) Elements() []freshness.Element {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.knowledge()
}

// Scheduled returns the knowledge of the elements the next solve
// schedules: Elements without the quarantined objects, whose share of
// the budget that solve spends on the rest. A fleet-level allocator
// pools these across shards to water-fill the global budget. Like a
// solve, it reads under stepMu alone (the two-lock rule), so its O(N)
// pass never holds up a reader of m.mu; it waits out an in-flight Step
// as SetBudget does.
func (m *Mirror) Scheduled() []freshness.Element {
	m.stepMu.Lock()
	defer m.stepMu.Unlock()
	return activeElems(m.knowledge(), m.quarantinedIDs())
}

// Budget is the refresh budget per period the planner currently runs
// under.
func (m *Mirror) Budget() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cfg.Plan.Bandwidth
}

// SetBudget replaces the mirror's refresh budget and replans at it
// immediately, as a cadence replan, even when the budget is unchanged:
// each fleet leveling is every running shard's cadence replan. The
// explore slice is funded from the new budget (it scales with it), so
// a cut shrinks exploration too; the exploit plan gets the rest.
func (m *Mirror) SetBudget(b float64) error {
	if math.IsNaN(b) || math.IsInf(b, 0) || b < 0 {
		return fmt.Errorf("httpmirror: budget must be finite and non-negative, got %v", b)
	}
	m.stepMu.Lock()
	defer m.stepMu.Unlock()
	return m.replan(b, true)
}

// ServeObject serves one read of object id: the whole /object path
// behind the URL parse, shared by every front — the mirror's own
// Handler and a fleet router calling into the owning shard in-process.
// It checks the method, admits or sheds (past the adaptive limit: an
// immediate 503 with a jittered Retry-After instead of queueing into
// latency collapse), honors the chaos latency window and client
// cancellation, serves via serveObject, and counts the request on the
// /object serve series. It returns the status code written (200 when
// none was explicit). Like Access it takes no lock, and reads, HEADs
// and 304s allocate nothing (see TestObjectHandlerAllocs).
func (m *Mirror) ServeObject(w http.ResponseWriter, r *http.Request, id int) int {
	sw := wrapStatus(w)
	m.serveAdmitted(sw, r, id)
	code := sw.done()
	m.metrics.countObject(code)
	return code
}

// serveAdmitted is ServeObject's uncounted body. Only object reads
// shed; health, readiness, status, and metrics stay un-gated.
func (m *Mirror) serveAdmitted(w http.ResponseWriter, r *http.Request, id int) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if !m.limiter.Acquire() {
		w.Header()["Retry-After"] = resilience.RetryAfterHeader()
		http.Error(w, "overloaded", http.StatusServiceUnavailable)
		return
	}
	start := time.Now()
	if d := m.cfg.ServeFaultLatency; d > 0 {
		// The chaos latency window honors client cancellation: a caller
		// that disconnects mid-wait releases its limiter slot now, not
		// after the full artificial stall — holding slots for the dead
		// would starve live clients exactly when the server is slow.
		t := time.NewTimer(d)
		select {
		case <-r.Context().Done():
			t.Stop()
			m.limiter.Release(time.Since(start))
			m.metrics.countCanceled()
			m.canceled.Add(1)
			return
		case <-t.C:
		}
	}
	if r.Context().Err() != nil {
		// The client is gone: the slot goes back immediately and
		// nothing is written (the connection is already dead).
		m.limiter.Release(time.Since(start))
		m.metrics.countCanceled()
		m.canceled.Add(1)
		return
	}
	m.serveObject(w, r, id)
	m.limiter.Release(time.Since(start))
}

// serveObject is the admitted object read: serve the body and version
// from the object's lock-free view, and — only when the mirror is
// degraded — attach the mode and staleness headers. A HEAD answers headers only
// (the downstream change poll), and a GET whose X-If-Version matches
// the served version answers 304 with no body (the downstream
// conditional fetch) — both still carry the mode and staleness headers
// so a chained mirror sees its upstream's health on every poll. The
// full path, 304s and HEADs included, stays allocation-free (see
// TestObjectHandlerAllocs).
func (m *Mirror) serveObject(w http.ResponseWriter, r *http.Request, id int) {
	body, ver, err := m.Access(id)
	switch {
	case errors.Is(err, ErrNotFound):
		http.Error(w, "no such object", http.StatusNotFound)
		return
	case err != nil:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if mode := resilience.Mode(m.modeWord.Load()); mode != resilience.ModeFull {
		m.degradedHeaders(w.Header(), mode, id)
	}
	// Small versions reuse a pre-built header slice; "X-Version" is
	// already in canonical MIME form, so direct map assignment
	// matches what Header().Set would store.
	if ver >= 0 && ver < len(versionHeaders) {
		w.Header()["X-Version"] = versionHeaders[ver]
	} else {
		w.Header().Set("X-Version", strconv.Itoa(ver))
	}
	if r.Method == http.MethodHead {
		return
	}
	if ifv := r.Header.Get("X-If-Version"); ifv != "" {
		if have, err := strconv.Atoi(ifv); err == nil && have == ver {
			w.WriteHeader(http.StatusNotModified)
			return
		}
	}
	w.Write(body)
}

// wantsPlainText reports whether a probe asked for the plain-text
// form of a health endpoint: kubelet-style probes send
// "Accept: text/plain" and want a bare ok/unavailable body, while
// monitoring clients (no Accept, or anything else) get JSON.
func wantsPlainText(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/plain")
}

// Handler serves the mirror API: GET/HEAD /object/{id} (conditional
// via X-If-Version), GET /catalog (the source's per-object protocol —
// what lets a mirror stand upstream of another mirror; it does not
// serve the batch GET /objects, whose frames would carry no
// degradation headers), GET /status, GET /healthz
// (liveness), GET /readyz (readiness; 503 until the first recovery or
// snapshot completes), POST /replan, and — when the mirror was built
// with a metrics registry — GET /metrics.
//
// /healthz and /readyz answer JSON by default and plain text ("ok" /
// "unavailable") when the request's Accept header asks for text/plain.
// Every route lands in freshen_serve_requests_total{route,code}.
func (m *Mirror) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(route string, h http.HandlerFunc) {
		mux.Handle(route, m.metrics.countRequests(strings.TrimSuffix(route, "/"), h))
	}
	mux.HandleFunc("/object/", func(w http.ResponseWriter, r *http.Request) {
		if id, err := strconv.Atoi(strings.TrimPrefix(r.URL.Path, "/object/")); err == nil {
			m.ServeObject(w, r, id)
			return
		}
		code := http.StatusBadRequest
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			code = http.StatusMethodNotAllowed
			http.Error(w, "method not allowed", code)
		} else {
			http.Error(w, "bad object id", code)
		}
		m.metrics.countObject(code)
	})
	handle("/catalog", func(w http.ResponseWriter, r *http.Request) {
		serveCatalog(w, r, m.Catalog)
	})
	handle("/status", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(m.Status()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	handle("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if wantsPlainText(r) {
			// Liveness is unconditionally ok while the process serves.
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			fmt.Fprintln(w, "ok")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := json.NewEncoder(w).Encode(m.Health()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	handle("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		rd := m.Readiness()
		if wantsPlainText(r) {
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			if !rd.Ready {
				// Retry-After tells rolling-deploy gates when to probe
				// again; readiness usually flips within one snapshot
				// cadence, so the shed hint is honest here too.
				w.Header()["Retry-After"] = resilience.RetryAfterHeader()
				w.WriteHeader(http.StatusServiceUnavailable)
				fmt.Fprintln(w, "unavailable")
				return
			}
			fmt.Fprintln(w, "ok")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if !rd.Ready {
			w.Header()["Retry-After"] = resilience.RetryAfterHeader()
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		if err := json.NewEncoder(w).Encode(rd); err != nil && rd.Ready {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	handle("/replan", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		if err := m.ForceReplan(); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	if reg := m.cfg.Metrics; reg != nil {
		// The registry's handler already enforces GET-or-405.
		mux.Handle("/metrics", m.metrics.countRequests("/metrics", reg.Handler()))
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Hot-path dispatch: a GET or HEAD of a well-formed
		// /object/{id} goes straight to ServeObject, skipping the mux's
		// path-cleaning machinery (≈3 allocs per request). Anything
		// else — other routes, other methods, ids that need cleaning or
		// rejecting — takes the mux, whose /object/ route ends in the
		// same ServeObject. HEAD rides the fast path too: it is the
		// downstream mirror's change poll, as hot as the reads.
		if r.Method == http.MethodGet || r.Method == http.MethodHead {
			if rest, ok := strings.CutPrefix(r.URL.Path, "/object/"); ok {
				if id, err := strconv.Atoi(rest); err == nil {
					m.ServeObject(w, r, id)
					return
				}
			}
		}
		mux.ServeHTTP(w, r)
	})
}
