package fleet

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"freshen/internal/httpmirror"
	"freshen/internal/obs"
	"freshen/internal/persist"
)

// ShardConfig describes one shard of the fleet. The mirror template
// carries every tuning knob (sync policy, estimator, fault policy,
// overload limits); the shard overrides Upstream, Persist, Metrics,
// and Logger with its own fault-isolated instances.
type ShardConfig struct {
	// Index is the shard's position in the placement.
	Index int
	// Placement is the fleet-wide object→shard map.
	Placement *Placement
	// Upstream is the global source; the shard sees only its slice.
	Upstream httpmirror.Source
	// Mirror is the configuration template; Plan.Bandwidth is the
	// shard's initial budget slice (the allocator re-levels it).
	Mirror httpmirror.Config
	// StateDir is the shard's own persist directory; "" disables
	// persistence.
	StateDir string
	// WrapStore, when non-nil, wraps the shard's freshly opened store
	// — the chaos hook persist.FaultStore slots into.
	WrapStore func(*persist.Store) persist.Storer
	// Period is the wall-clock length of one period.
	Period time.Duration
	// Logger receives the shard's events; nil discards them.
	Logger *slog.Logger
}

// shardAddr is every shard's listen address: loopback with a
// kernel-assigned port, because shards are fleet-internal.
const shardAddr = "127.0.0.1:0"

// Shard is one fault domain: its own mirror (solver, estimator,
// breaker, limiter), its own metrics registry, its own persist store,
// and its own HTTP listener. Kill tears all of it down abruptly —
// simulating a crash — and Start afterwards recovers from the
// shard's persist directory exactly like a restarted daemon.
//
// The lifecycle (Start, Kill, Stop) serializes on mu, which Start
// holds across the whole seeding and Kill across the in-flight step.
// Nothing a reader needs sits behind it: the live mirror and URL are
// published atomically — stored once Start succeeds, cleared first
// thing in Kill and Stop — so the router and the supervisor never
// wait out a shard's boot or teardown. Past capacity a Step drains
// everything that came due during the previous one, so the in-flight
// step that Kill and Stop wait out, as do the mirror's Scheduled and
// SetBudget (twice per leveling), can outlast a period.
type Shard struct {
	cfg ShardConfig

	live  atomic.Pointer[httpmirror.Mirror]
	url   atomic.Pointer[string]
	kills atomic.Int64

	mu     sync.Mutex
	mirror *httpmirror.Mirror // owned by the lifecycle; nil while dead
	store  *persist.Store
	srv    *http.Server
	cancel context.CancelFunc
	done   chan struct{}
}

// NewShard validates the config; the shard starts dead.
func NewShard(cfg ShardConfig) (*Shard, error) {
	if cfg.Placement == nil {
		return nil, fmt.Errorf("fleet: shard %d has no placement", cfg.Index)
	}
	if cfg.Index < 0 || cfg.Index >= cfg.Placement.K() {
		return nil, fmt.Errorf("fleet: shard index %d outside placement of %d", cfg.Index, cfg.Placement.K())
	}
	if cfg.Upstream == nil {
		return nil, fmt.Errorf("fleet: shard %d has no upstream", cfg.Index)
	}
	if cfg.Period <= 0 {
		return nil, fmt.Errorf("fleet: shard %d period must be positive, got %v", cfg.Index, cfg.Period)
	}
	if cfg.Logger == nil {
		cfg.Logger = obs.Nop()
	}
	return &Shard{cfg: cfg}, nil
}

// Start boots the shard: open (and recover from) its persist
// directory, build the mirror — the catalog and seeding fetches ride
// ctx — and serve it. Idempotent-safe: starting a running shard is an
// error.
func (s *Shard) Start(ctx context.Context) error { return s.start(ctx, nil) }

// start is Start with the shard's catalog in hand: a non-nil boot
// (the fleet's first start, from its own catalog fetch) stands in for
// the mirror's catalog fetch.
func (s *Shard) start(ctx context.Context, boot []httpmirror.CatalogEntry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mirror != nil {
		return fmt.Errorf("fleet: shard %d already running", s.cfg.Index)
	}
	// Every line names the shard; the mirror tags its own
	// component=mirror, the shard's lifecycle lines component=shard.
	shardLog := s.cfg.Logger.With("shard", s.cfg.Index)
	lg := obs.Component(shardLog, "shard")

	mcfg := s.cfg.Mirror
	mcfg.Upstream = newShardSource(s.cfg.Upstream, s.cfg.Placement, s.cfg.Index, boot)
	mcfg.Logger = shardLog

	// Every shard gets its own registry: per-shard series live on the
	// shard's own /metrics, so family names never collide across the
	// fleet and a dead shard's scrape dies with it.
	reg := obs.NewRegistry()
	mcfg.Metrics = reg

	var store *persist.Store
	if s.cfg.StateDir != "" {
		var err error
		store, err = persist.Open(s.cfg.StateDir)
		if err != nil {
			return fmt.Errorf("fleet: shard %d state dir: %w", s.cfg.Index, err)
		}
		store.Instrument(reg)
		var storer persist.Storer = store
		if s.cfg.WrapStore != nil {
			storer = s.cfg.WrapStore(store)
		}
		mcfg.Persist = storer
	}

	m, err := httpmirror.New(ctx, mcfg)
	if err != nil {
		if store != nil {
			store.Close()
		}
		return fmt.Errorf("fleet: shard %d mirror: %w", s.cfg.Index, err)
	}

	ln, err := net.Listen("tcp", shardAddr)
	if err != nil {
		if store != nil {
			store.Close()
		}
		return fmt.Errorf("fleet: shard %d listen: %w", s.cfg.Index, err)
	}
	srv := &http.Server{
		Handler:      m.Handler(),
		ReadTimeout:  10 * time.Second,
		WriteTimeout: 30 * time.Second,
	}
	go srv.Serve(ln)

	runCtx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Internal refresh-loop errors restart the loop, like the
		// standalone daemon: a shard keeps serving its copies through
		// anything short of Kill.
		for {
			err := m.Run(runCtx, s.cfg.Period)
			if err == nil {
				return
			}
			lg.Error("refresh loop failed; restarting", "error", err)
			select {
			case <-runCtx.Done():
				return
			case <-time.After(s.cfg.Period):
			}
		}
	}()

	s.mirror = m
	s.store = store
	s.srv = srv
	s.cancel = cancel
	s.done = done
	url := "http://" + ln.Addr().String()
	s.url.Store(&url)
	s.live.Store(m)
	lg.Info("shard up", "addr", url, "objects", len(s.cfg.Placement.Globals(s.cfg.Index)), "budget", m.Budget())
	return nil
}

// Kill hard-kills the shard: the refresh loop is cancelled, the
// listener and every open connection close immediately, the store
// closes without a final snapshot — whatever the last cadence
// snapshot plus journal captured is all a restart gets, exactly like
// a crash. It reports whether the shard was running: killing a dead
// shard is a no-op.
func (s *Shard) Kill() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mirror == nil {
		return false
	}
	s.unpublish()
	s.cancel()
	s.srv.Close()
	// The refresh loop finishes its in-flight step before the store
	// closes underneath it, which keeps the teardown race-free; that
	// step can outlast a period (see Shard).
	<-s.done
	if s.store != nil {
		s.store.Close()
	}
	s.teardownLocked()
	s.kills.Add(1)
	return true
}

// Stop shuts the shard down gracefully: refresh loop first, then a
// final snapshot, then the listener, then the store.
func (s *Shard) Stop(ctx context.Context) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mirror == nil {
		return nil
	}
	s.unpublish()
	s.cancel()
	<-s.done
	var firstErr error
	if err := s.mirror.FlushSnapshot(); err != nil {
		firstErr = fmt.Errorf("fleet: shard %d final snapshot: %w", s.cfg.Index, err)
	}
	if err := s.srv.Shutdown(ctx); err != nil && firstErr == nil {
		firstErr = fmt.Errorf("fleet: shard %d shutdown: %w", s.cfg.Index, err)
	}
	if s.store != nil {
		if err := s.store.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("fleet: shard %d store close: %w", s.cfg.Index, err)
		}
	}
	s.teardownLocked()
	return firstErr
}

// unpublish takes the shard out of service for readers: from here on
// the router answers its keyspace 503 and the supervisor sees it dead.
// A read that loaded the mirror just before finishes against it.
func (s *Shard) unpublish() {
	s.live.Store(nil)
	s.url.Store(nil)
}

// teardownLocked clears the lifecycle state. Callers hold s.mu.
func (s *Shard) teardownLocked() {
	s.mirror = nil
	s.store = nil
	s.srv = nil
	s.cancel = nil
	s.done = nil
}

// Running reports whether the shard is up: from the moment Start
// publishes its mirror until Kill or Stop clears it. It is the fleet's
// one health signal.
func (s *Shard) Running() bool { return s.live.Load() != nil }

// Mirror returns the shard's live mirror, or nil while dead.
func (s *Shard) Mirror() *httpmirror.Mirror { return s.live.Load() }

// URL returns the shard's base URL ("http://host:port"), or "" while
// dead.
func (s *Shard) URL() string {
	if u := s.url.Load(); u != nil {
		return *u
	}
	return ""
}

// Kills counts hard kills over the shard's lifetime.
func (s *Shard) Kills() int { return int(s.kills.Load()) }
