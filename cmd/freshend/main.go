// Command freshend is the mirror daemon: it mirrors an upstream
// source (anything speaking the GET /catalog + GET /object/{id}
// protocol, e.g. mocksource), refreshing local copies on the
// perceived-freshness-optimal schedule, learning the user profile from
// its own access log and per-object change rates from its refresh
// polls, and re-planning on cadence.
//
// The refresh pipeline is fault tolerant: upstream calls carry
// per-request timeouts and retry transient failures with backoff, a
// circuit breaker pauses refreshing through outages (the mirror keeps
// serving its local copies), and objects whose refreshes keep failing
// are quarantined out of the plan until a recovery probe succeeds.
//
// Change rates are learned by the online MLE, O(1) state per object,
// so memory and snapshot size stay flat however long the daemon runs.
//
// With -state-dir set the daemon is also crash safe: it snapshots its
// learned state (estimator state, access profile, schedule,
// breaker/quarantine state) atomically every -snapshot-every periods,
// journals each refresh outcome in between, flushes a final snapshot
// on graceful shutdown, and on boot recovers from the state directory
// — replaying the journal and warm-starting the schedule from the
// persisted plan.
//
// Mirrors also chain: -upstream-url points the daemon at another
// freshend mirror instead of an origin (source → regional → edge).
// The edge speaks the same protocol upward but additionally observes
// the upstream's degradation headers, so an outage anywhere above it
// surfaces to clients as source-degraded mode with the compounded
// X-Staleness-Periods, never as silent staleness.
//
// Usage:
//
//	freshend -addr :8081 -upstream http://localhost:8080 \
//	         -bandwidth 250 -period 10s -strategy clustered -partitions 50 \
//	         -state-dir /var/lib/freshend
//
//	freshend -addr :8082 -upstream-url http://localhost:8081 \
//	         -bandwidth 100 -period 10s
//
// Endpoints: GET /object/{id} (serve a copy), GET /status (JSON
// metrics), GET /metrics (Prometheus text exposition), GET /healthz
// (liveness), GET /readyz (readiness: 503 until learned state is
// recovered or durable), POST /replan (learn + re-plan now). With
// -debug-addr set, a second listener serves GET /metrics plus
// net/http/pprof under /debug/pprof/ — kept off the serving address so
// profiling exposure is an explicit operator choice.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"freshen/internal/core"
	"freshen/internal/hierarchy"
	"freshen/internal/httpmirror"
	"freshen/internal/obs"
	"freshen/internal/partition"
	"freshen/internal/persist"
	"freshen/internal/resilience"
	"freshen/internal/solver"
)

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		os.Exit(2) // the FlagSet already printed the diagnostic and usage
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, cfg, nil); err != nil {
		fmt.Fprintln(os.Stderr, "freshend:", err)
		os.Exit(1)
	}
}

// parseFlags builds the daemon configuration from a command line. It
// is split from main so tests can exercise flag handling without
// forking a process.
func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("freshend", flag.ContinueOnError)
	addr := fs.String("addr", ":8081", "listen address")
	upstream := fs.String("upstream", "", "base URL of the source to mirror; required unless -upstream-url is set")
	upstreamURL := fs.String("upstream-url", "", "base URL of an upstream freshend mirror to chain below (edge mode: degradation headers compound); mutually exclusive with -upstream")
	bandwidth := fs.Float64("bandwidth", 100, "refresh budget per period")
	period := fs.Duration("period", 10*time.Second, "wall-clock length of one period")
	strategy := fs.String("strategy", "exact", "exact | partitioned | clustered")
	partitions := fs.Int("partitions", 100, "partition count for heuristic strategies")
	iterations := fs.Int("iterations", 10, "k-means iterations for the clustered strategy")
	replanEvery := fs.Float64("replan-every", 5, "replanning cadence in periods")
	exploreFrac := fs.Float64("explore-frac", 0, "fraction of bandwidth spent probing high-uncertainty objects (0 disables exploration)")
	floorLambda := fs.Float64("floor-lambda", 0, "minimum change-rate estimate; 0 means prior/10, negative means no floor")
	seed := fs.Int64("seed", 1, "phase seed")
	upTimeout := fs.Duration("upstream-timeout", 5*time.Second, "per-request upstream timeout")
	upRetries := fs.Int("upstream-retries", 3, "attempts per upstream call (1 disables retries)")
	breakerAfter := fs.Int("breaker-after", 5, "consecutive failures that open the circuit breaker (negative disables)")
	breakerCooldown := fs.Float64("breaker-cooldown", 2, "breaker cooldown in periods")
	quarantineAfter := fs.Int("quarantine-after", 3, "per-object consecutive failures before quarantine (negative disables)")
	probeEvery := fs.Float64("probe-every", 1, "quarantine recovery-probe cadence in periods")
	stateDir := fs.String("state-dir", "", "directory for crash-safe state (snapshots + journal); empty disables persistence")
	snapshotEvery := fs.Float64("snapshot-every", 5, "snapshot cadence in periods")
	maxInflight := fs.Int("max-inflight", 0, "hard cap on concurrently admitted object reads (0 means 512, negative disables shedding)")
	minInflight := fs.Int("min-inflight", 0, "floor the adaptive concurrency limit never drops below (0 means 2)")
	shedTargetLatency := fs.Duration("shed-target-latency", 0, "object-read latency above which the adaptive limiter backs off (0 means 50ms)")
	persistDegradeAfter := fs.Int("persist-degrade-after", 0, "consecutive persist failures before persist-degraded read-only mode (0 means 3, negative disables)")
	shards := fs.Int("shards", 1, "shard count; above 1 the daemon runs the sharded fleet tier behind a router on -addr")
	placement := fs.String("placement", "hash", "fleet object placement: hash (consistent hashing) | partition (paper's partitioner over prior parameters)")
	allocEvery := fs.Duration("alloc-every", 0, "fleet budget re-leveling cadence (0 means one period)")
	healthEvery := fs.Duration("health-every", 0, "fleet shard health-probe cadence (0 means a quarter period)")
	debugAddr := fs.String("debug-addr", "", "optional second listen address serving /metrics and /debug/pprof/; empty disables it")
	logLevel := fs.String("log-level", "info", "log verbosity: debug | info | warn | error")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	return config{
		addr:            *addr,
		upstream:        *upstream,
		upstreamURL:     *upstreamURL,
		bandwidth:       *bandwidth,
		period:          *period,
		strategy:        *strategy,
		partitions:      *partitions,
		iterations:      *iterations,
		replanEvery:     *replanEvery,
		exploreFrac:     *exploreFrac,
		floorLambda:     *floorLambda,
		seed:            *seed,
		upTimeout:       *upTimeout,
		upRetries:       *upRetries,
		breakerAfter:    *breakerAfter,
		breakerCooldown: *breakerCooldown,
		quarantineAfter: *quarantineAfter,
		probeEvery:      *probeEvery,
		stateDir:        *stateDir,
		snapshotEvery:   *snapshotEvery,
		debugAddr:       *debugAddr,
		logLevel:        *logLevel,

		shards:      *shards,
		placement:   *placement,
		allocEvery:  *allocEvery,
		healthEvery: *healthEvery,

		maxInflight:         *maxInflight,
		minInflight:         *minInflight,
		shedTargetLatency:   *shedTargetLatency,
		persistDegradeAfter: *persistDegradeAfter,
	}, nil
}

type config struct {
	addr, upstream         string
	upstreamURL            string
	bandwidth              float64
	period                 time.Duration
	strategy               string
	partitions, iterations int
	replanEvery            float64
	exploreFrac            float64
	floorLambda            float64
	seed                   int64
	upTimeout              time.Duration
	upRetries              int
	breakerAfter           int
	breakerCooldown        float64
	quarantineAfter        int
	probeEvery             float64
	stateDir               string
	snapshotEvery          float64
	debugAddr              string
	logLevel               string

	// Fleet mode (shards > 1; see fleet.go in this package).
	shards      int
	placement   string
	allocEvery  time.Duration
	healthEvery time.Duration

	// Overload shedding and degraded-mode tuning.
	maxInflight         int
	minInflight         int
	shedTargetLatency   time.Duration
	persistDegradeAfter int

	// debugReady, when set (tests), receives the debug listener's bound
	// address once it is accepting connections.
	debugReady chan<- net.Addr
}

// run builds the mirror and serves it until ctx is cancelled (SIGINT/
// SIGTERM), then shuts down gracefully: the refresh loop stops before
// the listener closes. If ready is non-nil the bound listener address
// is sent on it once the server is accepting connections, which lets
// tests bind port 0 and still find the daemon. With -shards above 1
// it hands the validated flags, the mirror template and the registry
// to runFleet instead.
func run(ctx context.Context, cfg config, ready chan<- net.Addr) error {
	if cfg.shards < 1 {
		return fmt.Errorf("-shards must be at least 1, got %d", cfg.shards)
	}
	if cfg.upstream != "" && cfg.upstreamURL != "" {
		return fmt.Errorf("-upstream and -upstream-url are mutually exclusive")
	}
	switch {
	case cfg.shards > 1 && cfg.upstreamURL != "":
		return fmt.Errorf("-upstream-url is for single-mirror edge mode; fleet mode chains via -upstream")
	case cfg.shards > 1 && cfg.upstream == "":
		return fmt.Errorf("-upstream is required")
	case cfg.upstream == "" && cfg.upstreamURL == "":
		return fmt.Errorf("-upstream or -upstream-url is required")
	}
	if cfg.bandwidth <= 0 || cfg.period <= 0 || cfg.replanEvery <= 0 {
		return fmt.Errorf("bandwidth, period and replan-every must be positive")
	}
	if cfg.stateDir != "" && cfg.snapshotEvery <= 0 {
		return fmt.Errorf("snapshot-every must be positive, got %v", cfg.snapshotEvery)
	}
	if cfg.logLevel == "" {
		cfg.logLevel = "info"
	}
	level, err := obs.ParseLevel(cfg.logLevel)
	if err != nil {
		return err
	}
	logger := obs.NewLogger(os.Stderr, level)
	lg := obs.Component(logger, "freshend")
	mcfg, err := mirrorConfig(cfg)
	if err != nil {
		return err
	}

	// One registry carries every layer's series: the mirror's (its
	// estimator's included), the solver's, and — with persistence on —
	// the store's. In fleet mode it is the router's registry: the
	// fleet-level series plus the process-global solver series (the
	// pooled allocator's solves and every shard's); per-shard series
	// live on each shard's own loopback listener.
	reg := obs.NewRegistry()
	solver.Instrument(reg)
	if cfg.shards > 1 {
		return runFleet(ctx, cfg, ready, mcfg, reg, logger)
	}

	// storer stays a nil interface when persistence is off: assigning a
	// nil *persist.Store directly would make Config.Persist non-nil.
	var store *persist.Store
	var storer persist.Storer
	if cfg.stateDir != "" {
		var err error
		store, err = persist.Open(cfg.stateDir)
		if err != nil {
			return fmt.Errorf("opening state dir: %w", err)
		}
		defer store.Close()
		store.Instrument(reg)
		rec := store.Recovery()
		if rec.JournalTruncated {
			lg.Warn("journal had a torn or corrupt tail; truncated to the last good record")
		}
		if rec.SnapshotErr != nil {
			lg.Warn("snapshot discarded", "error", rec.SnapshotErr)
		}
		storer = store
	}

	retry := httpmirror.RetryPolicy{
		MaxAttempts: cfg.upRetries,
		Timeout:     cfg.upTimeout,
	}
	upstreamBase := cfg.upstream
	var upstream httpmirror.Source
	if cfg.upstreamURL != "" {
		// Edge mode: the upstream is itself a freshend mirror. The
		// hierarchy adapter speaks the same protocol but also observes
		// the upstream's degradation headers, so this mirror compounds
		// staleness instead of hiding it.
		upstreamBase = cfg.upstreamURL
		ms := hierarchy.NewMirrorSource(cfg.upstreamURL, nil)
		ms.SetRetryPolicy(retry)
		upstream = ms
	} else {
		client := httpmirror.NewSourceClient(cfg.upstream, nil)
		client.SetRetryPolicy(retry)
		upstream = client
	}
	mcfg.Upstream = upstream
	mcfg.Persist = storer
	mcfg.Metrics = reg
	mcfg.Logger = logger
	m, err := httpmirror.New(ctx, mcfg)
	if err != nil {
		return err
	}
	lg.Info("mirroring upstream",
		"upstream", upstreamBase,
		"edge_mode", cfg.upstreamURL != "",
		"objects", m.Status().Objects,
		"bandwidth", cfg.bandwidth,
		"period", cfg.period.String(),
		"strategy", cfg.strategy)
	if store != nil {
		rd := m.Readiness()
		lg.Info("state recovered",
			"state_dir", cfg.stateDir,
			"status", rd.RecoveryStatus,
			"journal_replayed", rd.JournalReplayed)
	}

	// The refresh loop: upstream trouble is absorbed by retries, the
	// breaker, and quarantine; only internal errors surface, and even
	// those restart the loop rather than killing the daemon.
	loopDone := make(chan struct{})
	go func() {
		defer close(loopDone)
		for {
			err := m.Run(ctx, cfg.period)
			if err == nil {
				return // ctx cancelled: clean shutdown
			}
			lg.Error("refresh loop failed; restarting", "error", err, "restart_in", cfg.period.String())
			select {
			case <-ctx.Done():
				return
			case <-time.After(cfg.period):
			}
		}
	}()

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:      m.Handler(),
		ReadTimeout:  10 * time.Second,
		WriteTimeout: 30 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	// The optional debug listener: metrics plus pprof on an address the
	// operator chose to expose, separate from the serving one.
	var debugSrv *http.Server
	debugErr := make(chan error, 1)
	if cfg.debugAddr != "" {
		debugLn, err := net.Listen("tcp", cfg.debugAddr)
		if err != nil {
			srv.Close()
			<-serveErr
			return fmt.Errorf("debug listener: %w", err)
		}
		debugSrv = &http.Server{Handler: debugHandler(reg)}
		go func() { debugErr <- debugSrv.Serve(debugLn) }()
		lg.Info("debug listener up", "addr", debugLn.Addr().String())
		if cfg.debugReady != nil {
			cfg.debugReady <- debugLn.Addr()
		}
	}
	if ready != nil {
		ready <- ln.Addr()
	}

	select {
	case err := <-serveErr:
		if debugSrv != nil {
			debugSrv.Close()
			<-debugErr
		}
		return err
	case err := <-debugErr:
		srv.Close()
		<-serveErr
		return fmt.Errorf("debug listener: %w", err)
	case <-ctx.Done():
	}
	// Graceful shutdown: the refresh loop stops first (any in-flight
	// refresh batch completes), then the final snapshot is flushed,
	// then the listeners close.
	lg.Info("shutting down")
	<-loopDone
	if err := m.FlushSnapshot(); err != nil {
		lg.Error("final snapshot failed", "error", err)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if debugSrv != nil {
		if err := debugSrv.Shutdown(shutdownCtx); err != nil {
			return err
		}
		if err := <-debugErr; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	}
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// mirrorConfig translates the flags into the mirror configuration
// both modes share: the -strategy family of flags, the cadences, the
// fault and overload policies. The single mirror adds its upstream,
// store, registry and logger; the fleet uses it as every shard's
// template.
func mirrorConfig(cfg config) (httpmirror.Config, error) {
	planCfg := core.Config{
		Bandwidth:        cfg.bandwidth,
		Key:              partition.KeyPF,
		NumPartitions:    cfg.partitions,
		KMeansIterations: cfg.iterations,
		Allocation:       partition.FBA,
	}
	switch cfg.strategy {
	case "exact":
		planCfg.Strategy = core.StrategyExact
	case "partitioned":
		planCfg.Strategy = core.StrategyPartitioned
	case "clustered":
		planCfg.Strategy = core.StrategyClustered
	default:
		return httpmirror.Config{}, fmt.Errorf("unknown strategy %q", cfg.strategy)
	}
	return httpmirror.Config{
		Plan:        planCfg,
		ReplanEvery: cfg.replanEvery,
		ExploreFrac: cfg.exploreFrac,
		FloorLambda: cfg.floorLambda,
		Fault: httpmirror.FaultPolicy{
			BreakerThreshold: cfg.breakerAfter,
			BreakerCooldown:  cfg.breakerCooldown,
			QuarantineAfter:  cfg.quarantineAfter,
			ProbeEvery:       cfg.probeEvery,
		},
		Overload: resilience.LimiterConfig{
			MaxInflight:   cfg.maxInflight,
			MinInflight:   cfg.minInflight,
			TargetLatency: cfg.shedTargetLatency,
		},
		Degrade: resilience.ModeConfig{
			PersistFailureThreshold: cfg.persistDegradeAfter,
		},
		Seed:          cfg.seed,
		SnapshotEvery: cfg.snapshotEvery,
	}, nil
}

// debugHandler builds the -debug-addr mux: the metrics exposition and
// the standard pprof handlers.
func debugHandler(reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/metrics", reg.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
