// Fleet mode: with -shards=K (K > 1) freshend runs the sharded
// multi-mirror tier instead of a single mirror. The catalog is
// partitioned across K fault-isolated shards — each an independent
// mirror with its own solver, estimator, persist directory
// (<state-dir>/shard-i), and loopback listener — a supervisor
// water-fills the global -bandwidth across healthy shards and
// re-levels it within one period of a shard dying or recovering, and
// a router on -addr fronts the fleet: placement-based object routing
// by an in-process call into the owning shard's object path (the
// shard listeners carry health probes, per-shard /metrics and
// /status), aggregated /status and /metrics, and 503 + jittered
// Retry-After for a dead shard's keyspace (see DESIGN.md §14).
package main

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"time"

	"freshen/internal/fleet"
	"freshen/internal/freshness"
	"freshen/internal/httpmirror"
	"freshen/internal/obs"
	"freshen/internal/partition"
	"freshen/internal/persist"
)

// runFleet is run's -shards>1 branch: the same validated flags,
// mirror template (mcfg) and registry, serving the sharded tier. A
// non-nil faults arms disk-fault injection on -persist-fault-shard.
func runFleet(ctx context.Context, cfg config, ready chan<- net.Addr, mcfg httpmirror.Config, faults *persist.FaultPlan, reg *obs.Registry, logger *slog.Logger) error {
	lg := obs.Component(logger, "freshend")

	newClient := func() *httpmirror.SourceClient {
		c := httpmirror.NewSourceClient(cfg.upstream, nil)
		c.SetRetryPolicy(httpmirror.RetryPolicy{
			MaxAttempts: cfg.upRetries,
			Timeout:     cfg.upTimeout,
		})
		return c
	}

	var place *fleet.Placement
	switch cfg.placement {
	case "hash":
		// fleet.New derives the consistent-hash placement itself.
	case "partition":
		// The paper's partitioner needs element parameters; before any
		// traffic the only honest ones are the prior change rate and a
		// uniform profile over the catalog's real sizes.
		catalog, err := newClient().Catalog(ctx)
		if err != nil {
			return fmt.Errorf("fetching catalog for partition placement: %w", err)
		}
		elems := make([]freshness.Element, len(catalog))
		for i, e := range catalog {
			elems[i] = freshness.Element{ID: e.ID, Lambda: 1, AccessProb: 1 / float64(len(catalog)), Size: e.Size}
		}
		place, err = fleet.PartitionPlacement(elems, cfg.shards, partition.KeyPFOverSize, nil)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown placement %q (want hash or partition)", cfg.placement)
	}

	var wrapStore func(int, *persist.Store) persist.Storer
	if faults != nil {
		if cfg.persistFaultShard < 0 || cfg.persistFaultShard >= cfg.shards {
			return fmt.Errorf("persist-fault-shard %d outside fleet of %d", cfg.persistFaultShard, cfg.shards)
		}
		wrapStore = func(shard int, s *persist.Store) persist.Storer {
			if shard != cfg.persistFaultShard {
				return s
			}
			return persist.NewFaultStore(s, *faults)
		}
		lg.Warn("disk-fault injection armed",
			"shard", cfg.persistFaultShard,
			"from_op", cfg.persistFaultAfter,
			"ops", cfg.persistFaultOps,
			"kind", cfg.persistFaultKind,
			"torn", cfg.persistFaultTorn)
	}

	fl, err := fleet.New(ctx, fleet.Config{
		Shards:    cfg.shards,
		Budget:    cfg.bandwidth,
		Placement: place,
		Upstream:  newClient(),
		ShardUpstream: func(int) httpmirror.Source {
			return newClient()
		},
		Mirror:      mcfg,
		Period:      cfg.period,
		StateDir:    cfg.stateDir,
		WrapStore:   wrapStore,
		AllocEvery:  cfg.allocEvery,
		HealthEvery: cfg.healthEvery,
		ChaosAdmin:  cfg.fleetChaos,
		Metrics:     reg,
		Logger:      logger,
	})
	if err != nil {
		return err
	}
	lg.Info("fleet up",
		"shards", cfg.shards,
		"placement", cfg.placement,
		"objects", fl.Placement().NumObjects(),
		"budget", cfg.bandwidth,
		"period", cfg.period.String(),
		"chaos_admin", cfg.fleetChaos)

	runCtx, cancelRun := context.WithCancel(context.Background())
	supDone := make(chan struct{})
	go func() {
		defer close(supDone)
		fl.Run(runCtx)
	}()

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		cancelRun()
		<-supDone
		fl.Close(context.Background())
		return err
	}
	srv := &http.Server{
		Handler:      fl.Handler(),
		ReadTimeout:  10 * time.Second,
		WriteTimeout: 30 * time.Second,
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	if ready != nil {
		ready <- ln.Addr()
	}

	select {
	case err := <-serveErr:
		cancelRun()
		<-supDone
		fl.Close(context.Background())
		return err
	case <-ctx.Done():
	}
	lg.Info("shutting down fleet")
	cancelRun()
	<-supDone
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := fl.Close(shutdownCtx); err != nil {
		lg.Error("fleet shutdown", "error", err)
	}
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
