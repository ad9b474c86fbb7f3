// Fleet mode: with -shards=K (K > 1) freshend runs the sharded
// multi-mirror tier instead of a single mirror. Consistent hashing
// spreads the catalog across K fault-isolated shards — each an
// independent mirror with its own solver, estimator, persist directory
// (<state-dir>/shard-i), and loopback listener. A supervisor
// water-fills the global -bandwidth across the running shards every
// -replan-every periods, each leveling being every shard's replan, and
// at once when a shard is killed or restarted. A router on -addr
// fronts the fleet: placement-based object routing by an in-process
// call into the owning shard's object path (the shard listeners carry
// per-shard /metrics and /status), aggregated /status and /metrics,
// and 503 + jittered Retry-After for a dead shard's keyspace (see
// DESIGN.md §14).
package main

import (
	"context"
	"log/slog"
	"net"

	"freshen/internal/fleet"
	"freshen/internal/httpmirror"
	"freshen/internal/obs"
)

// runFleet is run's -shards>1 branch: the same validated flags,
// mirror template (mcfg) and registry, serving the sharded tier
// through serve.
func runFleet(ctx context.Context, cfg config, ready chan<- net.Addr, mcfg httpmirror.Config, reg *obs.Registry, logger *slog.Logger) error {
	lg := obs.Component(logger, "freshend")

	// The boot's client, then one per shard. Once serve has closed the
	// shards, or on a failed boot, none keeps a connection open.
	clients := make([]*httpmirror.SourceClient, cfg.shards+1)
	for i := range clients {
		clients[i] = httpmirror.NewSourceClient(cfg.upstream, nil)
		clients[i].SetRetryPolicy(httpmirror.RetryPolicy{
			MaxAttempts: cfg.upRetries,
			Timeout:     cfg.upTimeout,
		})
	}
	defer func() {
		for _, c := range clients {
			c.CloseIdleConnections()
		}
	}()
	fl, err := fleet.New(ctx, fleet.Config{
		Shards:        cfg.shards,
		Budget:        cfg.bandwidth,
		Upstream:      clients[0],
		ShardUpstream: func(i int) httpmirror.Source { return clients[i+1] },
		Mirror:        mcfg,
		Period:        cfg.period,
		StateDir:      cfg.stateDir,
		Metrics:       reg,
		Logger:        logger,
	})
	if err != nil {
		return err
	}
	lg.Info("fleet up",
		"shards", cfg.shards,
		"objects", fl.Placement().NumObjects(),
		"budget", cfg.bandwidth,
		"period", cfg.period.String())

	supCtx, stopSup := context.WithCancel(ctx)
	supDone := make(chan struct{})
	go func() {
		defer close(supDone)
		fl.Run(supCtx)
	}()
	// Stop: the supervisor first, so no leveling races the shards'
	// shutdown, then every shard gracefully (final snapshots included).
	return serve(ctx, cfg, ready, fl.Handler(), reg, lg, func(shutdownCtx context.Context) {
		stopSup()
		<-supDone
		if err := fl.Close(shutdownCtx); err != nil {
			lg.Error("fleet shutdown", "error", err)
		}
	})
}
