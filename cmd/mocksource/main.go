// Command mocksource runs a simulated origin server whose objects
// change as independent Poisson processes — a stand-in for any data
// source a freshend mirror can poll. It speaks the source protocol
// (GET /catalog, GET|HEAD /object/{id} with X-Version) and the
// optional batch GET /objects?ids=… that speeds up a mirror's boot.
//
// For resilience testing the origin can misbehave on demand:
// -fault-rate injects probabilistic 500s, -fault-latency delays every
// response, -stall-prob hangs a fraction of requests, and
// -outage-after/-outage-for schedule a full-outage window during which
// every request gets a 503.
//
// Usage:
//
//	mocksource -addr :8080 -n 500 -mean 2 -stddev 1 -period 10s \
//	           -fault-rate 0.2 -outage-after 1m -outage-for 30s
//
// -period maps one scheduling period to wall-clock time: with
// -period 10s and -mean 2, each object changes about twice every ten
// seconds.
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"time"

	"freshen/internal/httpmirror"
	"freshen/internal/obs"
	"freshen/internal/stats"
)

// faultFlags groups the injection knobs.
type faultFlags struct {
	rate        float64
	latency     time.Duration
	stallProb   float64
	stallFor    time.Duration
	outageAfter time.Duration
	outageFor   time.Duration
}

type config struct {
	addr         string
	n            int
	mean, stddev float64
	pareto       bool
	period       time.Duration
	seed         int64
	logLevel     string
	faults       faultFlags
}

func main() {
	cfg, err := parseFlags(os.Args[1:], os.Stderr)
	if err != nil {
		os.Exit(2) // parseFlags already printed the diagnostic and usage
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "mocksource:", err)
		os.Exit(1)
	}
}

// parseFlags builds the source configuration from a command line and
// validates it up front: a misconfigured fault schedule is a usage
// error at startup, not a surprise mid-experiment.
func parseFlags(args []string, out io.Writer) (config, error) {
	fs := flag.NewFlagSet("mocksource", flag.ContinueOnError)
	fs.SetOutput(out)
	addr := fs.String("addr", ":8080", "listen address")
	n := fs.Int("n", 500, "number of objects")
	mean := fs.Float64("mean", 2, "mean object change rate per period")
	stddev := fs.Float64("stddev", 1, "stddev of the gamma change-rate distribution")
	pareto := fs.Bool("pareto-sizes", false, "draw object sizes from Pareto(1.1, mean 1)")
	period := fs.Duration("period", 10*time.Second, "wall-clock length of one period")
	seed := fs.Int64("seed", 1, "generation seed")
	faultRate := fs.Float64("fault-rate", 0, "probability a request fails with 500")
	faultLatency := fs.Duration("fault-latency", 0, "latency added to every response")
	stallProb := fs.Float64("stall-prob", 0, "probability a request stalls")
	stallFor := fs.Duration("stall-for", 30*time.Second, "how long a stalled request hangs")
	outageAfter := fs.Duration("outage-after", 0, "delay before a full-outage window opens; requires -outage-for")
	outageFor := fs.Duration("outage-for", 0, "length of the outage window; requires -outage-after")
	logLevel := fs.String("log-level", "info", "log verbosity: debug | info | warn | error")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	cfg := config{
		addr: *addr, n: *n, mean: *mean, stddev: *stddev,
		pareto: *pareto, period: *period, seed: *seed, logLevel: *logLevel,
		faults: faultFlags{
			rate:        *faultRate,
			latency:     *faultLatency,
			stallProb:   *stallProb,
			stallFor:    *stallFor,
			outageAfter: *outageAfter,
			outageFor:   *outageFor,
		},
	}
	if err := cfg.validate(); err != nil {
		fmt.Fprintf(fs.Output(), "mocksource: %v\n", err)
		fs.Usage()
		return config{}, err
	}
	return cfg, nil
}

// validate rejects unusable generation parameters and fault schedules.
func (cfg config) validate() error {
	if cfg.n <= 0 || cfg.mean <= 0 || cfg.stddev <= 0 || cfg.period <= 0 {
		return fmt.Errorf("n, mean, stddev and period must be positive")
	}
	f := cfg.faults
	if f.rate < 0 || f.rate > 1 {
		return fmt.Errorf("fault-rate must be in [0, 1], got %v", f.rate)
	}
	if f.stallProb < 0 || f.stallProb > 1 {
		return fmt.Errorf("stall-prob must be in [0, 1], got %v", f.stallProb)
	}
	if f.latency < 0 {
		return fmt.Errorf("fault-latency must not be negative, got %v", f.latency)
	}
	if f.stallFor < 0 {
		return fmt.Errorf("stall-for must not be negative, got %v", f.stallFor)
	}
	if f.outageAfter < 0 || f.outageFor < 0 {
		return fmt.Errorf("outage-after and outage-for must not be negative, got %v and %v", f.outageAfter, f.outageFor)
	}
	// The outage window is one knob in two halves: a window with no
	// start (or a start with no window) is a misremembered command
	// line, so fail loudly instead of silently never injecting.
	if f.outageFor > 0 && f.outageAfter == 0 {
		return fmt.Errorf("-outage-for requires -outage-after")
	}
	if f.outageAfter > 0 && f.outageFor == 0 {
		return fmt.Errorf("-outage-after requires -outage-for")
	}
	return nil
}

func run(cfg config) error {
	if err := cfg.validate(); err != nil {
		return err
	}
	if cfg.logLevel == "" {
		cfg.logLevel = "info"
	}
	level, err := obs.ParseLevel(cfg.logLevel)
	if err != nil {
		return err
	}
	lg := obs.Component(obs.NewLogger(os.Stderr, level), "mocksource")
	handler, err := buildHandler(cfg.n, cfg.mean, cfg.stddev, cfg.pareto, cfg.period, cfg.seed, cfg.faults, lg)
	if err != nil {
		return err
	}
	lg.Info("source up",
		slog.Int("objects", cfg.n),
		slog.Float64("mean_rate", cfg.mean),
		slog.Duration("period", cfg.period),
		slog.String("addr", cfg.addr))
	srv := &http.Server{
		Addr:        cfg.addr,
		Handler:     handler,
		ReadTimeout: 10 * time.Second,
		// No WriteTimeout: stall injection must be able to outlive it.
	}
	return srv.ListenAndServe()
}

// buildHandler assembles the simulated source (with its clock driver)
// and wraps it in the fault injector when any injection is requested.
func buildHandler(n int, mean, stddev float64, pareto bool, period time.Duration, seed int64, faults faultFlags, lg *slog.Logger) (http.Handler, error) {
	if lg == nil {
		lg = obs.Nop()
	}
	gamma, err := stats.NewGammaMeanStdDev(mean, stddev)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(seed)
	lambdas := gamma.SampleN(rng, n)
	var sizes []float64
	if pareto {
		p, err := stats.NewParetoMean(1.1, 1.0)
		if err != nil {
			return nil, err
		}
		sizes = p.SampleN(rng, n)
	}
	src, err := httpmirror.NewSimulatedSource(lambdas, sizes, seed+1)
	if err != nil {
		return nil, err
	}

	// Advance the simulated clock with wall time.
	start := time.Now()
	go func() {
		ticker := time.NewTicker(period / 100)
		defer ticker.Stop()
		for range ticker.C {
			src.Advance(time.Since(start).Seconds() / period.Seconds())
		}
	}()

	var handler http.Handler = src.Handler()
	if faults.rate > 0 || faults.latency > 0 || faults.stallProb > 0 || faults.outageFor > 0 {
		inj, err := httpmirror.NewFaultInjector(handler, httpmirror.ChaosConfig{
			ErrorRate: faults.rate,
			Latency:   faults.latency,
			StallProb: faults.stallProb,
			StallFor:  faults.stallFor,
			Seed:      seed + 2,
		})
		if err != nil {
			return nil, err
		}
		httpmirror.ScheduleOutage(inj, faults.outageAfter, faults.outageFor)
		lg.Info("fault injection on",
			slog.Float64("error_rate", faults.rate),
			slog.Duration("latency", faults.latency),
			slog.Float64("stall_prob", faults.stallProb),
			slog.Duration("outage_for", faults.outageFor),
			slog.Duration("outage_after", faults.outageAfter))
		handler = inj
	}
	return handler, nil
}
