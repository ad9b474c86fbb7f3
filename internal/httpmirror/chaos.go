package httpmirror

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// ChaosConfig parameterizes fault injection.
type ChaosConfig struct {
	// ErrorRate is the probability in [0, 1] that a request fails.
	ErrorRate float64
	// Latency is added to every request before it is served.
	Latency time.Duration
	// StallProb is the probability that a request stalls for StallFor
	// (or until the caller's context deadline fires) instead of its
	// normal latency — the pathological slow upstream.
	StallProb float64
	// StallFor bounds a stall; 0 means 30s.
	StallFor time.Duration
	// Seed drives the injection RNG; 0 means 1.
	Seed int64
}

func (c ChaosConfig) withDefaults() (ChaosConfig, error) {
	if c.ErrorRate < 0 || c.ErrorRate > 1 || c.StallProb < 0 || c.StallProb > 1 {
		return c, fmt.Errorf("httpmirror: chaos probabilities must be in [0, 1], got error %v stall %v", c.ErrorRate, c.StallProb)
	}
	if c.StallFor <= 0 {
		c.StallFor = 30 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c, nil
}

// chaosCore holds the shared injection state.
type chaosCore struct {
	cfg    ChaosConfig
	mu     sync.Mutex
	rng    *rand.Rand
	outage atomic.Bool
	faults atomic.Int64
}

func newChaosCore(cfg ChaosConfig) (*chaosCore, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return &chaosCore{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// roll decides this request's fate: fail, stall, or pass.
func (c *chaosCore) roll() (fail, stall bool) {
	if c.outage.Load() {
		c.faults.Add(1)
		return true, false
	}
	c.mu.Lock()
	f := c.rng.Float64() < c.cfg.ErrorRate
	s := !f && c.rng.Float64() < c.cfg.StallProb
	c.mu.Unlock()
	if f {
		c.faults.Add(1)
	}
	return f, s
}

// SetErrorRate replaces the probabilistic failure rate at runtime
// (e.g. ramping chaos up after a clean warm-up). Rates outside [0, 1]
// are clamped. Safe to call concurrently.
func (c *chaosCore) SetErrorRate(rate float64) {
	rate = min(max(rate, 0), 1)
	c.mu.Lock()
	c.cfg.ErrorRate = rate
	c.mu.Unlock()
}

// SetOutage toggles a full outage: every request fails while set,
// regardless of ErrorRate. Safe to call concurrently.
func (c *chaosCore) SetOutage(on bool) { c.outage.Store(on) }

// Faults returns how many requests were failed by injection.
func (c *chaosCore) Faults() int64 { return c.faults.Load() }

// FaultInjector is HTTP middleware that makes a healthy origin
// misbehave: probabilistic 500s, added latency, stalls, and outage
// windows during which every request gets a 503. mocksource mounts it
// in front of the simulated source.
type FaultInjector struct {
	*chaosCore
	next http.Handler
}

// NewFaultInjector wraps next with fault injection.
func NewFaultInjector(next http.Handler, cfg ChaosConfig) (*FaultInjector, error) {
	core, err := newChaosCore(cfg)
	if err != nil {
		return nil, err
	}
	return &FaultInjector{chaosCore: core, next: next}, nil
}

// ServeHTTP implements http.Handler.
func (f *FaultInjector) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f.outage.Load() {
		f.faults.Add(1)
		http.Error(w, "injected outage", http.StatusServiceUnavailable)
		return
	}
	fail, stall := f.roll()
	if fail {
		http.Error(w, "injected fault", http.StatusInternalServerError)
		return
	}
	wait := f.cfg.Latency
	if stall {
		wait = f.cfg.StallFor
	}
	if wait > 0 {
		select {
		case <-r.Context().Done():
			return
		case <-time.After(wait):
		}
	}
	f.next.ServeHTTP(w, r)
}

// ScheduleOutage turns the outage on after start and off again after
// start+duration, from a background goroutine. It returns immediately;
// zero duration means no outage is scheduled.
func ScheduleOutage(c interface{ SetOutage(bool) }, start, duration time.Duration) {
	if duration <= 0 {
		return
	}
	go func() {
		time.Sleep(start)
		c.SetOutage(true)
		time.Sleep(duration)
		c.SetOutage(false)
	}()
}
