package testkit

import (
	"sync"
	"sync/atomic"

	"freshen/internal/freshness"
)

// ParkingPolicy is freshness.FixedOrder with a trap for lock tests:
// once armed, the next InvertMarginal call parks until Release, so a
// test can hold a solve mid-flight and check what still answers. It
// holds FixedOrder as a field rather than embedding it, so a solver
// cannot take the warm-start fast path around the trap.
type ParkingPolicy struct {
	inner   freshness.FixedOrder
	armed   atomic.Bool
	parked  chan struct{}
	release chan struct{}
	once    sync.Once
}

// NewParkingPolicy returns an unarmed trap: until Arm it behaves
// exactly like FixedOrder.
func NewParkingPolicy() *ParkingPolicy {
	return &ParkingPolicy{parked: make(chan struct{}), release: make(chan struct{})}
}

// Arm sets the trap for the next InvertMarginal call. Call it at most
// once: a policy parks one call in its lifetime.
func (p *ParkingPolicy) Arm() { p.armed.Store(true) }

// Parked is closed once a call has parked.
func (p *ParkingPolicy) Parked() <-chan struct{} { return p.parked }

// Release lets the parked call, and every later one, through. It is
// safe to call more than once.
func (p *ParkingPolicy) Release() { p.once.Do(func() { close(p.release) }) }

// Name implements freshness.Policy.
func (p *ParkingPolicy) Name() string { return p.inner.Name() }

// Freshness implements freshness.Policy.
func (p *ParkingPolicy) Freshness(freq, lambda float64) float64 {
	return p.inner.Freshness(freq, lambda)
}

// Marginal implements freshness.Policy.
func (p *ParkingPolicy) Marginal(freq, lambda float64) float64 {
	return p.inner.Marginal(freq, lambda)
}

// InvertMarginal implements freshness.Policy, parking the first call
// after Arm until Release.
func (p *ParkingPolicy) InvertMarginal(target, lambda float64) float64 {
	if p.armed.CompareAndSwap(true, false) {
		close(p.parked)
		<-p.release
	}
	return p.inner.InvertMarginal(target, lambda)
}
