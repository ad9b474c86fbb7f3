package httpmirror

import "fmt"

// FaultPolicy tunes the mirror's fault handling: the upstream circuit
// breaker and the per-element quarantine. The zero value enables both
// with the documented defaults; set a threshold negative to disable
// that mechanism.
type FaultPolicy struct {
	// BreakerThreshold opens the breaker after this many consecutive
	// refresh failures (any element); 0 means 5, negative disables the
	// breaker.
	BreakerThreshold int
	// BreakerCooldown is how long (in periods) the breaker stays open
	// before letting one probe refresh through; 0 means 2.
	BreakerCooldown float64
	// QuarantineAfter quarantines an element after this many
	// consecutive failures of its own refreshes; 0 means 3, negative
	// disables quarantine.
	QuarantineAfter int
	// ProbeEvery is the cadence (in periods) at which quarantined
	// elements are probed for recovery; 0 means 1.
	ProbeEvery float64
}

func (p FaultPolicy) withDefaults() FaultPolicy {
	if p.BreakerThreshold == 0 {
		p.BreakerThreshold = 5
	}
	if p.BreakerCooldown == 0 {
		p.BreakerCooldown = 2
	}
	if p.QuarantineAfter == 0 {
		p.QuarantineAfter = 3
	}
	if p.ProbeEvery == 0 {
		p.ProbeEvery = 1
	}
	return p
}

// BreakerState is the upstream circuit breaker's condition.
type BreakerState int

const (
	// BreakerClosed: refreshes flow normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: refreshes are skipped until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen: the cooldown elapsed; the next refresh is a
	// probe that closes the breaker on success or reopens it.
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
}

// breaker is the upstream circuit breaker. It runs on the mirror's
// period clock and is mutated under the mirror's lock.
type breaker struct {
	threshold int     // consecutive failures to open; <0 disables
	cooldown  float64 // periods open before half-open
	state     BreakerState
	fails     int     // consecutive failures while closed
	openedAt  float64 // period the breaker last opened
	trips     int     // lifetime open transitions
}

// allow reports whether a refresh may be attempted at time now,
// transitioning open → half-open when the cooldown has elapsed.
func (b *breaker) allow(now float64) bool {
	if b.threshold < 0 {
		return true
	}
	switch b.state {
	case BreakerOpen:
		if now-b.openedAt >= b.cooldown {
			b.state = BreakerHalfOpen
			return true
		}
		return false
	default:
		return true
	}
}

// record feeds one refresh outcome into the breaker.
func (b *breaker) record(ok bool, now float64) {
	if b.threshold < 0 {
		return
	}
	if ok {
		b.fails = 0
		b.state = BreakerClosed
		return
	}
	if b.state == BreakerHalfOpen {
		// The probe failed: straight back to open, fresh cooldown.
		b.state = BreakerOpen
		b.openedAt = now
		b.trips++
		return
	}
	b.fails++
	if b.fails >= b.threshold && b.state == BreakerClosed {
		b.state = BreakerOpen
		b.openedAt = now
		b.trips++
	}
}

// elemHealth is a failing element's fault-tracking state (see Mirror.health).
type elemHealth struct {
	consecFails   int
	quarantined   bool
	quarantinedAt float64
	lastProbe     float64
}
