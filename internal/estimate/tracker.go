package estimate

import (
	"fmt"
	"math"

	"freshen/internal/stats"
)

// Tracker accumulates full poll histories for every element and
// produces per-element change-rate estimates by re-solving the exact
// batch MLE. Its state grows with every poll, so no live mirror runs
// it: it is the accuracy baseline the ground-truth and cold-start
// comparisons hold the O(1)-state online MLE against.
type Tracker struct {
	histories [][]Poll
	params    Params
}

// SetParams configures the tracker's prior, floor and cap (see
// Params). The zero value keeps the historical behavior: no floor, so
// a zero-change history reports λ̂ = 0.
func (t *Tracker) SetParams(p Params) { t.params = p.withDefaults() }

// NewTracker creates a tracker for n elements.
func NewTracker(n int) (*Tracker, error) {
	if n <= 0 {
		return nil, fmt.Errorf("estimate: tracker needs at least one element, got %d", n)
	}
	return &Tracker{histories: make([][]Poll, n)}, nil
}

// Record adds one poll outcome for an element.
func (t *Tracker) Record(element int, elapsed float64, changed bool) error {
	if element < 0 || element >= len(t.histories) {
		return fmt.Errorf("estimate: element %d outside [0, %d)", element, len(t.histories))
	}
	if !(elapsed > 0) {
		return fmt.Errorf("estimate: elapsed time must be positive, got %v", elapsed)
	}
	t.histories[element] = append(t.histories[element], Poll{Elapsed: elapsed, Changed: changed})
	return nil
}

// Kind names the tracker's estimator family: the full-history batch
// MLE, re-solved exactly at every learn pass.
func (t *Tracker) Kind() string { return KindHistory }

// Elements returns the catalog size the tracker covers.
func (t *Tracker) Elements() int { return len(t.histories) }

// Observe folds in one censored observation (Estimator interface); it
// is Record under the interface's name.
func (t *Tracker) Observe(element int, elapsed float64, changed bool) error {
	return t.Record(element, elapsed, changed)
}

// Estimate returns one element's batch-MLE estimate with a confidence
// measure: the asymptotic standard error 1/√J(λ̂), where J is the
// observed Fisher information Σ τᵢ²(1−qᵢ)/qᵢ of the element's history
// evaluated at the reported (floored) estimate.
func (t *Tracker) Estimate(element int) Estimate {
	if element < 0 || element >= len(t.histories) || len(t.histories[element]) == 0 {
		return Estimate{Lambda: t.params.Prior, StdErr: math.Inf(1)}
	}
	h := t.histories[element]
	est, err := MLE(h)
	if err != nil {
		// Record validated every poll, so this cannot happen; report
		// total uncertainty rather than guessing.
		return Estimate{Lambda: t.params.Prior, StdErr: math.Inf(1)}
	}
	est = t.params.apply(est)
	info := 0.0
	if est > 0 {
		for _, p := range h {
			q := -math.Expm1(-est * p.Elapsed)
			info += p.Elapsed * p.Elapsed * (1 - q) / math.Max(q, qEps)
		}
	}
	stderr := math.Inf(1)
	if info > 0 {
		stderr = 1 / math.Sqrt(info)
	}
	return Estimate{Lambda: est, StdErr: stderr, Polls: len(h)}
}

// Estimates runs MLE per element. Elements with no history get
// fallback (a prior, e.g. the fleet-wide mean change rate); polled
// elements are floored at Params.Floor so a run of no-change polls can
// never starve an element of refresh budget forever.
func (t *Tracker) Estimates(fallback float64) ([]float64, error) {
	out := make([]float64, len(t.histories))
	for i, h := range t.histories {
		if len(h) == 0 {
			out[i] = fallback
			continue
		}
		est, err := MLE(h)
		if err != nil {
			return nil, fmt.Errorf("estimate: element %d: %w", i, err)
		}
		out[i] = t.params.apply(est)
	}
	return out, nil
}

// SimulatePolling generates the poll history a mirror would observe if
// it polled an element with true change rate lambda at the given
// regular interval n times: each poll independently detects a change
// with probability 1 − e^(−λ·I). It is used by tests and by the
// estimation ablation experiment to produce realistic imperfect
// knowledge.
func SimulatePolling(r *stats.RNG, lambda, interval float64, polls int) []Poll {
	q := -math.Expm1(-lambda * interval)
	out := make([]Poll, polls)
	for i := range out {
		out[i] = Poll{Elapsed: interval, Changed: r.Float64() < q}
	}
	return out
}
