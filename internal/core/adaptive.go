package core

import (
	"fmt"

	"freshen/internal/freshness"
	"freshen/internal/profile"
)

// AdaptivePlanner keeps a mirror's plan aligned with a shifting user
// community. It holds the current plan, watches the live access
// stream through a profile drift monitor, and re-plans — with the
// observed empirical profile — when the drift crosses the configured
// threshold. This is the operational loop behind the paper's remark
// that large mirrors "need to periodically solve the Core Problem";
// re-solving on observed drift spends that planning cost only when
// interests actually moved.
type AdaptivePlanner struct {
	elems    []freshness.Element
	cfg      Config
	monitor  *profile.Monitor
	plan     Plan
	replans  int
	minCount int
	thresh   float64
}

// NewAdaptivePlanner plans once for the elements' current profile and
// arms the drift monitor. threshold is the total-variation drift that
// triggers a re-plan; minAccesses guards against reacting to noise.
func NewAdaptivePlanner(elems []freshness.Element, cfg Config, threshold float64, minAccesses int) (*AdaptivePlanner, error) {
	if err := freshness.ValidateElements(elems); err != nil {
		return nil, err
	}
	own := append([]freshness.Element(nil), elems...)
	plan, err := MakePlan(own, cfg)
	if err != nil {
		return nil, err
	}
	baseline := make([]float64, len(own))
	for i, e := range own {
		baseline[i] = e.AccessProb
	}
	mon, err := profile.NewMonitor(baseline, threshold, minAccesses)
	if err != nil {
		return nil, err
	}
	return &AdaptivePlanner{
		elems:    own,
		cfg:      cfg,
		monitor:  mon,
		plan:     plan,
		minCount: minAccesses,
		thresh:   threshold,
	}, nil
}

// Plan returns the current plan.
func (a *AdaptivePlanner) Plan() Plan { return a.plan }

// Replans returns how many times the planner has re-solved.
func (a *AdaptivePlanner) Replans() int { return a.replans }

// Observe feeds one access. When the observed profile has drifted past
// the threshold the planner re-solves against the empirical profile,
// re-baselines the monitor, and reports replanned = true.
func (a *AdaptivePlanner) Observe(element int) (replanned bool, err error) {
	drifted, err := a.monitor.Observe(element)
	if err != nil {
		return false, err
	}
	if !drifted {
		return false, nil
	}
	emp := a.monitor.Empirical()
	if emp == nil {
		return false, fmt.Errorf("core: drift signalled without observations")
	}
	for i := range a.elems {
		a.elems[i].AccessProb = emp[i]
	}
	plan, err := MakePlan(a.elems, a.cfg)
	if err != nil {
		return false, err
	}
	a.plan = plan
	a.replans++
	if err := a.monitor.Reset(emp); err != nil {
		return false, err
	}
	return true, nil
}

// UpdateChangeRates installs fresh change-rate estimates (for example
// an estimate.Estimator's Estimates) and re-plans immediately.
func (a *AdaptivePlanner) UpdateChangeRates(lambdas []float64) error {
	if len(lambdas) != len(a.elems) {
		return fmt.Errorf("core: %d change rates for %d elements", len(lambdas), len(a.elems))
	}
	for i, l := range lambdas {
		if l < 0 {
			return fmt.Errorf("core: element %d has negative change rate %v", i, l)
		}
		a.elems[i].Lambda = l
	}
	plan, err := MakePlan(a.elems, a.cfg)
	if err != nil {
		return err
	}
	a.plan = plan
	a.replans++
	return nil
}
