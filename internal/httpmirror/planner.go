package httpmirror

import (
	"fmt"
	"sync/atomic"

	"freshen/internal/core"
	"freshen/internal/estimate"
	"freshen/internal/freshness"
	"freshen/internal/persist"
	"freshen/internal/schedule"
)

// planner is the mirror's planning state: the element knowledge the
// solver reads (learned change rates and access profile, catalog
// sizes), the live plan and its refresh iterator, and the
// explore/exploit bookkeeping that goes with them. It follows the
// mirror's two-lock rule (see Mirror): its fields are written only
// with both stepMu and m.mu held, so learn's write pass and install
// run under m.mu, while solve, which only reads, runs under stepMu
// alone and never blocks a reader of m.mu.
type planner struct {
	elems      []freshness.Element
	plan       core.Plan
	iter       *schedule.Iterator
	iterBase   float64 // mirror clock at the last iterator rebuild
	lastReplan float64 // mirror clock at the last plan install
	lastLearn  float64 // mirror clock at the last learn pass; the replan cadence runs from it
	replans    int

	// Explore/exploit state: uncertainty holds each element's estimator
	// uncertainty as of the last learn pass (nil when ExploreFrac is 0);
	// exploreOnly marks elements funded only by the explore slice, whose
	// refreshes count as uncertainty probes (nil when the plan has no
	// explore slice).
	uncertainty []float64
	exploreOnly []bool
	exploreBW   float64 // bandwidth the last plan's explore slice used

	// Fixed at New.
	prior       float64 // Config.PriorLambda: unpolled elements' rate, the probe rate
	exploreFrac float64 // Config.ExploreFrac
	seed        int64   // Config.Seed: the iterators' phase seed base
}

func newPlanner(n int, cfg Config) *planner {
	p := &planner{
		elems:       make([]freshness.Element, n),
		prior:       cfg.PriorLambda,
		exploreFrac: cfg.ExploreFrac,
		seed:        cfg.Seed,
	}
	if p.exploreFrac > 0 {
		p.uncertainty = make([]float64, n)
		for i := range p.uncertainty {
			p.uncertainty[i] = 1
		}
	}
	return p
}

// solved is one solve's output: built under stepMu alone, made live by
// install under m.mu.
type solved struct {
	plan        core.Plan
	iter        *schedule.Iterator
	exploreOnly []bool
	exploreBW   float64
}

// learn folds the cumulative access counts and the estimator's change
// rates (nil leaves them untouched) into the element knowledge the
// next solve reads. The caller holds both locks.
func (p *planner) learn(accesses []atomic.Uint64, rates []float64, est estimate.Estimator, now float64) {
	// Profile: Laplace-smoothed access counts. Reads keep counting
	// during the pass, so each counter is loaded once, into AccessProb,
	// and the profile sums to one over the counts loaded.
	total := profileSmoothing * float64(len(p.elems))
	for i := range p.elems {
		c := float64(accesses[i].Load())
		p.elems[i].AccessProb = c
		total += c
	}
	for i := range p.elems {
		p.elems[i].AccessProb = (p.elems[i].AccessProb + profileSmoothing) / total
	}
	for i, l := range rates {
		p.elems[i].Lambda = l
	}
	// Uncertainty drives the explore slice, so it is computed only when
	// a probe budget actually consumes it. The score is floored at the
	// planning-relevant rate scale so elements confidently known to be
	// near-static release their probe share (see
	// estimate.Estimate.UncertaintyAt).
	if p.exploreFrac > 0 {
		for i := range p.uncertainty {
			p.uncertainty[i] = est.Estimate(i).UncertaintyAt(p.prior / 10)
		}
	}
	p.lastLearn = now
}

// solve computes a plan and its refresh iterator from the element
// knowledge under the plan config cfg. The quarantined elements, whose
// ids quarantined lists in ascending order, are excluded from the
// optimization — their budget share water-fills back across the
// healthy elements — and re-enter on the solve after recovery. With
// ExploreFrac > 0 the budget splits: f·ū·B is water-filled on
// estimator uncertainty (explore, see schedule.AllocateExplore), where
// ū is the catalog's mean uncertainty, and the rest is water-filled on
// the learned rates as usual (exploit); both frequency vectors merge
// into one iterator. solve only reads shared state, so the caller
// needs just one of the two locks; the mirror holds stepMu alone.
func (p *planner) solve(cfg core.Config, quarantined []int) (solved, error) {
	active := p.elems
	if len(quarantined) > 0 {
		active = make([]freshness.Element, 0, len(p.elems)-len(quarantined))
		forActive(len(p.elems), quarantined, func(i, _ int) {
			active = append(active, p.elems[i])
		})
	}
	var exploreBudget float64
	if p.exploreFrac > 0 {
		// The explore slice anneals with mean uncertainty: a cold mirror
		// (all uncertainty 1) spends the full configured fraction
		// probing; as the estimator converges the slice shrinks and its
		// bandwidth flows back to exploitation, so a warm mirror pays
		// almost no probe tax.
		var meanU float64
		for _, u := range p.uncertainty {
			meanU += u
		}
		meanU /= float64(len(p.uncertainty))
		exploreBudget = cfg.Bandwidth * p.exploreFrac * meanU
	}
	var s solved
	if len(active) == 0 {
		// Everything is quarantined: an empty plan; the mirror keeps
		// serving stale copies and probing for recovery.
		s.plan = core.Plan{Freqs: make([]float64, len(p.elems)), Strategy: cfg.Strategy}
	} else {
		exploit := cfg
		exploit.Bandwidth -= exploreBudget
		if exploit.NumPartitions > len(active) {
			exploit.NumPartitions = len(active)
		}
		plan, err := core.MakePlan(active, exploit)
		if err != nil {
			return solved{}, err
		}
		if len(quarantined) > 0 {
			// Expand the active-subset frequencies back over the full
			// index space (zero for quarantined elements).
			full := make([]float64, len(p.elems))
			forActive(len(p.elems), quarantined, func(i, j int) { full[i] = plan.Freqs[j] })
			plan.Freqs = full
		}
		s.plan = plan
		if exploreBudget > 0 {
			if err := p.mergeExplore(&s, cfg.Policy, active, quarantined, exploreBudget); err != nil {
				return solved{}, err
			}
		}
	}
	iter, err := schedule.NewIterator(s.plan.Freqs, true, p.seed+int64(p.replans))
	if err != nil {
		return solved{}, err
	}
	s.iter = iter
	return s, nil
}

// mergeExplore water-fills the explore slice over the active elements'
// uncertainty and folds the probe frequencies into the solve's plan:
// frequencies add, bandwidth adds, and the plan's quality metrics are
// recomputed at the combined allocation over the full catalog.
// Elements funded only by the explore slice are marked so their
// refreshes count as uncertainty probes.
func (p *planner) mergeExplore(s *solved, pol freshness.Policy, active []freshness.Element, quarantined []int, budget float64) error {
	activeU := make([]float64, 0, len(active))
	forActive(len(p.elems), quarantined, func(i, _ int) {
		activeU = append(activeU, p.uncertainty[i])
	})
	exFreqs, exUsed, err := schedule.AllocateExplore(active, activeU, p.prior, budget)
	if err != nil {
		return err
	}
	s.exploreOnly = make([]bool, len(p.elems))
	forActive(len(p.elems), quarantined, func(i, j int) {
		if exFreqs[j] > 0 && s.plan.Freqs[i] == 0 {
			s.exploreOnly[i] = true
		}
		s.plan.Freqs[i] += exFreqs[j]
	})
	s.plan.BandwidthUsed += exUsed
	s.exploreBW = exUsed
	if pol == nil {
		pol = freshness.FixedOrder{}
	}
	// Quality metrics at the combined allocation; failures here would
	// mean invalid frequencies, which the allocators never produce.
	if pf, err := freshness.Perceived(pol, p.elems, s.plan.Freqs); err == nil {
		s.plan.Perceived = pf
	}
	if af, err := freshness.Average(pol, p.elems, s.plan.Freqs); err == nil {
		s.plan.AvgFreshness = af
	}
	return nil
}

// forActive calls f(i, j) for the j-th of the elements 0..n-1 not in
// the ascending list skip, i being its index.
func forActive(n int, skip []int, f func(i, j int)) {
	j := 0
	for i := 0; i < n; i++ {
		if len(skip) > 0 && skip[0] == i {
			skip = skip[1:]
			continue
		}
		f(i, j)
		j++
	}
}

// install makes a solve's output the live plan; its iterator's clock
// starts at now. The caller holds both locks.
func (p *planner) install(s solved, now float64) {
	p.plan = s.plan
	p.iter = s.iter
	p.exploreOnly = s.exploreOnly
	p.exploreBW = s.exploreBW
	p.iterBase = now
	p.lastReplan = now
	p.replans++
}

// restore warm-starts the schedule from a persisted plan: the iterator
// resumes the pre-crash frequency vector immediately, so a recovered
// mirror refreshes on its learned cadence from the first period
// instead of re-solving from scratch. The next cadence replan refines
// it against the replayed observations. New calls it before the mirror
// is shared.
func (p *planner) restore(ps persist.PlanState, cfg core.Config, now float64) error {
	if len(ps.Freqs) != len(p.elems) {
		return fmt.Errorf("httpmirror: restored plan has %d frequencies for %d elements", len(ps.Freqs), len(p.elems))
	}
	// The iterator keeps the vector it is built on, so it is built on
	// the plan's own copy, not on the recovered snapshot's.
	freqs := append([]float64(nil), ps.Freqs...)
	iter, err := schedule.NewIterator(freqs, true, p.seed+int64(p.replans))
	if err != nil {
		return err
	}
	p.install(solved{
		plan: core.Plan{
			Freqs:         freqs,
			Perceived:     ps.Perceived,
			AvgFreshness:  ps.AvgFreshness,
			BandwidthUsed: ps.BandwidthUsed,
			Strategy:      cfg.Strategy,
			NumPartitions: cfg.NumPartitions,
		},
		iter: iter,
	}, now)
	return nil
}

// exploreProbe reports whether a refresh of element id is an
// uncertainty probe: the element is funded only by the explore slice.
func (p *planner) exploreProbe(id int) bool {
	return p.exploreOnly != nil && p.exploreOnly[id]
}
