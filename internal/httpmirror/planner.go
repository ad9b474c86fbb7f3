package httpmirror

import (
	"freshen/internal/core"
	"freshen/internal/freshness"
	"freshen/internal/schedule"
)

// planner is the mirror's planning state: the live plan and its refresh
// iterator, the explore/exploit bookkeeping that goes with them, and the
// catalog sizes. It keeps no per-object copy of what the mirror knows:
// every solve builds its input afresh from the estimator and the access
// counters (see Mirror.knowledge). It follows the mirror's two-lock
// rule (see Mirror): its fields are written only with both stepMu and
// m.mu held, so install runs under m.mu, while solve, which only
// reads, runs under stepMu alone and never blocks a reader of m.mu.
type planner struct {
	sizes []float64 // catalog sizes, fixed at New
	// plan is the live plan's figures. Its Freqs is nil: the iterator's
	// entries hold the funded elements' frequencies and explore marks,
	// the live plan's only per-object state (see Mirror.Plan).
	plan        core.Plan
	iter        *schedule.Iterator
	iterBase    float64 // mirror clock at the last iterator rebuild
	lastReplan  float64 // mirror clock at the last plan install
	lastCadence float64 // mirror clock at the last cadence solve, which the cadence runs from; stepMu holders only
	replans     int
	exploreBW   float64 // bandwidth the last plan's explore slice used

	// Fixed at New.
	prior       float64 // Config.PriorLambda: unpolled elements' rate, the probe rate
	exploreFrac float64 // Config.ExploreFrac
	seed        int64   // Config.Seed: the iterators' phase seed base
}

func newPlanner(catalog []CatalogEntry, cfg Config) *planner {
	p := &planner{
		sizes:       make([]float64, len(catalog)),
		prior:       cfg.PriorLambda,
		exploreFrac: cfg.ExploreFrac,
		seed:        cfg.Seed,
	}
	for i, e := range catalog {
		p.sizes[i] = e.Size
	}
	return p
}

// knowledge builds what the mirror knows about every element, in the
// solver's input form: the estimator's change rate (floored, or the
// prior while the element is unpolled; see Config.FloorLambda), the
// access profile Laplace-smoothed over the cumulative access counters,
// and the catalog size. Reads keep counting while it runs, so each
// counter is loaded once and the profile sums to one over the counts
// loaded. Skipped and failed polls never reach the estimator, so an
// outage leaves the rates untouched instead of dragging them toward
// zero. The caller holds either lock (see Mirror).
func (m *Mirror) knowledge() []freshness.Element {
	elems := make([]freshness.Element, len(m.pl.sizes))
	total := profileSmoothing * float64(len(elems))
	for i := range elems {
		c := float64(m.acc.elems[i].Load())
		elems[i] = freshness.Element{ID: i, Lambda: m.est.Estimate(i).Lambda, AccessProb: c, Size: m.pl.sizes[i]}
		total += c
	}
	for i := range elems {
		elems[i].AccessProb = (elems[i].AccessProb + profileSmoothing) / total
	}
	return elems
}

// uncertainty is each element's estimator uncertainty, which the
// explore slice water-fills over. The score is floored at the
// planning-relevant rate scale so elements confidently known to be
// near-static release their probe share (see
// estimate.Estimate.UncertaintyAt). The caller holds either lock.
func (m *Mirror) uncertainty() []float64 {
	u := make([]float64, len(m.pl.sizes))
	for i := range u {
		u[i] = m.est.Estimate(i).UncertaintyAt(m.pl.prior / 10)
	}
	return u
}

// solved is one solve's output: built under stepMu alone, made live by
// install under m.mu. Its plan carries the dense frequency vector the
// iterator was built on, which install drops.
type solved struct {
	plan       core.Plan
	iter       *schedule.Iterator
	exploreBW  float64
	lambdaMean float64
}

// solve computes a plan and its refresh iterator from the element
// knowledge elems, and, with ExploreFrac > 0, the uncertainty u, under
// the plan config cfg. The quarantined elements, whose ids quarantined
// lists in ascending order, are excluded from the optimization — their
// budget share water-fills back across the healthy elements — and
// re-enter on the solve after recovery. With ExploreFrac > 0 the budget
// splits: f·ū·B is water-filled on estimator uncertainty (explore, see
// schedule.AllocateExplore), where ū is the catalog's mean uncertainty,
// and the rest is water-filled on the learned rates as usual (exploit);
// both frequency vectors merge into one iterator, which marks the
// elements only the explore slice funds. solve only reads shared
// state, so the caller needs just one of the two locks; the mirror
// holds stepMu alone.
func (p *planner) solve(cfg core.Config, elems []freshness.Element, u []float64, quarantined []int) (solved, error) {
	var s solved
	var exploreOnly []bool
	for i := range elems {
		s.lambdaMean += elems[i].Lambda
	}
	s.lambdaMean /= float64(len(elems))
	active := activeElems(elems, quarantined)
	var exploreBudget float64
	if p.exploreFrac > 0 {
		// The explore slice anneals with mean uncertainty: a cold mirror
		// (all uncertainty 1) spends the full configured fraction
		// probing; as the estimator converges the slice shrinks and its
		// bandwidth flows back to exploitation, so a warm mirror pays
		// almost no probe tax.
		var meanU float64
		for _, x := range u {
			meanU += x
		}
		meanU /= float64(len(u))
		exploreBudget = cfg.Bandwidth * p.exploreFrac * meanU
	}
	if len(active) == 0 {
		// Everything is quarantined: an empty plan; the mirror keeps
		// serving stale copies and probing for recovery.
		s.plan = core.Plan{Freqs: make([]float64, len(elems))}
	} else {
		exploit := cfg
		exploit.Bandwidth -= exploreBudget
		plan, err := core.MakePlan(active, exploit)
		if err != nil {
			return solved{}, err
		}
		if len(quarantined) > 0 {
			// Expand the active-subset frequencies back over the full
			// index space (zero for quarantined elements).
			full := make([]float64, len(elems))
			forActive(len(elems), quarantined, func(i, j int) { full[i] = plan.Freqs[j] })
			plan.Freqs = full
		}
		s.plan = plan
		if exploreBudget > 0 {
			var err error
			if exploreOnly, err = p.mergeExplore(&s, cfg.Policy, elems, active, u, quarantined, exploreBudget); err != nil {
				return solved{}, err
			}
		}
	}
	iter, err := schedule.NewIterator(s.plan.Freqs, true, p.seed+int64(p.replans))
	if err != nil {
		return solved{}, err
	}
	if exploreOnly != nil {
		iter.MarkExplore(exploreOnly)
	}
	s.iter = iter
	return s, nil
}

// mergeExplore water-fills the explore slice over the active elements'
// uncertainty and folds the probe frequencies into the solve's plan:
// frequencies add, bandwidth adds, and the plan's quality metrics are
// recomputed at the combined allocation over the full catalog elems.
// It returns which elements only the explore slice funds: their
// refreshes count as uncertainty probes.
func (p *planner) mergeExplore(s *solved, pol freshness.Policy, elems, active []freshness.Element, u []float64, quarantined []int, budget float64) ([]bool, error) {
	activeU := make([]float64, 0, len(active))
	forActive(len(elems), quarantined, func(i, _ int) {
		activeU = append(activeU, u[i])
	})
	exFreqs, exUsed, err := schedule.AllocateExplore(active, activeU, p.prior, budget)
	if err != nil {
		return nil, err
	}
	exploreOnly := make([]bool, len(elems))
	forActive(len(elems), quarantined, func(i, j int) {
		if exFreqs[j] > 0 && s.plan.Freqs[i] == 0 {
			exploreOnly[i] = true
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
	if pf, err := freshness.Perceived(pol, elems, s.plan.Freqs); err == nil {
		s.plan.Perceived = pf
	}
	if af, err := freshness.Average(pol, elems, s.plan.Freqs); err == nil {
		s.plan.AvgFreshness = af
	}
	return exploreOnly, nil
}

// activeElems is elems without the elements whose ids the ascending
// list quarantined holds: the elements a solve schedules. It is elems
// itself when nothing is quarantined.
func activeElems(elems []freshness.Element, quarantined []int) []freshness.Element {
	if len(quarantined) == 0 {
		return elems
	}
	active := make([]freshness.Element, 0, len(elems)-len(quarantined))
	forActive(len(elems), quarantined, func(i, _ int) {
		active = append(active, elems[i])
	})
	return active
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
// starts at now. The dense frequency vector is dropped: the iterator
// holds each funded element's frequency. The caller holds both locks.
func (p *planner) install(s solved, now float64) {
	p.plan = s.plan
	p.plan.Freqs = nil
	p.iter = s.iter
	p.exploreBW = s.exploreBW
	p.iterBase = now
	p.lastReplan = now
	p.replans++
}
