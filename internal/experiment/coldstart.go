package experiment

import (
	"fmt"
	"math"

	"freshen/internal/estimate"
	"freshen/internal/freshness"
	"freshen/internal/schedule"
	"freshen/internal/solver"
	"freshen/internal/stats"
	"freshen/internal/workload"
)

// ColdStartOptions tunes the cold-start convergence benchmark. Zero
// values pick the standard configuration.
type ColdStartOptions struct {
	// N is the catalog size (0 means 200).
	N int
	// Bandwidth is the refresh budget per period (0 means N/4).
	Bandwidth float64
	// Periods is the horizon (0 means 500).
	Periods int
	// ReplanEvery is the learn-and-replan cadence in periods (0 means 2).
	ReplanEvery int
	// ExploreFrac is the probe slice used by the "+explore" policy
	// (0 means 0.2).
	ExploreFrac float64
	// Prior is the change-rate prior every estimator starts from
	// (0 means 1).
	Prior float64
	// MeanLambda is the workload's mean change rate (0 means 0.3).
	MeanLambda float64
	// LambdaStdDev is the change-rate spread (0 means 0.9).
	LambdaStdDev float64
	// Seed fixes the workload and the change streams.
	Seed int64
}

func (o ColdStartOptions) withDefaults() ColdStartOptions {
	if o.N == 0 {
		o.N = 200
	}
	if o.Bandwidth == 0 {
		o.Bandwidth = float64(o.N) / 4
	}
	if o.Periods == 0 {
		o.Periods = 500
	}
	if o.ReplanEvery == 0 {
		o.ReplanEvery = 2
	}
	if o.ExploreFrac == 0 {
		o.ExploreFrac = 0.2
	}
	if o.Prior == 0 {
		o.Prior = 1
	}
	if o.MeanLambda == 0 {
		o.MeanLambda = 0.3
	}
	if o.LambdaStdDev == 0 {
		o.LambdaStdDev = 0.9
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// ColdStartTrajectory is one estimation policy's convergence record:
// the perceived freshness its evolving plan would actually deliver
// (evaluated at the TRUE change rates it never sees), period by
// period from a cold start.
type ColdStartTrajectory struct {
	// Name identifies the policy ("naive", "mle+explore", …).
	Name string `json:"name"`
	// PF is the per-period perceived freshness of the live plan at the
	// true rates.
	PF []float64 `json:"pf_trajectory"`
	// PeriodsTo99 is the first period whose plan reaches 99% of the
	// converged optimum; -1 if the horizon ends first.
	PeriodsTo99 int `json:"periods_to_99"`
	// FinalRelErr is the mean relative λ̂ error at the horizon.
	FinalRelErr float64 `json:"final_rel_err"`
}

// ColdStartResult is the benchmark output, shaped for the cold_start
// section of BENCH_obs.json.
type ColdStartResult struct {
	N           int                   `json:"n"`
	Bandwidth   float64               `json:"bandwidth"`
	Periods     int                   `json:"periods"`
	ReplanEvery int                   `json:"replan_every"`
	ExploreFrac float64               `json:"explore_frac"`
	Seed        int64                 `json:"seed"`
	ConvergedPF float64               `json:"converged_pf"`
	TargetPF    float64               `json:"target_pf"`
	Policies    []ColdStartTrajectory `json:"policies"`
}

// RunColdStart measures how fast each change-rate estimation policy
// steers a cold mirror onto the optimal plan. Every policy starts
// knowing only the prior, polls what its own plan funds (a poll's
// change/no-change outcome is drawn from the element's true Poisson
// process over the real elapsed time — the censored feedback loop a
// live mirror experiences), re-learns and re-plans on cadence, and is
// scored by the perceived freshness its plan would deliver at the TRUE
// rates. The ruler is the converged optimum: the water-filled plan
// computed directly from the truth.
//
// The loop is deterministic: one seeded stream per policy, no wall
// clock, so the trajectories are reproducible run to run.
func RunColdStart(opts ColdStartOptions) (ColdStartResult, error) {
	opts = opts.withDefaults()
	spec := workload.TableTwo()
	spec.NumObjects = opts.N
	spec.UpdatesPerPeriod = opts.MeanLambda * float64(opts.N)
	spec.SyncsPerPeriod = opts.Bandwidth
	spec.Theta = 1.0
	spec.UpdateStdDev = opts.LambdaStdDev
	spec.Seed = opts.Seed
	elems, err := workload.Generate(spec)
	if err != nil {
		return ColdStartResult{}, err
	}

	sol, err := solver.WaterFill(solver.Problem{Elements: elems, Bandwidth: opts.Bandwidth})
	if err != nil {
		return ColdStartResult{}, err
	}
	converged, err := freshness.Perceived(freshness.FixedOrder{}, elems, sol.Freqs)
	if err != nil {
		return ColdStartResult{}, err
	}

	res := ColdStartResult{
		N:           opts.N,
		Bandwidth:   opts.Bandwidth,
		Periods:     opts.Periods,
		ReplanEvery: opts.ReplanEvery,
		ExploreFrac: opts.ExploreFrac,
		Seed:        opts.Seed,
		ConvergedPF: converged,
		TargetPF:    0.99 * converged,
	}
	policies := []struct {
		name    string
		kind    string
		explore float64
	}{
		{"naive", estimate.KindNaive, 0},
		{"history", estimate.KindHistory, 0},
		{"mle", estimate.KindMLE, 0},
		{"mle+explore", estimate.KindMLE, opts.ExploreFrac},
	}
	for _, p := range policies {
		tr, err := runColdStartPolicy(elems, opts, p.name, p.kind, p.explore, res.TargetPF)
		if err != nil {
			return ColdStartResult{}, fmt.Errorf("policy %s: %w", p.name, err)
		}
		res.Policies = append(res.Policies, tr)
	}
	return res, nil
}

// runColdStartPolicy drives one policy through the poll → estimate →
// replan loop. Poll opportunities accrue as fractional credit — an
// element planned at frequency f earns f polls per period and is
// actually polled each time the credit crosses a whole number, at
// evenly spaced instants within the period — so low-frequency elements
// poll every 1/f periods with the true long elapsed gap, exactly the
// censoring regime that separates the estimators.
func runColdStartPolicy(elems []freshness.Element, opts ColdStartOptions, name, kind string, exploreFrac float64, target float64) (ColdStartTrajectory, error) {
	n := len(elems)
	// The floor is each policy's probe-keeping channel. Without explore
	// it must be large enough that "believed static" elements still get
	// occasional budget (prior/100); with the explore slice doing that
	// job on uncertainty, the floor can sit far lower, so near-static
	// elements stop soaking up exploit bandwidth (the water-fill funds
	// small rates first — marginal value ~ p/λ̂).
	floor := opts.Prior / 100
	if exploreFrac > 0 {
		floor = opts.Prior / 1e4
	}
	est, err := estimate.New(kind, n, estimate.Params{Prior: opts.Prior, Floor: floor})
	if err != nil {
		return ColdStartTrajectory{}, err
	}
	r := stats.NewRNG(opts.Seed + 7)
	lastPoll := make([]float64, n)
	credit := make([]float64, n)
	believed := make([]freshness.Element, n)
	copy(believed, elems)

	replan := func() ([]float64, error) {
		lambdas, err := est.Estimates(opts.Prior)
		if err != nil {
			return nil, err
		}
		for i := range believed {
			believed[i].Lambda = lambdas[i]
		}
		// The explore slice anneals with mean uncertainty: early on the
		// full fraction probes an unknown catalog; as confidence builds
		// the slice shrinks and its bandwidth flows back to exploitation,
		// so a converged mirror pays almost no probe tax. Uncertainty is
		// scored against the planning-relevant rate floor so elements
		// confidently known to be near-static release their probe share
		// instead of holding the slice open forever.
		uncertainty := make([]float64, n)
		var meanU float64
		for i := range uncertainty {
			uncertainty[i] = est.Estimate(i).UncertaintyAt(opts.Prior / 10)
			meanU += uncertainty[i]
		}
		meanU /= float64(n)
		exploreBudget := opts.Bandwidth * exploreFrac * meanU
		sol, err := solver.WaterFill(solver.Problem{Elements: believed, Bandwidth: opts.Bandwidth - exploreBudget})
		if err != nil {
			return nil, err
		}
		freqs := sol.Freqs
		if exploreBudget > 0 {
			exFreqs, _, err := schedule.AllocateExplore(elems, uncertainty, opts.Prior, exploreBudget)
			if err != nil {
				return nil, err
			}
			for i := range freqs {
				freqs[i] += exFreqs[i]
			}
		}
		return freqs, nil
	}

	// The cold plan: water-filled on the prior alone.
	freqs, err := replan()
	if err != nil {
		return ColdStartTrajectory{}, err
	}

	tr := ColdStartTrajectory{Name: name, PeriodsTo99: -1}
	for t := 1; t <= opts.Periods; t++ {
		for i := range elems {
			credit[i] += freqs[i]
			polls := int(credit[i])
			if polls == 0 {
				continue
			}
			credit[i] -= float64(polls)
			for k := 1; k <= polls; k++ {
				at := float64(t-1) + float64(k)/float64(polls)
				elapsed := at - lastPoll[i]
				if elapsed <= 0 {
					continue
				}
				changed := r.Float64() < -math.Expm1(-elems[i].Lambda*elapsed)
				if err := est.Observe(i, elapsed, changed); err != nil {
					return ColdStartTrajectory{}, err
				}
				lastPoll[i] = at
			}
		}
		pf, err := freshness.Perceived(freshness.FixedOrder{}, elems, freqs)
		if err != nil {
			return ColdStartTrajectory{}, err
		}
		tr.PF = append(tr.PF, pf)
		if tr.PeriodsTo99 < 0 && pf >= target {
			tr.PeriodsTo99 = t
		}
		if t%opts.ReplanEvery == 0 {
			if freqs, err = replan(); err != nil {
				return ColdStartTrajectory{}, err
			}
		}
	}

	// Relative error with the denominator floored: the gamma workload
	// produces essentially-static elements whose true rate is near
	// zero, and dividing by it would let a handful of them swamp the
	// mean no matter what any estimator does.
	var relErr float64
	lambdas, err := est.Estimates(opts.Prior)
	if err != nil {
		return ColdStartTrajectory{}, err
	}
	for i := range elems {
		relErr += math.Abs(lambdas[i]-elems[i].Lambda) / math.Max(elems[i].Lambda, opts.Prior/10)
	}
	tr.FinalRelErr = relErr / float64(n)
	return tr, nil
}
