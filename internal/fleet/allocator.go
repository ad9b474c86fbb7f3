package fleet

import (
	"fmt"
	"math"

	"freshen/internal/freshness"
	"freshen/internal/httpmirror"
	"freshen/internal/solver"
	"freshen/internal/testkit"
)

// Allocation is one leveling of the global budget across shards.
type Allocation struct {
	// Budget is the global refresh budget the allocation divides.
	Budget float64
	// Slices is the per-shard budget; exactly 0 for unhealthy shards
	// and Σ Slices == Budget whenever any shard is healthy (budget
	// conservation is an invariant, certified below).
	Slices []float64
	// Healthy records which shards participated.
	Healthy []bool
	// Weights is each healthy shard's traffic share, the factor its
	// local profile was scaled by in the pooled program.
	Weights []float64
	// Perceived is the pooled program's optimal perceived freshness —
	// the fleet-wide PF this allocation funds, under current learned
	// rates and profiles.
	Perceived float64
	// Cert is the KKT certificate of the pooled solution.
	Cert testkit.Certificate
}

// Conserved checks Σ Slices == Budget within a relative tolerance,
// with every slice finite and non-negative.
func (a Allocation) Conserved(tol float64) error {
	total := 0.0
	for s, sl := range a.Slices {
		if sl < 0 || math.IsNaN(sl) || math.IsInf(sl, 0) {
			return fmt.Errorf("fleet: shard %d slice %v", s, sl)
		}
		if !a.Healthy[s] && sl != 0 {
			return fmt.Errorf("fleet: unhealthy shard %d holds budget %v", s, sl)
		}
		total += sl
	}
	if diff := math.Abs(total - a.Budget); diff > tol*math.Max(1, a.Budget) {
		return fmt.Errorf("fleet: slices sum to %v, budget is %v", total, a.Budget)
	}
	return nil
}

// Allocate water-fills the global budget across the healthy shards.
//
// The fleet objective is separable: global PF = Σ_k w_k · PF_k, where
// w_k is shard k's share of fleet traffic and PF_k its local
// perceived freshness. Water-filling the budget across shards on
// their marginal-PF curves is therefore exactly one pooled water-fill
// over the union of their elements with each shard's profile scaled
// by w_k — the same concave engine the mirror already runs, one level
// up. The pooled solve equalizes the marginal PF per unit bandwidth
// across every funded element fleet-wide, so no shard can gain more
// from a dollar of budget than any other is getting: the KKT
// conditions of the hierarchical program, certified independently by
// testkit.Certify on every call.
//
// Each shard pools the elements its own solve schedules
// (Mirror.Scheduled): a quarantined object is left out, as the shard's
// solve leaves it out, so its share of the budget goes where the shard
// will spend it instead of inflating the shard's slice.
//
// Traffic shares come from the caller's per-shard traffic counts
// (each shard's learned profile sums to ~1 locally, so pooling
// without reweighting would treat a shard serving 1% of traffic as
// equal to one serving 99%). The fleet supervisor passes windowed
// access deltas with one Laplace pseudo-count per owned object —
// NOT lifetime counts, which reset when a shard restarts and would
// starve a recovering shard's keyspace against survivors that kept
// counting through the outage.
//
// Unhealthy shards contribute nothing and receive 0: their slice
// flows to the survivors in the same solve. Slices sum to Budget
// exactly — the float residual of the per-element summation lands on
// the largest slice.
func Allocate(mirrors []*httpmirror.Mirror, healthy []bool, traffic []float64, budget float64, pol freshness.Policy, tol float64) (Allocation, error) {
	if len(mirrors) != len(healthy) {
		return Allocation{}, fmt.Errorf("fleet: %d mirrors, %d health flags", len(mirrors), len(healthy))
	}
	if len(traffic) != len(mirrors) {
		return Allocation{}, fmt.Errorf("fleet: %d mirrors, %d traffic counts", len(mirrors), len(traffic))
	}
	if budget <= 0 || math.IsNaN(budget) || math.IsInf(budget, 0) {
		return Allocation{}, fmt.Errorf("fleet: global budget must be positive and finite, got %v", budget)
	}
	if tol <= 0 {
		tol = certifyTol
	}
	a := Allocation{
		Budget:  budget,
		Slices:  make([]float64, len(mirrors)),
		Healthy: make([]bool, len(mirrors)),
		Weights: make([]float64, len(mirrors)),
	}
	type shardView struct {
		shard int
		elems []freshness.Element
		acc   float64
	}
	var views []shardView
	totalAcc := 0.0
	for s, m := range mirrors {
		if !healthy[s] || m == nil {
			continue
		}
		if t := traffic[s]; t <= 0 || math.IsNaN(t) || math.IsInf(t, 0) {
			return a, fmt.Errorf("fleet: healthy shard %d traffic count must be positive and finite, got %v", s, traffic[s])
		}
		a.Healthy[s] = true
		v := shardView{shard: s, elems: m.Scheduled(), acc: traffic[s]}
		totalAcc += v.acc
		views = append(views, v)
	}
	if len(views) == 0 {
		return a, fmt.Errorf("fleet: no healthy shards to allocate %v to", budget)
	}

	var pooled []freshness.Element
	bounds := make([]int, 0, len(views)+1) // pooled index range per view
	bounds = append(bounds, 0)
	for _, v := range views {
		w := v.acc / totalAcc
		a.Weights[v.shard] = w
		for _, e := range v.elems {
			e.ID = len(pooled)
			e.AccessProb *= w
			pooled = append(pooled, e)
		}
		bounds = append(bounds, len(pooled))
	}

	sol, err := solver.NewEngine().WaterFill(solver.Problem{
		Elements:  pooled,
		Bandwidth: budget,
		Policy:    pol,
	})
	if err != nil {
		return a, fmt.Errorf("fleet: pooled water-fill: %w", err)
	}
	a.Perceived = sol.Perceived

	for i, v := range views {
		slice := 0.0
		for j := bounds[i]; j < bounds[i+1]; j++ {
			slice += pooled[j].Size * sol.Freqs[j]
		}
		a.Slices[v.shard] = slice
	}
	// Exact conservation: the pooled solve exhausts the budget (every
	// element has positive marginal value), but per-shard summation
	// re-accumulates it in a different order. The residual is float
	// noise; it lands on the largest slice so Σ Slices == Budget holds
	// to the last bit the largest slice can absorb.
	total, largest := 0.0, views[0].shard
	for _, v := range views {
		total += a.Slices[v.shard]
		if a.Slices[v.shard] > a.Slices[largest] {
			largest = v.shard
		}
	}
	a.Slices[largest] += budget - total

	cert, err := testkit.Certify(pol, pooled, sol.Freqs, budget, tol)
	a.Cert = cert
	if err != nil {
		return a, fmt.Errorf("fleet: pooled allocation failed certification: %w", err)
	}
	if err := a.Conserved(tol); err != nil {
		return a, err
	}
	return a, nil
}
