package solver

import (
	"bytes"
	"math"
	"testing"

	"freshen/internal/freshness"
	"freshen/internal/testkit"
)

// fuzzProblem decodes raw fuzzer input into a valid-but-extreme
// Problem: elements via testkit's total byte mapping, the budget
// folded onto [1e-9, 1e12]. Every input is a legal solver call, so a
// returned error is itself a finding.
func fuzzProblem(data []byte, rawBandwidth float64, poisson bool) Problem {
	p := Problem{
		Elements:  testkit.FuzzElements(data),
		Bandwidth: testkit.FoldFloat(rawBandwidth, 1e-9, 1e12),
	}
	if poisson {
		p.Policy = freshness.PoissonOrder{}
	}
	return p
}

// FuzzWaterFill asserts that the production solver, on any valid
// problem — change rates, access masses and sizes spanning many orders
// of magnitude — neither panics nor errors, and that every solution it
// returns carries an independent KKT certificate of optimality.
func FuzzWaterFill(f *testing.F) {
	f.Add([]byte{}, 5.0, false)
	f.Add([]byte{0, 0, 0, 0, 0, 0}, 1e-9, true)
	f.Add([]byte{255, 255, 255, 255, 255, 255}, 1e12, false)
	// Two elements at opposite corners of the domain plus a mid one.
	f.Add([]byte{
		0, 0, 255, 255, 0, 0,
		255, 255, 0, 0, 255, 255,
		128, 0, 128, 0, 128, 0,
	}, 3.5, false)
	f.Add([]byte{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120}, 0.125, true)
	// Tied groups: one element repeated, so every cutoff coincides,
	// with budgets below and above the group's total size. The mid
	// element has λ ≈ 1 and s ≈ 1 (group size ≈ 8); the all-zero one
	// sits at the domain's low corner (s = 1e-6, group size 5e-6).
	mid := bytes.Repeat([]byte{128, 0, 128, 0, 128, 0}, 8)
	f.Add(mid, 2.5, false)
	f.Add(mid, 2.5, true)
	f.Add(mid, 50.0, false)
	low := bytes.Repeat([]byte{0, 0, 0, 0, 0, 0}, 5)
	f.Add(low, 1e-6, false)
	f.Add(low, 1e-3, true)
	f.Fuzz(func(t *testing.T, data []byte, rawBandwidth float64, poisson bool) {
		p := fuzzProblem(data, rawBandwidth, poisson)
		sol, err := WaterFill(p)
		if err != nil {
			t.Fatalf("WaterFill rejected a valid problem (B=%v, n=%d): %v",
				p.Bandwidth, len(p.Elements), err)
		}
		if math.IsNaN(sol.Perceived) || sol.Perceived < 0 {
			t.Fatalf("perceived freshness %v", sol.Perceived)
		}
		testkit.MustCertify(t, p.Policy, p.Elements, sol.Freqs, p.Bandwidth, 1e-5)
		// Elements tied on (p, λ, s) are interchangeable, so the optimum
		// gives them one frequency.
		type triple struct{ p, lambda, s float64 }
		first := make(map[triple]int)
		for i, el := range p.Elements {
			k := triple{el.AccessProb, el.Lambda, el.Size}
			if j, ok := first[k]; !ok {
				first[k] = i
			} else if sol.Freqs[i] != sol.Freqs[j] {
				t.Fatalf("tied elements %d and %d got frequencies %v and %v", j, i, sol.Freqs[j], sol.Freqs[i])
			}
		}
	})
}

// FuzzBandwidthForTarget asserts the capacity planner either reports
// the target unreachable or returns a budget that actually attains it,
// with the attaining schedule KKT-certified.
func FuzzBandwidthForTarget(f *testing.F) {
	f.Add([]byte{}, 0.5, false)
	f.Add([]byte{0, 0, 255, 255, 0, 0}, 0.99, true)
	f.Add([]byte{255, 255, 255, 255, 255, 255, 1, 2, 3, 4, 5, 6}, 1e-6, false)
	f.Fuzz(func(t *testing.T, data []byte, rawTarget float64, poisson bool) {
		elems := testkit.FuzzElements(data)
		target := testkit.FoldFloat(rawTarget, 1e-6, 1-1e-6)
		var pol freshness.Policy
		if poisson {
			pol = freshness.PoissonOrder{}
		}
		bw, err := BandwidthForTarget(elems, target, pol)
		if err != nil {
			return // unreachable targets are a documented outcome
		}
		if math.IsNaN(bw) || bw < 0 || math.IsInf(bw, 0) {
			t.Fatalf("planned bandwidth %v", bw)
		}
		sol, err := WaterFill(Problem{Elements: elems, Bandwidth: bw, Policy: pol})
		if err != nil {
			t.Fatalf("re-solving at planned bandwidth %v: %v", bw, err)
		}
		if sol.Perceived < target-1e-9*(1+target) {
			t.Fatalf("planned bandwidth %v reaches PF %v, short of target %v", bw, sol.Perceived, target)
		}
		if bw > 0 {
			testkit.MustCertify(t, pol, elems, sol.Freqs, bw, 1e-5)
		}
	})
}
