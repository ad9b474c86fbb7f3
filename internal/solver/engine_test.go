package solver

import (
	"math"
	"sort"
	"testing"

	"freshen/internal/freshness"
	"freshen/internal/stats"
	"freshen/internal/testkit"
)

// TestEngineDeterministicAcrossRuns checks the determinism guarantee:
// for a fixed worker count, solves of the same problem from the same
// starting state are bit-identical regardless of goroutine scheduling,
// because shards are fixed and partial sums reduce in shard order.
// (A *reused* engine may differ in the last couple of ulps — carried
// warm hints land each Newton solve on a slightly different root
// within its 1e-15 tolerance — which TestEngineReuseMatchesFresh
// bounds.) n exceeds the parallel threshold so the worker pool
// actually runs, and `go test -race` exercises it.
func TestEngineDeterministicAcrossRuns(t *testing.T) {
	elems := parityWorkload(11, 2*engineParallelThreshold, true)
	var total float64
	for _, el := range elems {
		total += el.Size
	}
	p := Problem{Elements: elems, Bandwidth: total * 0.4}

	solve := func() Solution {
		t.Helper()
		e := NewEngine()
		e.maxWorkers = 4
		sol, err := e.WaterFill(p)
		if err != nil {
			t.Fatal(err)
		}
		return sol
	}
	first := solve()
	for run := 0; run < 3; run++ {
		again := solve()
		if again.Perceived != first.Perceived || again.BandwidthUsed != first.BandwidthUsed {
			t.Fatalf("run %d: metrics drifted: %v/%v vs %v/%v",
				run, again.Perceived, again.BandwidthUsed, first.Perceived, first.BandwidthUsed)
		}
		for i := range first.Freqs {
			if again.Freqs[i] != first.Freqs[i] {
				t.Fatalf("run %d: element %d frequency drifted: %v vs %v",
					run, i, again.Freqs[i], first.Freqs[i])
			}
		}
	}
}

// TestEngineSerialParallelAgree compares a forced-serial solve against
// a parallel one. Summation order differs between the two, so exact
// bit-identity is not promised across worker counts — but the
// schedules must agree far inside any tolerance downstream code uses.
func TestEngineSerialParallelAgree(t *testing.T) {
	elems := parityWorkload(7, 2*engineParallelThreshold, false)
	p := Problem{Elements: elems, Bandwidth: float64(len(elems)) * 0.3}

	serial := NewEngine()
	serial.maxWorkers = 1
	parallel := NewEngine()
	parallel.maxWorkers = 8

	s, err := serial.WaterFill(p)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := parallel.WaterFill(p)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(s.Perceived - pp.Perceived); d > 1e-12*(1+s.Perceived) {
		t.Errorf("Perceived differs serial vs parallel: %v vs %v", s.Perceived, pp.Perceived)
	}
	for i := range s.Freqs {
		tol := 1e-12 * (1 + s.Freqs[i] + p.Bandwidth/elems[i].Size)
		if d := math.Abs(s.Freqs[i] - pp.Freqs[i]); d > tol {
			t.Errorf("element %d: serial %v vs parallel %v", i, s.Freqs[i], pp.Freqs[i])
		}
	}
}

// TestEngineCutoffPruning verifies the funding-cutoff logic end to
// end: with a tiny budget only the elements whose first sliver of
// bandwidth is most valuable get funded; everything below the final
// multiplier's cutoff stays exactly at zero.
func TestEngineCutoffPruning(t *testing.T) {
	// Cutoff μᵢ* = pᵢ/(λᵢ·sᵢ): element 0 dominates, element 3 is dirt.
	elems := []freshness.Element{
		{ID: 0, Lambda: 1, AccessProb: 0.70, Size: 1},   // cutoff 0.70
		{ID: 1, Lambda: 1, AccessProb: 0.20, Size: 1},   // cutoff 0.20
		{ID: 2, Lambda: 1, AccessProb: 0.08, Size: 1},   // cutoff 0.08
		{ID: 3, Lambda: 10, AccessProb: 0.02, Size: 20}, // cutoff 0.0001
	}
	sol, err := WaterFill(Problem{Elements: elems, Bandwidth: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Freqs[0] <= 0 {
		t.Errorf("dominant element unfunded: %v", sol.Freqs)
	}
	if sol.Multiplier <= elems[3].AccessProb/(elems[3].Lambda*elems[3].Size) {
		t.Fatalf("budget too generous for the test: μ=%v", sol.Multiplier)
	}
	if sol.Freqs[3] != 0 {
		t.Errorf("element below cutoff got bandwidth: %v", sol.Freqs[3])
	}
	if sol.BandwidthUsed > 0.5*(1+1e-12) {
		t.Errorf("budget exceeded: %v", sol.BandwidthUsed)
	}
}

// TestEngineZeroAndDegenerate covers the early-return paths the old
// solver had: zero bandwidth, no valuable elements, empty input.
func TestEngineZeroAndDegenerate(t *testing.T) {
	elems := []freshness.Element{
		{ID: 0, Lambda: 1, AccessProb: 0.5, Size: 1},
		{ID: 1, Lambda: 2, AccessProb: 0.5, Size: 1},
	}
	sol, err := WaterFill(Problem{Elements: elems, Bandwidth: 0})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range sol.Freqs {
		if f != 0 {
			t.Errorf("zero budget but element %d got frequency %v", i, f)
		}
	}

	dead := []freshness.Element{
		{ID: 0, Lambda: 0, AccessProb: 0.5, Size: 1},
		{ID: 1, Lambda: 1, AccessProb: 0, Size: 1},
	}
	sol, err = WaterFill(Problem{Elements: dead, Bandwidth: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range sol.Freqs {
		if f != 0 {
			t.Errorf("valueless element %d got frequency %v", i, f)
		}
	}

	if _, err := WaterFill(Problem{Elements: nil, Bandwidth: 5}); err == nil {
		t.Error("empty problem should be rejected by validation")
	}
}

// TestEngineReuseMatchesFresh runs one engine across a sequence of
// unrelated problems (different sizes, policies, budgets) and checks
// each answer against a fresh pool solve: stale warm-start state or
// scratch from a previous solve must never leak into the next.
func TestEngineReuseMatchesFresh(t *testing.T) {
	e := NewEngine()
	policies := []freshness.Policy{freshness.FixedOrder{}, freshness.PoissonOrder{}, nil}
	for seed := int64(1); seed <= 6; seed++ {
		n := 8 << uint(seed) // 16 … 512
		elems := parityWorkload(seed, n, seed%2 == 0)
		p := Problem{
			Elements:  elems,
			Bandwidth: float64(n) * 0.2,
			Policy:    policies[seed%3],
		}
		reused, err := e.WaterFill(p)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := WaterFill(p)
		if err != nil {
			t.Fatal(err)
		}
		for i := range fresh.Freqs {
			tol := 1e-12 * (1 + fresh.Freqs[i] + p.Bandwidth/elems[i].Size)
			if d := math.Abs(reused.Freqs[i] - fresh.Freqs[i]); d > tol {
				t.Errorf("seed %d element %d: reused %v vs fresh %v", seed, i, reused.Freqs[i], fresh.Freqs[i])
			}
		}
	}
}

// TestEngineSolveAllocs pins the allocation-free property: after the
// first solve warms the buffers, a reused engine allocates only the
// caller-visible Freqs slice (plus at most a rounding allocation or
// two inside evaluate) — nothing per bisection iteration.
func TestEngineSolveAllocs(t *testing.T) {
	elems := parityWorkload(3, 4096, true)
	p := Problem{Elements: elems, Bandwidth: 512}
	e := NewEngine()
	if _, err := e.WaterFill(p); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := e.WaterFill(p); err != nil {
			t.Fatal(err)
		}
	})
	// One alloc for Solution.Freqs; leave headroom for the runtime.
	if allocs > 4 {
		t.Errorf("warm solve allocates %v objects per run; want ≤ 4", allocs)
	}
}

// TestEngineAgeAndBlendReuse exercises the non-water-fill curves
// through one shared engine.
func TestEngineAgeAndBlendReuse(t *testing.T) {
	elems := parityWorkload(5, 64, false)
	p := Problem{Elements: elems, Bandwidth: 16}
	e := NewEngine()

	age1, err := e.MinimizeAge(p)
	if err != nil {
		t.Fatal(err)
	}
	age2, err := MinimizeAge(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range age1.Freqs {
		if d := math.Abs(age1.Freqs[i] - age2.Freqs[i]); d > 1e-9*(1+age2.Freqs[i]) {
			t.Errorf("age element %d: engine %v vs package %v", i, age1.Freqs[i], age2.Freqs[i])
		}
	}

	b1, err := e.Blend(p, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Blend(p, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b1.Freqs {
		if d := math.Abs(b1.Freqs[i] - b2.Freqs[i]); d > 1e-9*(1+b2.Freqs[i]) {
			t.Errorf("blend element %d: engine %v vs package %v", i, b1.Freqs[i], b2.Freqs[i])
		}
	}
}

// tiedCatalog is a mirror's cold catalog under the uniform prior: n
// unit-size elements with λ = 1 and p = 1/n, all tied on one cutoff.
func tiedCatalog(n int) []freshness.Element {
	elems := make([]freshness.Element, n)
	for i := range elems {
		elems[i] = freshness.Element{ID: i, Lambda: 1, AccessProb: 1 / float64(n), Size: 1}
	}
	return elems
}

// learnedCatalog is a unit-size catalog as a mirror learns it over
// periods of 1,000 reads and 500 polls each: the profile is
// Laplace-smoothed Zipf(1) read counts; λ̂ is the prior 1 for unpolled
// elements and, for the 500·periods polled ones, 0.1 with probability
// 0.8, else uniform on [0.05, 0.35].
func learnedCatalog(n, periods int, seed int64) []freshness.Element {
	r := stats.NewRNG(seed)
	cum := make([]float64, n)
	h := 0.0
	for i := range cum {
		h += 1 / float64(i+1)
		cum[i] = h
	}
	counts := make([]float64, n)
	reads := 1000 * periods
	for k := 0; k < reads; k++ {
		counts[sort.SearchFloat64s(cum, r.Float64()*h)]++
	}
	elems := make([]freshness.Element, n)
	for i := range elems {
		p := (counts[i] + 1) / float64(reads+n)
		elems[i] = freshness.Element{ID: i, Lambda: 1, AccessProb: p, Size: 1}
	}
	for _, i := range r.Perm(n)[:min(500*periods, n)] {
		if r.Float64() < 0.8 {
			elems[i].Lambda = 0.1
		} else {
			elems[i].Lambda = 0.05 + 0.3*r.Float64()
		}
	}
	return elems
}

// TestEngineTiedCatalogSweeps pins the tied-group cutoff probe. Under
// the uniform prior one funding cutoff holds the whole catalog and the
// root sits within an ulp below it. Probing the group's cutoff takes
// the cold N=50k plan from 50 sweeps to 1; at N=10k the probe cuts the
// bracket to the group and the secant finishes (31 sweeps before it).
func TestEngineTiedCatalogSweeps(t *testing.T) {
	for _, c := range []struct {
		n         int
		maxSweeps int
	}{
		{50_000, 3},
		{10_000, 30},
	} {
		elems := tiedCatalog(c.n)
		sol, err := NewEngine().WaterFill(Problem{Elements: elems, Bandwidth: 500})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Iterations > c.maxSweeps {
			t.Errorf("N=%d tied catalog took %d sweeps, want ≤ %d", c.n, sol.Iterations, c.maxSweeps)
		}
		testkit.MustCertify(t, nil, elems, sol.Freqs, 500, 1e-6)
	}
}

// TestEngineLearnedCatalogSweeps pins a learned catalog's sweep count
// to the 8 it takes: the 12 it took before the tied-group probe, less
// the 4 the usage stopping rule saves. Its unpolled, unread
// elements form one large tied group near the root, and probing that
// group while something is already funded at the bracket's high end
// took 18 sweeps; the probe leaves the secant alone there, so learned
// replans pay no extra sweeps. One worker keeps the count independent
// of GOMAXPROCS.
func TestEngineLearnedCatalogSweeps(t *testing.T) {
	elems := learnedCatalog(50_000, 4, 3)
	e := NewEngine()
	e.maxWorkers = 1
	sol, err := e.WaterFill(Problem{Elements: elems, Bandwidth: 500})
	if err != nil {
		t.Fatal(err)
	}
	if want := 8; sol.Iterations != want {
		t.Errorf("learned catalog took %d sweeps, want %d", sol.Iterations, want)
	}
	testkit.MustCertify(t, nil, elems, sol.Freqs, 500, 1e-6)
}

// learnedSweeps is each learnedCatalog(50k, periods, seed)'s sweep
// count at one worker, indexed [periods−1][seed−1]: 1,169 in all, 155
// at worst. The search's last sweeps run at the float noise floor, so
// any change to how a sweep sums usage moves these counts. Stopping on
// the high end's usage (usageTol) took them from 1,449 in all; no
// count rose.
var learnedSweeps = [12][5]int{
	{155, 92, 8, 7, 9},
	{11, 13, 11, 15, 11},
	{22, 41, 23, 39, 43},
	{10, 8, 8, 7, 8},
	{9, 10, 9, 9, 33},
	{43, 20, 42, 54, 55},
	{11, 10, 9, 10, 12},
	{14, 13, 14, 12, 13},
	{9, 11, 10, 9, 11},
	{12, 10, 10, 13, 13},
	{18, 12, 10, 16, 11},
	{10, 10, 9, 10, 12},
}

// TestEngineLearnedCatalogSweepTable pins the search path on all 60
// learned catalogs: solving each tied class once left every sweep count
// where the per-element sweep had it, and the usage stopping rule may
// only lower a count.
func TestEngineLearnedCatalogSweepTable(t *testing.T) {
	e := NewEngine()
	e.maxWorkers = 1
	for periods := 1; periods <= len(learnedSweeps); periods++ {
		for seed := int64(1); seed <= 5; seed++ {
			elems := learnedCatalog(50_000, periods, seed)
			sol, err := e.WaterFill(Problem{Elements: elems, Bandwidth: 500})
			if err != nil {
				t.Fatal(err)
			}
			if want := learnedSweeps[periods-1][seed-1]; sol.Iterations != want {
				t.Errorf("learnedCatalog(50k, %d, %d) took %d sweeps, want %d", periods, seed, sol.Iterations, want)
			}
		}
	}
}

// TestEngineTiedCatalogEqualSplit: the cold N=50k, B=500 plan's root
// sits within an ulp of its one tied cutoff, so the whole budget is
// the residual top-up's. The top-up pays the tied class as a whole,
// so every element gets B/N; paying elements one at a time funded
// 11,970 of them and left the rest at zero.
func TestEngineTiedCatalogEqualSplit(t *testing.T) {
	const n, budget = 50_000, 500.0
	elems := tiedCatalog(n)
	sol, err := NewEngine().WaterFill(Problem{Elements: elems, Bandwidth: budget})
	if err != nil {
		t.Fatal(err)
	}
	want := budget / n
	for i, f := range sol.Freqs {
		if f != sol.Freqs[0] || math.Abs(f-want) > 1e-12*want {
			t.Fatalf("element %d has frequency %v, element 0 %v; want every element at %v", i, f, sol.Freqs[0], want)
		}
	}
	if math.Abs(sol.BandwidthUsed-budget) > 1e-12*budget {
		t.Errorf("used %v of budget %v", sol.BandwidthUsed, budget)
	}
	testkit.MustCertify(t, nil, elems, sol.Freqs, budget, 1e-6)
}

// TestEngineTiedCatalogInversions: a tied catalog is one class, so its
// marginal inversions per solve do not grow with N. B/N = 0.05 puts
// the root inside the bracket (a secant search); B/N = 0.01 puts it
// within an ulp of the cutoff (one probe, then the top-up).
func TestEngineTiedCatalogInversions(t *testing.T) {
	for _, perElem := range []float64{0.05, 0.01} {
		counts := make([]int, 0, 2)
		for _, n := range []int{5_000, 50_000} {
			e := NewEngine()
			e.maxWorkers = 1
			sol, err := e.WaterFill(Problem{Elements: tiedCatalog(n), Bandwidth: perElem * float64(n)})
			if err != nil {
				t.Fatal(err)
			}
			// One bracketing sweep, one per search sweep, the final
			// sweep and the top-up's fill cap.
			if e.inversions > sol.Iterations+3 {
				t.Errorf("N=%d, B/N=%v: %d inversions over %d sweeps", n, perElem, e.inversions, sol.Iterations)
			}
			counts = append(counts, e.inversions)
		}
		if counts[0] != counts[1] {
			t.Errorf("B/N=%v: %d inversions at N=5,000 but %d at N=50,000", perElem, counts[0], counts[1])
		}
	}
}
