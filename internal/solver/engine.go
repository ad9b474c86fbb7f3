package solver

import (
	"math"
	"runtime"
	"slices"
	"sync"
	"time"

	"freshen/internal/freshness"
)

// The engine is the shared water-filling core behind WaterFill,
// SolveGF, MinimizeAge, Blend, BandwidthForTarget and the partition
// heuristics. It makes the multiplier search's inner loop cheap in
// five ways:
//
//   - Funding-cutoff pruning: per-element invariants (the cutoff
//     μᵢ* = pᵢ·M(0,λᵢ)/sᵢ above which element i earns nothing) are
//     computed once per solve and sorted descending, so each candidate
//     μ binary-searches the funded prefix and never touches unfunded
//     elements.
//   - Tied classes: each run of sorted elements tied on (pᵢ, λᵢ, sᵢ)
//     shares one marginal curve, so a sweep inverts it once per class
//     and adds the class's usage once per member, in element order —
//     exactly the per-element sweep's rounding. A cold uniform-prior
//     catalog is one class, so its sweeps cost O(1) inversions at any
//     N; with no ties every class has one member.
//   - A superlinear root finder: usage(μ) is close to a power law, so
//     a log-log secant with an Illinois safeguard replaces bisection —
//     a median 11 usage sweeps on learned catalogs (7–55 in
//     TestEngineLearnedCatalogSweeps' recipe) instead of ~60 — and
//     probes a lone funding cutoff, or a cold catalog's one tied group,
//     directly (see solveCurve).
//   - Warm starts: each class carries the root of its previous
//     marginal inversion across iterations. μ moves little per step
//     once the root localizes, so policies implementing
//     freshness.WarmStartInverter re-converge in 1–2 exp evaluations
//     instead of a cold solve's handful.
//   - A persistent worker pool: workers are spawned once per solve
//     (not once per usage evaluation) and write into engine-owned
//     scratch, so the search loop allocates nothing. Partial sums
//     reduce in fixed shard order, keeping results deterministic for a
//     given GOMAXPROCS regardless of goroutine scheduling.
//
// The search runs until the schedule it keeps uses the budget to
// within usageTol (1e-13 of B), or to full multiplier resolution
// (bracket width 1e-15·μ), rather than stopping at a loose bandwidth
// tolerance: the tight root makes results reproducible to ~1e-12
// against a from-scratch solve.

// engineParallelThreshold is the tied-class count below which a solve
// stays on the calling goroutine.
const engineParallelThreshold = 16384

// bracketHalvings caps the μ-bracketing fallback loops.
const bracketHalvings = 4096

// usageTol is the multiplier search's stopping rule on usage: the
// search ends once the bracket's high end uses at least B·(1 − usageTol)
// of the budget B (its log-ratio to B is within usageTol). The usage sum
// of a 50,000-element sweep carries noise of a few 1e-14 of B.
const usageTol = 1e-13

// activeElem is one schedulable element, as the solve sorts it.
type activeElem struct {
	idx    int     // position in Problem.Elements
	lambda float64 // change rate
	weight float64 // access probability (objective weight)
	size   float64 // bandwidth cost per refresh
	cutoff float64 // funding cutoff μ*: marginal value of the first sliver
}

// tiedClass is a maximal run act[lo:hi] of sorted active elements
// tied on (weight, λ, size). Its members share one cutoff and one
// marginal curve, so they hold one frequency at every μ and the solve
// inverts that curve once for all of them.
type tiedClass struct {
	lo, hi int     // members: Engine.act[lo:hi]
	lambda float64 // shared change rate
	weight float64 // shared access probability
	size   float64 // shared bandwidth cost per refresh
	cutoff float64 // shared funding cutoff
	hint   float64 // warm-start hint carried across inversions
	freq   float64 // member frequency at the most recently evaluated μ
	gain   float64 // residual top-up scratch: fill cap minus current freq
}

// marginalCurve is the per-element optimality curve a solve inverts:
// peak is the marginal value of an element's first sliver of bandwidth
// (+Inf for objectives that never starve an element), invert solves
// marginal(f) = target with an optional warm hint.
type marginalCurve interface {
	peak(lambda float64) float64
	invert(target, lambda, hint float64) (freq, nextHint float64)
}

// policyCurve adapts a freshness.Policy, using its warm-start fast
// path when the policy provides one.
type policyCurve struct {
	pol  freshness.Policy
	warm freshness.WarmStartInverter // nil when pol doesn't implement it
}

func newPolicyCurve(pol freshness.Policy) policyCurve {
	warm, _ := pol.(freshness.WarmStartInverter)
	return policyCurve{pol: pol, warm: warm}
}

func (c policyCurve) peak(lambda float64) float64 { return c.pol.Marginal(0, lambda) }

func (c policyCurve) invert(target, lambda, hint float64) (float64, float64) {
	if c.warm != nil {
		return c.warm.InvertMarginalWarm(target, lambda, hint)
	}
	return c.pol.InvertMarginal(target, lambda), 0
}

// ageCurve is the perceived-age objective of MinimizeAge: its marginal
// is unbounded at f = 0, so every active element is always funded.
type ageCurve struct{}

func (ageCurve) peak(float64) float64 { return math.Inf(1) }

func (ageCurve) invert(target, lambda, hint float64) (float64, float64) {
	f := freshness.InvertFixedOrderAgeMarginalWarm(target, lambda, hint)
	return f, f
}

// blendCurve is Blend's combined freshness-minus-weighted-age
// marginal; like the age curve it never starves an element.
type blendCurve struct{ ageWeight float64 }

func (blendCurve) peak(float64) float64 { return math.Inf(1) }

func (c blendCurve) invert(target, lambda, hint float64) (float64, float64) {
	pol := freshness.FixedOrder{}
	m := func(f float64) float64 {
		return pol.Marginal(f, lambda) + c.ageWeight*freshness.FixedOrderAgeMarginal(f, lambda)
	}
	f := invertDecreasingMarginal(m, target, hint)
	return f, f
}

// invertDecreasingMarginal solves m(f) = target for a positive,
// strictly decreasing marginal m with m(0⁺) = +∞, seeding the bracket
// from a warm hint when one is available.
func invertDecreasingMarginal(m func(float64) float64, target, hint float64) float64 {
	lo, hi := 0.0, 1.0
	if hint > 0 && !math.IsInf(hint, 0) {
		if m(hint) > target {
			lo, hi = hint, 2*hint
		} else {
			hi = hint
		}
	}
	for m(hi) > target {
		lo = hi
		hi *= 2
		if hi > 1e15 {
			break
		}
	}
	for i := 0; i < 200; i++ {
		mid := 0.5 * (lo + hi)
		if m(mid) > target {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo <= 1e-14*hi {
			break
		}
	}
	return 0.5 * (lo + hi)
}

// Engine is a reusable solve context. It owns the sorted active-set
// array, warm-start state, worker pool and scratch buffers, so
// repeated solves (capacity planning, hierarchical sub-solves, the
// partition heuristics) allocate almost nothing after the first call.
// An Engine is NOT safe for concurrent use; the package-level solver
// entry points draw engines from a sync.Pool so concurrent callers
// never share one.
type Engine struct {
	act     []activeElem
	cls     []tiedClass
	partial []float64
	heap    []int

	// inversions counts the most recent solve's marginal inversions,
	// one per funded class per sweep plus the top-up's fill caps.
	inversions int

	// Worker pool state, live only while a solve runs. Each worker has
	// its own wake channel: a shared channel would let one worker absorb
	// two tokens in a round while another sleeps through it, leaving the
	// sleeper's shard stale.
	curve    marginalCurve
	workers  int
	wake     []chan struct{}
	done     sync.WaitGroup
	jobMu    float64
	jobK     int
	jobChunk int

	// maxWorkers caps pool size; 0 means GOMAXPROCS. Tests use it to
	// compare serial and parallel solves on the same machine.
	maxWorkers int
}

// NewEngine returns an empty solve context.
func NewEngine() *Engine { return &Engine{} }

// enginePool recycles engines behind the package-level entry points.
var enginePool = sync.Pool{New: func() any { return NewEngine() }}

// WaterFill solves the problem exactly via the Appendix's Lagrange
// conditions on this engine, reusing its buffers and warm-start state.
func (e *Engine) WaterFill(p Problem) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	return e.solveCurve(p, newPolicyCurve(p.policy()), true)
}

// solveCurve runs the shared μ-bisection: build and sort the active
// set, bracket the multiplier, bisect to full resolution, extract the
// schedule, and (for curves with finite cutoffs) drain any residual
// budget sliver.
func (e *Engine) solveCurve(p Problem, curve marginalCurve, topUp bool) (Solution, error) {
	obsm := metrics.Load()
	var obsStart time.Time
	if obsm != nil {
		obsStart = time.Now()
	}
	n := len(p.Elements)
	sol := Solution{Freqs: make([]float64, n)}
	e.inversions = 0

	// Per-element invariants, computed once per solve. Elements with
	// zero weight or zero change rate never earn bandwidth and stay at
	// frequency 0. The active set is sized for all n up front, so a
	// fresh engine does not regrow it element by element.
	e.act = slices.Grow(e.act[:0], n)
	muHi := 0.0             // largest finite cutoff
	muLoSeed := math.Inf(1) // smallest cutoff
	unbounded := false      // some element's first sliver has unbounded value
	for i, el := range p.Elements {
		if el.AccessProb <= 0 || el.Lambda <= 0 {
			continue
		}
		cut := el.AccessProb * curve.peak(el.Lambda) / el.Size
		if !(cut > 0) {
			continue
		}
		e.act = append(e.act, activeElem{
			idx: i, lambda: el.Lambda, weight: el.AccessProb, size: el.Size, cutoff: cut,
		})
		if math.IsInf(cut, 1) {
			unbounded = true
		} else if cut > muHi {
			muHi = cut
		}
		if cut < muLoSeed {
			muLoSeed = cut
		}
	}
	if len(e.act) == 0 || p.Bandwidth == 0 || (muHi == 0 && !unbounded) {
		err := sol.evaluate(p)
		if obsm != nil {
			obsm.record(time.Since(obsStart), 0, 0)
		}
		return sol, err
	}

	// Sort by cutoff descending so the funded set at any μ is a prefix;
	// ties break on element index to keep runs deterministic.
	slices.SortFunc(e.act, func(a, b activeElem) int {
		switch {
		case a.cutoff > b.cutoff:
			return -1
		case a.cutoff < b.cutoff:
			return 1
		default:
			return a.idx - b.idx
		}
	})
	// Ties on (p, λ, s) imply a tie on the cutoff, so each run of them
	// is consecutive unless an element of another triple shares the
	// cutoff and falls between them by index; such a run splits into
	// more classes, which stays exact.
	e.cls = e.cls[:0]
	for j, a := range e.act {
		if c := len(e.cls) - 1; c >= 0 && e.cls[c].weight == a.weight && e.cls[c].lambda == a.lambda && e.cls[c].size == a.size {
			e.cls[c].hi = j + 1
			continue
		}
		e.cls = append(e.cls, tiedClass{
			lo: j, hi: j + 1, lambda: a.lambda, weight: a.weight, size: a.size, cutoff: a.cutoff,
		})
	}

	e.curve = curve
	e.startWorkers()
	defer e.stopWorkers()

	// Bracket the multiplier. With finite cutoffs usage(muHi) = 0 < B
	// by construction; unbounded curves grow muHi until feasible.
	fHi := -p.Bandwidth // usage(muHi) − B
	if unbounded {
		if muHi < 1 {
			muHi = 1
		}
		for i := 0; ; i++ {
			fHi = e.usage(muHi) - p.Bandwidth
			if fHi <= 0 || i >= bracketHalvings || muHi > 1e300 {
				break
			}
			muHi *= 2
		}
	}
	// Seed the low end from the smallest cutoff: below it every element
	// is funded, so usage is usually already past the budget and the
	// halving loop — which previously probed up to 4096 candidate μ
	// values from muHi down — degenerates to a short fallback for very
	// large budgets.
	muLo := muHi
	if muLoSeed < muLo {
		muLo = muLoSeed
	}
	fLo := 0.0 // usage(muLo) − B
	for i := 0; ; i++ {
		fLo = e.usage(muLo) - p.Bandwidth
		if fLo >= 0 || i >= bracketHalvings || muLo < 1e-300 {
			break
		}
		muLo /= 2
	}

	// Shrink the bracket to full multiplier resolution. Usage is close
	// to a power law in μ (element frequencies scale like inverse
	// powers of their targets), so a secant step on (log μ, log usage)
	// — where the curve is nearly linear — converges superlinearly:
	// single-digit sweeps to a 1e-15-relative root where bisection
	// needed ~60. An Illinois-style safeguard (geometric bisection
	// whenever the same endpoint moves twice in a row, or the secant
	// point leaves the bracket) keeps bisection's worst case. The
	// invariant usage(muLo) ≥ B ≥ usage(muHi) holds throughout; taking
	// the high end guarantees the final schedule never exceeds the
	// budget. The search stops once the high end's usage is within
	// usageTol of B: past that point the sweeps only shrink the bracket
	// at the float noise floor of the usage sum.
	iters := 0
	if fLo == 0 {
		muHi, fHi = muLo, fLo
	}
	// h = log(usage/B): the secant's ordinate. hLo ≥ 0 ≥ hHi; hHi is
	// −Inf while nothing is funded at muHi (the initial state for
	// finite-cutoff curves), which routes to the geometric fallback.
	hLo := math.Log((fLo + p.Bandwidth) / p.Bandwidth)
	hHi := math.Log((fHi + p.Bandwidth) / p.Bandwidth)
	side := 0 // endpoint the previous iteration replaced: −1 low, +1 high
	for i := 0; i < 200 && muHi-muLo > 1e-15*muHi && hHi < -usageTol; i++ {
		iters++
		// Near a funding cutoff the entering element's frequency decays
		// only logarithmically (f ≈ λ/log(1/δ) for a relative distance
		// δ below the cutoff), so usage looks like a step: the root can
		// sit within an ulp of the cutoff and interpolation would creep
		// toward it one halving at a time. Once a single element's
		// cutoff remains inside the bracket (one class of one member),
		// probe it and its float neighbour directly — at most two
		// evaluations pin the bracket to one ulp. Elements tied on
		// (p, λ, s) share one cutoff and enter together, so a bracket
		// holding one tied group is probed the same way while nothing is
		// funded at muHi (a uniform-prior catalog is one such group).
		// Once something is funded the secant has a finite ordinate and
		// is left to it: probing any lone class there made some learned
		// catalogs slower (TestEngineLearnedCatalogSweeps).
		kLo, kHi := e.fundedTo(muLo), e.fundedTo(muHi)
		lone := kLo == kHi+1 && e.cls[kHi].hi-e.cls[kHi].lo == 1
		if lone || (math.IsInf(hHi, -1) && kLo > kHi && e.cls[kLo-1].cutoff == e.cls[kHi].cutoff) {
			cand := e.cls[kLo-1].cutoff
			if cm := math.Nextafter(cand, 0); cm > muLo {
				cand = cm
			} else if cand >= muHi {
				// Bracket already tighter than an ulp around the cutoff;
				// muHi keeps the usage ≤ B invariant.
				break
			}
			h := math.Log(e.usage(cand) / p.Bandwidth)
			switch {
			case h > 0:
				muLo, hLo = cand, h
			case h < 0:
				muHi, hHi = cand, h
			default:
				muLo, muHi = cand, cand
				hLo, hHi = 0, 0
			}
			side = 0
			continue
		}
		cand := 0.0
		if hLo > 0 && hHi < 0 && !math.IsInf(hHi, -1) {
			tLo, tHi := math.Log(muLo), math.Log(muHi)
			cand = math.Exp(tLo + (tHi-tLo)*hLo/(hLo-hHi))
		}
		if !(cand > muLo && cand < muHi) {
			cand = math.Sqrt(muLo * muHi)
			if !(cand > muLo && cand < muHi) {
				cand = 0.5 * (muLo + muHi)
			}
		}
		h := math.Log(e.usage(cand) / p.Bandwidth)
		switch {
		case h > 0:
			muLo, hLo = cand, h
			if side < 0 {
				hHi *= 0.5
			}
			side = -1
		case h < 0:
			muHi, hHi = cand, h
			if side > 0 {
				hLo *= 0.5
			}
			side = 1
		default:
			// Exact hit: collapse the bracket on the root.
			muLo, muHi = cand, cand
			hLo, hHi = 0, 0
		}
	}

	mu := muHi
	k := e.fundedTo(mu)
	used := e.usage(mu)
	for _, c := range e.cls[:k] {
		for _, a := range e.act[c.lo:c.hi] {
			sol.Freqs[a.idx] = c.freq
		}
	}
	if topUp {
		e.topUpResidual(p, &sol, mu, used, k)
	}
	sol.Multiplier = mu
	sol.Iterations = iters
	err := sol.evaluate(p)
	if obsm != nil {
		funded := 0 // elements, not classes
		if k > 0 {
			funded = e.cls[k-1].hi
		}
		obsm.record(time.Since(obsStart), iters, funded)
	}
	return sol, err
}

// fundedTo returns the funded prefix length at multiplier mu: the
// number of tied classes whose cutoff exceeds mu.
func (e *Engine) fundedTo(mu float64) int {
	lo, hi := 0, len(e.cls)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if e.cls[mid].cutoff > mu {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// usage evaluates Σ sᵢ·fᵢ(μ) over the funded prefix, recording each
// class's frequency and warm hint in place. Large prefixes are sharded
// by class across the solve's worker pool; partial sums reduce in
// worker order so the result is deterministic.
func (e *Engine) usage(mu float64) float64 {
	k := e.fundedTo(mu)
	e.inversions += k
	if e.workers <= 1 || k < engineParallelThreshold {
		return e.invertRange(mu, 0, k)
	}
	e.jobMu = mu
	e.jobK = k
	e.jobChunk = (k + e.workers - 1) / e.workers
	e.done.Add(e.workers)
	for i := 0; i < e.workers; i++ {
		e.wake[i] <- struct{}{}
	}
	e.done.Wait()
	var total float64
	for _, t := range e.partial[:e.workers] {
		total += t
	}
	return total
}

// invertRange inverts the marginal once for each class in [lo, hi) at
// multiplier mu and returns their members' bandwidth usage. A class's
// usage is added once per member rather than multiplied out, so the
// sum rounds exactly as a per-element sweep's does: the search's last
// sweeps run at the float noise floor, where a one-ulp difference in
// usage changes its path.
func (e *Engine) invertRange(mu float64, lo, hi int) float64 {
	var total float64
	for j := lo; j < hi; j++ {
		c := &e.cls[j]
		f, h := e.curve.invert(mu*c.size/c.weight, c.lambda, c.hint)
		c.freq, c.hint = f, h
		u := c.size * f
		for range c.hi - c.lo {
			total += u
		}
	}
	return total
}

// startWorkers spawns the solve's worker pool once; usage() then only
// passes tokens through a channel, so the bisection loop itself
// allocates nothing.
func (e *Engine) startWorkers() {
	w := e.maxWorkers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if len(e.cls) < engineParallelThreshold || w < 2 {
		e.workers = 1
		return
	}
	e.workers = w
	if cap(e.partial) < w {
		e.partial = make([]float64, w)
	}
	e.partial = e.partial[:w]
	if cap(e.wake) < w {
		e.wake = make([]chan struct{}, 0, w)
	}
	e.wake = e.wake[:0]
	for i := 0; i < w; i++ {
		ch := make(chan struct{}, 1)
		e.wake = append(e.wake, ch)
		go func(id int, ch chan struct{}) {
			for range ch {
				lo := id * e.jobChunk
				hi := lo + e.jobChunk
				if hi > e.jobK {
					hi = e.jobK
				}
				var sum float64
				if lo < hi {
					sum = e.invertRange(e.jobMu, lo, hi)
				}
				e.partial[id] = sum
				e.done.Done()
			}
		}(i, ch)
	}
}

func (e *Engine) stopWorkers() {
	if e.workers > 1 {
		for _, ch := range e.wake {
			close(ch)
		}
	}
	e.workers = 0
	e.curve = nil
}

// topUpResidual drains any unused budget sliver. The multiplier is
// only resolvable to ~1e-15 relative, and an element whose funding
// cutoff coincides with μ to that precision absorbs its bandwidth
// discontinuously in float arithmetic, which can leave part of the
// budget unused. Each funded class's fill cap — the frequency its
// members would hold at μ·(1−1e-9) — is computed once, and the
// residual drains through a max-heap of gains: every funded marginal
// stays within 1e-9 of the multiplier (optimality to the precision μ
// itself carries) while budget tightness is restored in O(m log m)
// instead of the previous O(n²) rescan-per-round. A class takes its
// share as a whole, split evenly across its members, so tied elements
// keep one frequency.
func (e *Engine) topUpResidual(p Problem, sol *Solution, mu, used float64, k int) {
	residual := p.Bandwidth - used
	if residual <= p.Bandwidth*1e-14 {
		return
	}
	muFill := mu * (1 - 1e-9)
	kFill := e.fundedTo(muFill)
	e.inversions += kFill
	if cap(e.heap) < kFill {
		e.heap = make([]int, 0, kFill)
	}
	h := e.heap[:0]
	for j := 0; j < kFill; j++ {
		c := &e.cls[j]
		fillCap, hint := e.curve.invert(muFill*c.size/c.weight, c.lambda, c.hint)
		c.hint = hint
		cur := 0.0
		if j < k {
			cur = c.freq
		}
		if g := fillCap - cur; g > 0 {
			c.gain = g
			h = append(h, j)
		}
	}
	// Max-heap on gain; index ties cannot occur, so ordering is total.
	for i := len(h)/2 - 1; i >= 0; i-- {
		e.siftDown(h, i)
	}
	for len(h) > 0 && residual > p.Bandwidth*1e-14 {
		c := &e.cls[h[0]]
		members := float64(c.hi - c.lo)
		df := residual / (members * c.size)
		if df >= c.gain {
			df = c.gain
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
			if len(h) > 0 {
				e.siftDown(h, 0)
			}
		}
		for _, a := range e.act[c.lo:c.hi] {
			sol.Freqs[a.idx] += df
		}
		residual -= df * c.size * members
	}
	e.heap = h[:0]
}

func (e *Engine) siftDown(h []int, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(h) && e.cls[h[l]].gain > e.cls[h[big]].gain {
			big = l
		}
		if r < len(h) && e.cls[h[r]].gain > e.cls[h[big]].gain {
			big = r
		}
		if big == i {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// --- deterministic parallel helpers for the gradient baseline ---

// shardedSum evaluates fn over deterministic contiguous shards of
// [0, n) (in parallel when n is large) and adds the shard sums in
// shard order.
func shardedSum(n int, fn func(lo, hi int) float64) float64 {
	workers := runtime.GOMAXPROCS(0)
	if n < engineParallelThreshold || workers < 2 {
		return fn(0, n)
	}
	partial := make([]float64, workers)
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			partial[w] = fn(lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	var total float64
	for _, t := range partial {
		total += t
	}
	return total
}

// parallelFor runs fn over deterministic contiguous shards of [0, n),
// in parallel when n is large. Shards are disjoint, so fn may write to
// per-index slots without synchronization.
func parallelFor(n int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if n < engineParallelThreshold || workers < 2 {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
