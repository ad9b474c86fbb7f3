package estimate

import (
	"fmt"
	"math"
)

// Estimator kinds, selectable via New. "mle" is the online maximum
// likelihood estimator of Avrachenkov, Patil & Thoppe (PAPERS.md): O(1)
// state per element, one update per censored observation — the one
// estimator a live mirror runs. "history" (the batch tracker: it stores
// every poll and re-solves the exact MLE at each learn pass) and
// "naive" (detections over observed time) are the baselines the
// ground-truth and cold-start comparisons measure it against.
const (
	KindHistory = "history"
	KindNaive   = "naive"
	KindMLE     = "mle"
)

// Kinds lists every estimator kind New accepts.
func Kinds() []string { return []string{KindHistory, KindNaive, KindMLE} }

// Params tunes an estimator family. The zero value applies no prior,
// no floor and no cap — the historical tracker behavior.
type Params struct {
	// Prior is the change rate reported for elements with no
	// observations yet, and the online estimators' starting point.
	Prior float64
	// Floor is a lower bound applied to every reported estimate. A
	// positive floor fixes the cold-start starvation bias: an element
	// whose polls observed no change has MLE λ̂ = 0, which a
	// freshness-maximizing scheduler answers with zero budget — so the
	// element is never polled again and the estimate can never recover.
	// Flooring at a small prior keeps the scheduler probing.
	Floor float64
	// Cap is an upper bound on every reported estimate; 0 means 1e9.
	Cap float64
}

func (p Params) withDefaults() Params {
	if p.Cap == 0 {
		p.Cap = 1e9
	}
	return p
}

// apply maps a raw estimate to the reported one: floored (the
// cold-start fix) and, when a cap is set, capped.
func (p Params) apply(x float64) float64 {
	if x < p.Floor {
		x = p.Floor
	}
	if p.Cap > 0 && x > p.Cap {
		x = p.Cap
	}
	return x
}

// Estimate is one element's current change-rate knowledge: the point
// estimate, its asymptotic standard error, and how many censored
// observations it is built on.
type Estimate struct {
	// Lambda is the point estimate λ̂ (finite, ≥ 0).
	Lambda float64
	// StdErr is the asymptotic standard error 1/√J, where J is the
	// Fisher information accumulated over the element's observations
	// (evaluated at the running estimate). +Inf when no observation has
	// carried information yet.
	StdErr float64
	// Polls counts the observations folded in.
	Polls int
}

// Uncertainty maps the estimate to a scale-free score in [0, 1]: the
// standard error's share of the total scale StdErr + λ̂. An unobserved
// element scores 1 (maximally uncertain); a long-polled element's
// score falls toward 0 as information accumulates. The explore policy
// water-fills its probe budget proportionally to this score.
func (e Estimate) Uncertainty() float64 {
	if e.Polls == 0 || math.IsInf(e.StdErr, 1) {
		return 1
	}
	den := e.StdErr + e.Lambda
	if !(den > 0) {
		return 1
	}
	u := e.StdErr / den
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// UncertaintyAt is Uncertainty with the denominator floored at a
// planning-relevant rate scale: StdErr/(StdErr + λ̂ + scale). The pure
// relative score never converges for near-static elements — StdErr
// shrinks like √(λ̂/T), so StdErr/λ̂ stays large whenever λ̂ ≈ 0 — which
// would keep an explore policy probing elements whose freshness cannot
// improve under any plan. Flooring the scale at the smallest rate the
// planner cares about lets "confidently negligible" elements release
// their probe share. A non-positive or non-finite scale reduces to
// Uncertainty.
func (e Estimate) UncertaintyAt(scale float64) float64 {
	if !(scale > 0) || math.IsInf(scale, 1) {
		return e.Uncertainty()
	}
	if e.Polls == 0 || math.IsInf(e.StdErr, 1) {
		return 1
	}
	den := e.StdErr + e.Lambda + scale
	if !(den > 0) {
		return 1
	}
	u := e.StdErr / den
	if u < 0 {
		return 0
	}
	if u > 1 {
		return 1
	}
	return u
}

// Estimator is a per-element change-rate estimator consuming the
// censored poll stream a mirror actually observes: for each refresh,
// only whether the element changed since the last successful poll and
// how much time elapsed — never how many times it changed.
type Estimator interface {
	// Kind names the estimator family (see Kinds).
	Kind() string
	// Elements returns the catalog size the estimator tracks.
	Elements() int
	// Observe folds in one censored observation. It rejects out-of-range
	// elements and non-positive or non-finite elapsed times with an
	// error and never panics.
	Observe(element int, elapsed float64, changed bool) error
	// Estimate returns the element's current point estimate with its
	// uncertainty. Out-of-range elements report a zero-poll estimate.
	Estimate(element int) Estimate
	// Estimates returns every element's λ̂, using fallback for elements
	// without observations and applying the configured floor and cap.
	Estimates(fallback float64) ([]float64, error)
}

// ElementState is one element's online-estimator state, its durable
// form: O(1) numbers, so a restart resumes convergence exactly where
// the crash interrupted it instead of re-learning from scratch.
type ElementState struct {
	// Lambda is the running estimate x_k.
	Lambda float64
	// Info is the accumulated Fisher information J_k.
	Info float64
	// Polls and Changes count the observations and detections.
	Polls   int
	Changes int
	// SumElapsed is the total observed time Σ τ_k.
	SumElapsed float64
}

// New builds an estimator of the given kind for n elements.
func New(kind string, n int, p Params) (Estimator, error) {
	if kind == KindHistory {
		t, err := NewTracker(n)
		if err != nil {
			return nil, err
		}
		t.SetParams(p)
		return t, nil
	}
	e, err := NewOnline(kind, n, p)
	if err != nil {
		return nil, err
	}
	return e, nil
}

// NewOnline builds an online estimator (KindNaive or KindMLE) for n
// elements, each starting at the prior.
func NewOnline(kind string, n int, p Params) (*Online, error) {
	switch kind {
	case KindNaive, KindMLE:
	case KindHistory:
		return nil, fmt.Errorf("estimate: the history estimator keeps every poll, not O(1) state")
	default:
		return nil, fmt.Errorf("estimate: unknown estimator kind %q (want one of %v)", kind, Kinds())
	}
	if n <= 0 {
		return nil, fmt.Errorf("estimate: estimator needs at least one element, got %d", n)
	}
	e := &Online{kind: kind, params: p.withDefaults(), elems: make([]onlineElem, n)}
	e.reset()
	return e, nil
}

// Restore sets every element i to state(i) in place, validating every
// field; it is the recovery counterpart of State. An element with no
// polls carries no state and starts at the prior, so a persisted form
// may leave unpolled elements zero. A history of more than 2³²−1
// polls, where a live count saturates (see onlineElem), loads scaled
// down to 2³²−1 polls (fitCounts). A rejected state loads nothing:
// every element is left at the prior.
func (e *Online) Restore(state func(element int) ElementState) error {
	e.reset()
	for i := range e.elems {
		s := state(i)
		var err error
		switch {
		case !finitePos(s.Lambda) && s.Lambda != 0:
			err = fmt.Errorf("estimate: element %d has invalid state rate %v", i, s.Lambda)
		case math.IsNaN(s.Info) || math.IsInf(s.Info, 0) || s.Info < 0:
			err = fmt.Errorf("estimate: element %d has invalid information %v", i, s.Info)
		case s.Polls < 0 || s.Changes < 0 || s.Changes > s.Polls:
			err = fmt.Errorf("estimate: element %d has %d changes over %d polls", i, s.Changes, s.Polls)
		case math.IsNaN(s.SumElapsed) || math.IsInf(s.SumElapsed, 0) || s.SumElapsed < 0:
			err = fmt.Errorf("estimate: element %d has invalid observed time %v", i, s.SumElapsed)
		}
		if err != nil {
			e.reset()
			return err
		}
		if s.Polls == 0 {
			continue
		}
		if s.Lambda == 0 {
			s.Lambda = e.stateFloor()
		}
		polls, changes, elapsed := fitCounts(s.Polls, s.Changes, s.SumElapsed)
		e.elems[i] = onlineElem{
			x:          s.Lambda,
			info:       s.Info,
			polls:      polls,
			changes:    changes,
			sumElapsed: elapsed,
		}
	}
	return nil
}

// reset puts every element at the prior, unpolled.
func (e *Online) reset() {
	x := e.params.Prior
	if !(x > 0) {
		x = e.stateFloor()
	}
	for i := range e.elems {
		e.elems[i] = onlineElem{x: x}
	}
}

func finitePos(v float64) bool { return v > 0 && !math.IsInf(v, 0) }

// fitCounts fits a valid persisted history into an element's uint32
// counts. One of more than 2³²−1 polls is scaled down to 2³²−1, its
// changes and observed time in proportion, so the change ratio and the
// mean poll spacing hold, and changes stays below polls unless every
// poll changed: the identifiability cap stays off for a history that
// saw a no-change poll.
func fitCounts(polls, changes int, elapsed float64) (uint32, uint32, float64) {
	if uint64(polls) <= math.MaxUint32 {
		return uint32(polls), uint32(changes), elapsed
	}
	f := math.MaxUint32 / float64(polls)
	if changes == polls {
		return math.MaxUint32, math.MaxUint32, elapsed * f
	}
	return math.MaxUint32, uint32(min(float64(changes)*f, math.MaxUint32-1)), elapsed * f
}

// onlineElem is one element's O(1) online state, 32 B.
//
// polls and changes are uint32s that stop at 2³²−1, and the observed
// time stops with them: once polls is saturated none of the three
// moves, so changes ≤ polls holds, and the identifiability cap and the
// naive ratio, which read only these, keep their last values rather
// than drift as the time alone grows. λ̂ and the information keep
// updating. A hot element polled 1,000 times a period at 1 s periods
// saturates after about 50 days; by then its 4·10⁹ observations have
// long pinned λ̂, and the counts only gate the cap and report Polls.
type onlineElem struct {
	x          float64 // running estimate (mle); derived for naive
	info       float64 // accumulated Fisher information at the running estimate
	polls      uint32
	changes    uint32
	sumElapsed float64
}

// Online implements the two O(1)-state estimators over censored
// polls. For a Poisson change process with rate λ polled after elapsed
// time τ, the detection probability is q(λ,τ) = 1 − e^(−λτ); each
// observation is a Bernoulli draw I ~ q(λ,τ) — that censoring is all
// the estimators ever see.
//
//   - naive: λ̂ = detections / observed time, the LLN baseline. Each
//     poll detects at most one change, so it is biased low by the
//     factor q(λ,τ)/(λτ) — ~37% at λτ = 1 — and the bias never decays
//     with more polls.
//   - mle: recursive maximum likelihood by stochastic Fisher scoring:
//     x += score_k(x)/J_k, where score_k is the observation's
//     log-likelihood gradient and J_k the accumulated Fisher
//     information — the online form of the exact MLE, asymptotically
//     efficient.
//
// Every update is clamped to a bounded multiplicative move and to
// [max(Floor, 1e-12), Cap], so no observation sequence can produce a
// non-finite, negative, or runaway estimate.
type Online struct {
	kind   string
	params Params
	elems  []onlineElem
}

// stateFloor is the smallest internal state value: the configured
// floor when positive, else a tiny positive rate that keeps the
// multiplicative updates well-defined.
func (e *Online) stateFloor() float64 {
	if e.params.Floor > 0 {
		return e.params.Floor
	}
	return 1e-12
}

func (e *Online) Kind() string  { return e.kind }
func (e *Online) Elements() int { return len(e.elems) }

// qEps floors the detection probability inside score and information
// terms so the λ → 0 singularity stays finite.
const qEps = 1e-12

func (e *Online) Observe(element int, elapsed float64, changed bool) error {
	if element < 0 || element >= len(e.elems) {
		return fmt.Errorf("estimate: element %d outside [0, %d)", element, len(e.elems))
	}
	if !(elapsed > 0) || math.IsInf(elapsed, 0) {
		return fmt.Errorf("estimate: elapsed time must be positive and finite, got %v", elapsed)
	}
	s := &e.elems[element]
	if s.polls < math.MaxUint32 {
		s.polls++
		s.sumElapsed += elapsed
		if changed {
			s.changes++
		}
	}

	// Fisher information of this observation at the pre-update
	// estimate: (dq/dx)² / (q(1−q)) = τ²(1−q)/q. Accumulated for the
	// mle gain and for both kinds' confidence reports.
	q := -math.Expm1(-s.x * elapsed)
	qq := math.Max(q, qEps)
	s.info += elapsed * elapsed * (1 - q) / qq

	switch e.kind {
	case KindNaive:
		s.x = e.clamp(float64(s.changes) / s.sumElapsed)
	case KindMLE:
		// d log L/dx = I·τ(1−q)/q − (1−I)·τ.
		score := -elapsed
		if changed {
			score = elapsed * (1 - q) / qq
		}
		s.x = e.step(s.x, score/s.info)
	}

	// Identifiability cap for the iterative kind, applied only while
	// EVERY poll so far came back changed: on such a history the
	// likelihood is monotone in λ — the MLE is +∞ — and the recursion
	// diverges upward; once diverged, a freshness scheduler drops the
	// element (hopelessly stale), it stops being polled, and the
	// runaway estimate can never correct — the high-side twin of the
	// zero-rate starvation trap the floor fixes. k all-changed polls at
	// mean spacing τ̄ support a rate of at most ≈ log(2k+1)/τ̄ (the
	// batch tracker's ChoGM cap for that history). The first no-change
	// observation makes the likelihood proper again, so the cap lifts
	// and the recursion is free to follow the data.
	if e.kind == KindMLE && s.changes == s.polls {
		idCap := math.Log(2*float64(s.polls)+1) * float64(s.polls) / s.sumElapsed
		if s.x > idCap {
			s.x = e.clamp(idCap)
		}
	}
	return nil
}

// step applies one online update, bounding the multiplicative move so
// a single hostile observation can never fling the estimate across the
// domain, then clamping into [stateFloor, Cap].
func (e *Online) step(x, delta float64) float64 {
	nx := x + delta
	if math.IsNaN(nx) {
		nx = x
	}
	if nx > 4*x {
		nx = 4 * x
	} else if nx < x/4 {
		nx = x / 4
	}
	return e.clamp(nx)
}

func (e *Online) clamp(x float64) float64 {
	lo := e.stateFloor()
	if !(x > lo) { // also catches NaN
		return lo
	}
	if x > e.params.Cap {
		return e.params.Cap
	}
	return x
}

func (e *Online) Estimate(element int) Estimate {
	if element < 0 || element >= len(e.elems) {
		return Estimate{Lambda: e.params.Prior, StdErr: math.Inf(1)}
	}
	s := &e.elems[element]
	if s.polls == 0 {
		return Estimate{Lambda: e.params.Prior, StdErr: math.Inf(1)}
	}
	stderr := math.Inf(1)
	if s.info > 0 {
		stderr = 1 / math.Sqrt(s.info)
	}
	return Estimate{Lambda: e.reported(s), StdErr: stderr, Polls: int(s.polls)}
}

// reported maps internal state to the exported estimate: floored (the
// cold-start fix) and capped.
func (e *Online) reported(s *onlineElem) float64 { return e.params.apply(s.x) }

// Both estimator families satisfy the interface.
var (
	_ Estimator = (*Online)(nil)
	_ Estimator = (*Tracker)(nil)
)

func (e *Online) Estimates(fallback float64) ([]float64, error) {
	out := make([]float64, len(e.elems))
	for i := range e.elems {
		s := &e.elems[i]
		if s.polls == 0 {
			out[i] = fallback
			continue
		}
		out[i] = e.reported(s)
	}
	return out, nil
}

// State returns the element's durable state, read in place; an
// element not yet polled has none and reads as zero.
func (e *Online) State(element int) ElementState {
	s := &e.elems[element]
	if s.polls == 0 {
		return ElementState{}
	}
	return ElementState{
		Lambda:     s.x,
		Info:       s.info,
		Polls:      int(s.polls),
		Changes:    int(s.changes),
		SumElapsed: s.sumElapsed,
	}
}
