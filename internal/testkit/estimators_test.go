package testkit

import (
	"math"
	"testing"

	"freshen/internal/estimate"
)

// TestEstimatorGroundTruth is the estimator cross-validation: the live
// online MLE and its two baselines against workloads with known true
// change rates, at three catalog scales, under one fixed poll budget.
// The acceptance bar — the online MLE's mean relative error strictly
// below the naive ratio's — is asserted at every scale, along with
// absolute accuracy envelopes (measured, then pinned with headroom;
// the run is fully seeded, so drift means an estimator changed).
func TestEstimatorGroundTruth(t *testing.T) {
	for _, n := range []int{10, 100, 1000} {
		reports, err := CompareEstimators(EstimatorTruthConfig{N: n, Seed: int64(n)})
		if err != nil {
			t.Fatal(err)
		}
		get := func(kind string) EstimatorReport {
			r, err := ReportFor(reports, kind)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		naive, mle, hist := get(estimate.KindNaive), get(estimate.KindMLE), get(estimate.KindHistory)

		// The headline: principled censoring-aware estimators beat the
		// naive changes/elapsed ratio, strictly, at every scale.
		if !(mle.MeanRelErr < naive.MeanRelErr) {
			t.Errorf("n=%d: online MLE relErr %v not below naive %v", n, mle.MeanRelErr, naive.MeanRelErr)
		}
		if !(hist.MeanRelErr < naive.MeanRelErr) {
			t.Errorf("n=%d: batch MLE relErr %v not below naive %v", n, hist.MeanRelErr, naive.MeanRelErr)
		}

		// Absolute envelopes (measured ≈ 0.05 batch, 0.10–0.14 online
		// MLE, against naive's 0.52–0.56).
		if hist.MeanRelErr > 0.15 {
			t.Errorf("n=%d: batch MLE relErr %v above envelope", n, hist.MeanRelErr)
		}
		if mle.MeanRelErr > 0.25 {
			t.Errorf("n=%d: online MLE relErr %v above envelope", n, mle.MeanRelErr)
		}

		// Bias structure: censoring drives the naive estimator far below
		// the truth (it counts at most one change per poll); the
		// principled estimators stay much closer to unbiased.
		if naive.MeanBias > -0.4 {
			t.Errorf("n=%d: naive bias %v not strongly negative — censoring gone?", n, naive.MeanBias)
		}
		if math.Abs(mle.MeanBias) > 0.5*math.Abs(naive.MeanBias) {
			t.Errorf("n=%d: MLE bias %v not well inside naive bias %v", n, mle.MeanBias, naive.MeanBias)
		}
	}
}

// TestEstimatorConvergence checks that more polls make the principled
// estimators better and more confident, while the naive estimator's
// censoring bias persists no matter how much data arrives — the
// defining difference between noise and structural error.
func TestEstimatorConvergence(t *testing.T) {
	short, err := CompareEstimators(EstimatorTruthConfig{N: 100, PollsPerElement: 50, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	long, err := CompareEstimators(EstimatorTruthConfig{N: 100, PollsPerElement: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{estimate.KindHistory, estimate.KindMLE} {
		s, err := ReportFor(short, kind)
		if err != nil {
			t.Fatal(err)
		}
		l, err := ReportFor(long, kind)
		if err != nil {
			t.Fatal(err)
		}
		if !(l.MeanRelErr < s.MeanRelErr) {
			t.Errorf("%s: relErr did not improve with polls (%v at 50, %v at 400)", kind, s.MeanRelErr, l.MeanRelErr)
		}
		if !(l.MeanUncertainty < s.MeanUncertainty) {
			t.Errorf("%s: uncertainty did not shrink with polls (%v at 50, %v at 400)", kind, s.MeanUncertainty, l.MeanUncertainty)
		}
	}
	// The naive estimator converges confidently to the wrong answer:
	// its error barely moves between budgets.
	sn, _ := ReportFor(short, estimate.KindNaive)
	ln, _ := ReportFor(long, estimate.KindNaive)
	if ln.MeanRelErr < sn.MeanRelErr-0.1 {
		t.Errorf("naive relErr improved from %v to %v — censoring bias should persist", sn.MeanRelErr, ln.MeanRelErr)
	}
}
