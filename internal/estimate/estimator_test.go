package estimate

import (
	"math"
	"testing"

	"freshen/internal/stats"
)

func TestNaiveAndChoGMBasics(t *testing.T) {
	// Half the polls detected a change at interval 1.
	naive, err := Naive(50, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if naive != 0.5 {
		t.Errorf("Naive = %v, want 0.5", naive)
	}
	cg, err := ChoGM(50, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	// -log(50.5/100.5) ≈ 0.688 — above naive, correcting the missed
	// multiple changes.
	if cg <= naive {
		t.Errorf("ChoGM %v not above Naive %v", cg, naive)
	}
	if want := -math.Log(50.5 / 100.5); math.Abs(cg-want) > 1e-12 {
		t.Errorf("ChoGM = %v, want %v", cg, want)
	}
}

func TestChoGMSaturatedHistoryFinite(t *testing.T) {
	cg, err := ChoGM(100, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(cg, 0) || math.IsNaN(cg) {
		t.Errorf("ChoGM with all changes = %v, want finite", cg)
	}
}

func TestEstimatorValidation(t *testing.T) {
	if _, err := Naive(1, 0, 1); err == nil {
		t.Error("zero polls must fail")
	}
	if _, err := Naive(-1, 10, 1); err == nil {
		t.Error("negative detections must fail")
	}
	if _, err := Naive(11, 10, 1); err == nil {
		t.Error("detections above polls must fail")
	}
	if _, err := ChoGM(1, 10, 0); err == nil {
		t.Error("zero interval must fail")
	}
}

func TestChoGMRecoversTrueRate(t *testing.T) {
	// Simulate regular polling of a known Poisson process and check
	// the bias-corrected estimator recovers λ while the naive one
	// under-estimates.
	r := stats.NewRNG(99)
	const trueLambda, interval, polls = 2.0, 0.5, 20000
	history := SimulatePolling(r, trueLambda, interval, polls)
	detections := 0
	for _, p := range history {
		if p.Changed {
			detections++
		}
	}
	cg, err := ChoGM(detections, polls, interval)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cg-trueLambda) > 0.05*trueLambda {
		t.Errorf("ChoGM = %v, want about %v", cg, trueLambda)
	}
	naive, err := Naive(detections, polls, interval)
	if err != nil {
		t.Fatal(err)
	}
	if naive >= cg {
		t.Errorf("naive %v not below bias-corrected %v at λI=1", naive, cg)
	}
}

func TestMLEMatchesChoGMOnRegularPolls(t *testing.T) {
	r := stats.NewRNG(4)
	history := SimulatePolling(r, 1.5, 0.4, 5000)
	detections := 0
	for _, p := range history {
		if p.Changed {
			detections++
		}
	}
	mle, err := MLE(history)
	if err != nil {
		t.Fatal(err)
	}
	cg, err := ChoGM(detections, len(history), 0.4)
	if err != nil {
		t.Fatal(err)
	}
	// On regular intervals the MLE is −log(1−X/n)/I; ChoGM differs
	// only by the half-count correction, negligible at n=5000.
	if math.Abs(mle-cg) > 0.01*cg {
		t.Errorf("MLE %v vs ChoGM %v", mle, cg)
	}
}

func TestMLEIrregularIntervals(t *testing.T) {
	// Two short polls without changes and one long poll with a change
	// must yield a finite positive rate.
	history := []Poll{
		{Elapsed: 0.1, Changed: false},
		{Elapsed: 0.1, Changed: false},
		{Elapsed: 5, Changed: true},
	}
	mle, err := MLE(history)
	if err != nil {
		t.Fatal(err)
	}
	if !(mle > 0) || math.IsInf(mle, 0) {
		t.Errorf("MLE = %v, want finite positive", mle)
	}
}

func TestMLEEdgeCases(t *testing.T) {
	if _, err := MLE(nil); err == nil {
		t.Error("empty history must fail")
	}
	if _, err := MLE([]Poll{{Elapsed: 0, Changed: true}}); err == nil {
		t.Error("zero elapsed must fail")
	}
	// No changes ever: the MLE is exactly 0.
	got, err := MLE([]Poll{{Elapsed: 1, Changed: false}, {Elapsed: 2, Changed: false}})
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Errorf("no-change MLE = %v, want 0", got)
	}
	// All changes: finite capped estimate.
	got, err = MLE([]Poll{{Elapsed: 1, Changed: true}, {Elapsed: 1, Changed: true}})
	if err != nil {
		t.Fatal(err)
	}
	if !(got > 0) || math.IsInf(got, 0) {
		t.Errorf("all-change MLE = %v, want finite positive", got)
	}
}

func TestTracker(t *testing.T) {
	tr, err := NewTracker(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Record(0, 1, true); err != nil {
		t.Fatal(err)
	}
	if err := tr.Record(0, 1, false); err != nil {
		t.Fatal(err)
	}
	if got := tr.Estimate(0).Polls; got != 2 {
		t.Errorf("Estimate(0).Polls = %d, want 2", got)
	}
	if got := tr.Estimate(1).Polls; got != 0 {
		t.Errorf("Estimate(1).Polls = %d, want 0", got)
	}
	if got := tr.Estimate(-1).Polls; got != 0 {
		t.Errorf("Estimate(-1).Polls = %d, want 0", got)
	}
	ests, err := tr.Estimates(7.5)
	if err != nil {
		t.Fatal(err)
	}
	if ests[1] != 7.5 || ests[2] != 7.5 {
		t.Errorf("unpolled elements should use the fallback: %v", ests)
	}
	if !(ests[0] > 0) {
		t.Errorf("polled element estimate %v, want positive", ests[0])
	}
}

func TestTrackerValidation(t *testing.T) {
	if _, err := NewTracker(0); err == nil {
		t.Error("zero elements must fail")
	}
	tr, err := NewTracker(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Record(5, 1, true); err == nil {
		t.Error("out-of-range element must fail")
	}
	if err := tr.Record(0, -1, true); err == nil {
		t.Error("negative elapsed must fail")
	}
}

func TestTrackerEstimatesRecoverRates(t *testing.T) {
	r := stats.NewRNG(123)
	tr, err := NewTracker(2)
	if err != nil {
		t.Fatal(err)
	}
	trueRates := []float64{0.5, 3.0}
	for elem, lambda := range trueRates {
		for _, p := range SimulatePolling(r, lambda, 0.5, 5000) {
			if err := tr.Record(elem, p.Elapsed, p.Changed); err != nil {
				t.Fatal(err)
			}
		}
	}
	ests, err := tr.Estimates(0)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range trueRates {
		if math.Abs(ests[i]-want) > 0.1*want {
			t.Errorf("element %d estimate %v, want about %v", i, ests[i], want)
		}
	}
}
