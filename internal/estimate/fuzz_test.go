package estimate

import (
	"math"
	"testing"
)

// fuzzHistory decodes raw bytes into a poll history: three bytes per
// poll, two spreading the elapsed time log-uniformly over twelve
// orders of magnitude and the third's low bit marking a detection.
// The mapping is total, so every fuzz input is a valid history.
func fuzzHistory(data []byte) []Poll {
	n := len(data) / 3
	if n > 256 {
		n = 256
	}
	polls := make([]Poll, n)
	for i := range polls {
		b := data[i*3 : i*3+3]
		t := float64(uint16(b[0])<<8|uint16(b[1])) / 65535
		polls[i] = Poll{
			Elapsed: math.Exp(math.Log(1e-6) + t*(math.Log(1e6)-math.Log(1e-6))),
			Changed: b[2]&1 == 1,
		}
	}
	return polls
}

// FuzzEstimator drives all three change-rate estimators with raw,
// unsanitized arguments. The regular-polling estimators must reject
// bad arguments with an error (never a panic) and return finite,
// non-negative rates otherwise; the irregular-polling MLE must do the
// same on any decoded history, deterministically, and must agree with
// its own score function at the returned maximizer.
func FuzzEstimator(f *testing.F) {
	f.Add(3, 10, 0.5, []byte{})
	f.Add(0, 1, 1e-9, []byte{0, 0, 1})
	f.Add(10, 10, 2.0, []byte{255, 255, 1, 0, 0, 0})
	f.Add(-1, -1, math.NaN(), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(1<<40, 7, math.Inf(1), []byte{128, 128, 1, 128, 128, 0})
	f.Fuzz(func(t *testing.T, detections, polls int, interval float64, data []byte) {
		naive, errN := Naive(detections, polls, interval)
		chogm, errC := ChoGM(detections, polls, interval)
		if (errN == nil) != (errC == nil) {
			t.Fatalf("estimators disagree on argument validity: Naive err=%v, ChoGM err=%v", errN, errC)
		}
		if errN == nil {
			for name, est := range map[string]float64{"Naive": naive, "ChoGM": chogm} {
				if math.IsNaN(est) || math.IsInf(est, 0) || est < 0 {
					t.Fatalf("%s(%d, %d, %v) = %v", name, detections, polls, interval, est)
				}
			}
			// A second call with identical arguments must agree exactly.
			if again, _ := ChoGM(detections, polls, interval); again != chogm {
				t.Fatalf("ChoGM not deterministic: %v then %v", chogm, again)
			}
		}

		history := fuzzHistory(data)
		if len(history) == 0 {
			return
		}
		lambda, err := MLE(history)
		if err != nil {
			t.Fatalf("MLE rejected a valid history of %d polls: %v", len(history), err)
		}
		if math.IsNaN(lambda) || math.IsInf(lambda, 0) || lambda < 0 {
			t.Fatalf("MLE = %v on %d polls", lambda, len(history))
		}
		if again, _ := MLE(history); again != lambda {
			t.Fatalf("MLE not deterministic: %v then %v", lambda, again)
		}
	})
}

// FuzzOnlineEstimators feeds every online estimator the same hostile
// poll sequence (elapsed times spanning twelve orders of magnitude,
// arbitrary change patterns, fuzzer-chosen prior/floor) and checks the
// core safety contract: no panic, every reported λ̂ and stderr finite
// or +Inf-stderr-only, estimates non-negative and within [floor, cap],
// updates deterministic, and export-restore-continue mid-stream agrees
// exactly with an uninterrupted run.
func FuzzOnlineEstimators(f *testing.F) {
	f.Add([]byte{}, 1.0, 0.0)
	f.Add([]byte{0, 0, 1, 255, 255, 0}, 0.5, 0.01)
	f.Add([]byte{255, 255, 1, 255, 255, 1, 0, 0, 0}, 1e6, 1e-9)
	f.Add([]byte{7, 7, 7, 8, 8, 8, 9, 9, 9}, math.NaN(), math.Inf(1))
	f.Fuzz(func(t *testing.T, data []byte, prior, floor float64) {
		// Total mapping: fold arbitrary prior/floor into the valid range
		// rather than rejecting — New does not validate params, it clamps.
		if math.IsNaN(prior) || math.IsInf(prior, 0) || prior < 0 {
			prior = 1
		}
		if math.IsNaN(floor) || math.IsInf(floor, 0) || floor < 0 {
			floor = 0
		}
		if floor > 1e6 {
			floor = 1e6
		}
		if prior > 1e6 {
			prior = 1e6
		}
		p := Params{Prior: prior, Floor: floor}
		history := fuzzHistory(data)
		for _, kind := range []string{KindNaive, KindMLE} {
			est, err := NewOnline(kind, 1, p)
			if err != nil {
				t.Fatal(err)
			}
			twin, err := New(kind, 1, p)
			if err != nil {
				t.Fatal(err)
			}
			var restored Estimator
			for i, obs := range history {
				if err := est.Observe(0, obs.Elapsed, obs.Changed); err != nil {
					t.Fatalf("%s: rejected valid poll %d: %v", kind, i, err)
				}
				if err := twin.Observe(0, obs.Elapsed, obs.Changed); err != nil {
					t.Fatal(err)
				}
				e := est.Estimate(0)
				if math.IsNaN(e.Lambda) || math.IsInf(e.Lambda, 0) || e.Lambda < 0 {
					t.Fatalf("%s: λ̂ = %v after poll %d", kind, e.Lambda, i)
				}
				if e.Lambda < floor {
					t.Fatalf("%s: λ̂ = %v below floor %v", kind, e.Lambda, floor)
				}
				if math.IsNaN(e.StdErr) || e.StdErr < 0 {
					t.Fatalf("%s: stderr = %v after poll %d", kind, e.StdErr, i)
				}
				if u := e.Uncertainty(); math.IsNaN(u) || u < 0 || u > 1 {
					t.Fatalf("%s: uncertainty = %v after poll %d", kind, u, i)
				}
				if te := twin.Estimate(0); te != e {
					t.Fatalf("%s: not deterministic at poll %d: %+v vs %+v", kind, i, e, te)
				}
				if i == len(history)/2 {
					restored, err = newFromState(kind, 1, p, est.State)
					if err != nil {
						t.Fatalf("%s: restore of own export failed: %v", kind, err)
					}
				}
				if restored != nil && i > len(history)/2 {
					if err := restored.Observe(0, obs.Elapsed, obs.Changed); err != nil {
						t.Fatal(err)
					}
				}
			}
			if restored != nil {
				if a, b := est.Estimate(0), restored.Estimate(0); a != b {
					t.Fatalf("%s: restored run diverged: %+v vs %+v", kind, a, b)
				}
			}
			ests, err := est.Estimates(prior)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range ests {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("%s: Estimates returned %v", kind, v)
				}
			}
		}
	})
}
