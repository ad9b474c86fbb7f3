package estimate

import (
	"math"
	"testing"
	"unsafe"

	"freshen/internal/stats"
)

func onlineKinds() []string { return []string{KindNaive, KindMLE} }

func TestNewValidation(t *testing.T) {
	if _, err := New("bogus", 4, Params{}); err == nil {
		t.Error("unknown kind accepted")
	}
	for _, kind := range Kinds() {
		if _, err := New(kind, 0, Params{}); err == nil {
			t.Errorf("%s: zero elements accepted", kind)
		}
		est, err := New(kind, 4, Params{Prior: 1})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if est.Kind() != kind || est.Elements() != 4 {
			t.Errorf("%s: Kind=%q Elements=%d", kind, est.Kind(), est.Elements())
		}
	}
}

func TestOnlineObserveValidation(t *testing.T) {
	for _, kind := range onlineKinds() {
		est, err := New(kind, 2, Params{Prior: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := est.Observe(-1, 1, true); err == nil {
			t.Errorf("%s: negative element accepted", kind)
		}
		if err := est.Observe(2, 1, true); err == nil {
			t.Errorf("%s: out-of-range element accepted", kind)
		}
		if err := est.Observe(0, 0, true); err == nil {
			t.Errorf("%s: zero elapsed accepted", kind)
		}
		if err := est.Observe(0, math.NaN(), true); err == nil {
			t.Errorf("%s: NaN elapsed accepted", kind)
		}
		if err := est.Observe(0, math.Inf(1), true); err == nil {
			t.Errorf("%s: infinite elapsed accepted", kind)
		}
		// A rejected observation must not count.
		if got := est.Estimate(0).Polls; got != 0 {
			t.Errorf("%s: rejected observation counted, polls=%d", kind, got)
		}
	}
}

// TestOnlineConvergence polls a known Poisson process at a regular
// interval and checks each online estimator's bias profile: mle lands
// near the true rate while naive stays biased low by its missed
// multiple changes (λτ = 1 here, so the bias is large and persistent).
func TestOnlineConvergence(t *testing.T) {
	const trueLambda, interval, polls = 2.0, 0.5, 8000
	for _, kind := range onlineKinds() {
		r := stats.NewRNG(7)
		est, err := New(kind, 1, Params{Prior: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range SimulatePolling(r, trueLambda, interval, polls) {
			if err := est.Observe(0, p.Elapsed, p.Changed); err != nil {
				t.Fatal(err)
			}
		}
		e := est.Estimate(0)
		switch kind {
		case KindNaive:
			// E[naive] = q/τ = (1−e^(−1))/0.5 ≈ 1.264.
			if !(e.Lambda < 0.75*trueLambda) {
				t.Errorf("naive λ̂ = %v, want visibly below %v", e.Lambda, trueLambda)
			}
		default:
			if math.Abs(e.Lambda-trueLambda) > 0.15*trueLambda {
				t.Errorf("%s λ̂ = %v, want about %v", kind, e.Lambda, trueLambda)
			}
		}
		if !(e.StdErr > 0) || math.IsInf(e.StdErr, 0) {
			t.Errorf("%s StdErr = %v", kind, e.StdErr)
		}
		if u := e.Uncertainty(); !(u >= 0 && u < 0.25) {
			t.Errorf("%s uncertainty after %d polls = %v, want small", kind, polls, u)
		}
	}
}

// TestOnlineIrregularIntervals checks mle handles the interval
// mix a real mirror produces (every element's polling cadence changes
// at each replan).
func TestOnlineIrregularIntervals(t *testing.T) {
	const trueLambda = 1.5
	intervals := []float64{0.1, 0.5, 1.3, 0.25, 2.0}
	for _, kind := range []string{KindMLE} {
		r := stats.NewRNG(21)
		est, err := New(kind, 1, Params{Prior: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12000; i++ {
			tau := intervals[i%len(intervals)]
			q := -math.Expm1(-trueLambda * tau)
			if err := est.Observe(0, tau, r.Float64() < q); err != nil {
				t.Fatal(err)
			}
		}
		got := est.Estimate(0).Lambda
		if math.Abs(got-trueLambda) > 0.15*trueLambda {
			t.Errorf("%s λ̂ = %v on irregular intervals, want about %v", kind, got, trueLambda)
		}
	}
}

func TestOnlineFloorAndFallback(t *testing.T) {
	for _, kind := range onlineKinds() {
		est, err := New(kind, 2, Params{Prior: 1, Floor: 0.02})
		if err != nil {
			t.Fatal(err)
		}
		// A long run of no-change polls drives the estimate down but the
		// report never goes below the floor.
		for i := 0; i < 500; i++ {
			if err := est.Observe(0, 1, false); err != nil {
				t.Fatal(err)
			}
		}
		ests, err := est.Estimates(1)
		if err != nil {
			t.Fatal(err)
		}
		if ests[0] < 0.02 {
			t.Errorf("%s: floored estimate %v below floor", kind, ests[0])
		}
		if ests[1] != 1 {
			t.Errorf("%s: unpolled fallback %v, want 1", kind, ests[1])
		}
	}
}

// TestOnlineExportRestoreContinuity is the persistence contract: an
// estimator exported mid-stream, restored into a new one, and fed the
// remaining observations must agree exactly with one that never
// stopped — restarts lose no convergence progress. Element 1 is first
// polled after the restart, so with its state left zero it must come
// back at the prior, exactly as if it had never been exported.
func TestOnlineExportRestoreContinuity(t *testing.T) {
	const polls = 400
	for _, kind := range onlineKinds() {
		r := stats.NewRNG(11)
		stream := SimulatePolling(r, 1.2, 0.7, polls)
		p := Params{Prior: 0.5, Floor: 0.01}

		full, err := New(kind, 2, p)
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := NewOnline(kind, 2, p)
		if err != nil {
			t.Fatal(err)
		}
		for i, obs := range stream {
			if err := full.Observe(0, obs.Elapsed, obs.Changed); err != nil {
				t.Fatal(err)
			}
			if i < polls/2 {
				if err := resumed.Observe(0, obs.Elapsed, obs.Changed); err != nil {
					t.Fatal(err)
				}
			} else if err := full.Observe(1, obs.Elapsed, obs.Changed); err != nil {
				t.Fatal(err)
			}
		}
		// Element 1 is unpolled, so its state reads as zero.
		if st := resumed.State(1); st != (ElementState{}) {
			t.Fatalf("%s: unpolled element state %+v, want zero", kind, st)
		}
		restored, err := newFromState(kind, 2, p, resumed.State)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		for _, obs := range stream[polls/2:] {
			for elem := 0; elem < 2; elem++ {
				if err := restored.Observe(elem, obs.Elapsed, obs.Changed); err != nil {
					t.Fatal(err)
				}
			}
		}
		for elem := 0; elem < 2; elem++ {
			if a, b := full.Estimate(elem), restored.Estimate(elem); a != b {
				t.Errorf("%s element %d: uninterrupted %+v != restored %+v", kind, elem, a, b)
			}
		}
	}
}

// newFromState builds an online estimator and restores it from state,
// as a recovering mirror does.
func newFromState(kind string, n int, p Params, state func(int) ElementState) (*Online, error) {
	e, err := NewOnline(kind, n, p)
	if err != nil {
		return nil, err
	}
	return e, e.Restore(state)
}

// TestNewFromStateValidation: building an estimator from persisted
// state rejects an estimator kind without O(1) state, an empty
// catalog, and every invalid element state.
func TestNewFromStateValidation(t *testing.T) {
	ok := ElementState{Lambda: 1, Info: 2, Polls: 3, Changes: 1, SumElapsed: 3}
	cases := []struct {
		name string
		kind string
		n    int
		st   ElementState
	}{
		{"unknown kind", "bogus", 1, ok},
		{"history kind", KindHistory, 1, ok},
		{"no elements", KindMLE, 0, ok},
		{"negative rate", KindMLE, 1, ElementState{Lambda: -1}},
		{"NaN rate", KindMLE, 1, ElementState{Lambda: math.NaN()}},
		{"infinite rate", KindMLE, 1, ElementState{Lambda: math.Inf(1)}},
		{"negative info", KindMLE, 1, ElementState{Lambda: 1, Info: -1}},
		{"changes above polls", KindMLE, 1, ElementState{Lambda: 1, Polls: 1, Changes: 2}},
		{"negative observed time", KindMLE, 1, ElementState{Lambda: 1, SumElapsed: -1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := newFromState(tc.kind, tc.n, Params{}, func(int) ElementState { return tc.st }); err == nil {
				t.Error("invalid state accepted")
			}
		})
	}
}

// TestOnlineRestoreAllOrNothing: Restore loads a valid state in place,
// and a state rejected at any element loads nothing, the valid
// elements before it included.
func TestOnlineRestoreAllOrNothing(t *testing.T) {
	p := Params{Prior: 0.5}
	e, err := NewOnline(KindMLE, 2, p)
	if err != nil {
		t.Fatal(err)
	}
	ok := ElementState{Lambda: 1, Info: 2, Polls: 3, Changes: 1, SumElapsed: 3}
	states := []ElementState{ok, {Lambda: -1}}
	if err := e.Restore(func(i int) ElementState { return states[i] }); err == nil {
		t.Fatal("invalid state accepted")
	}
	for i := range states {
		if got := e.Estimate(i); got.Polls != 0 || got.Lambda != p.Prior {
			t.Errorf("element %d after a rejected restore: %+v, want the prior", i, got)
		}
	}
	if err := e.Restore(func(int) ElementState { return ok }); err != nil {
		t.Fatal(err)
	}
	for i := range states {
		if got := e.State(i); got != ok {
			t.Errorf("element %d restored as %+v, want %+v", i, got, ok)
		}
	}
}

// TestOnlineElemSize pins one element's online state at 32 B: three
// float64s and two uint32 counts.
func TestOnlineElemSize(t *testing.T) {
	if got := unsafe.Sizeof(onlineElem{}); got != 32 {
		t.Errorf("onlineElem is %d B, want 32", got)
	}
}

// TestOnlineCountsSaturate: the poll and change counts stop at 2³²−1
// and the observed time with them. An element restored at 2³²−2 polls
// counts one more poll and then holds, changes never passes polls, and
// λ̂ and the information keep moving on every observation. Restore
// loads a history of 2⁴⁰ polls scaled down to 2³²−1, keeping its
// change ratio, its mean poll spacing and whether every poll changed.
func TestOnlineCountsSaturate(t *testing.T) {
	const most = math.MaxUint32
	e, err := newFromState(KindMLE, 1, Params{}, func(int) ElementState {
		return ElementState{Lambda: 1, Info: 10, Polls: most - 1, Changes: most - 2, SumElapsed: 1e9}
	})
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 3; k++ {
		before := e.State(0)
		if err := e.Observe(0, 1, true); err != nil {
			t.Fatal(err)
		}
		got := e.State(0)
		if got.Polls != most || got.Changes != most-1 || got.SumElapsed != 1e9+1 || e.Estimate(0).Polls != most {
			t.Errorf("observation %d: %d changes over %d polls in %v (Estimate says %d polls), want %d over %d in %v",
				k, got.Changes, got.Polls, got.SumElapsed, e.Estimate(0).Polls, most-1, most, 1e9+1)
		}
		if got.Lambda == before.Lambda || got.Info <= before.Info {
			t.Errorf("observation %d past saturation: λ̂ %v and information %v did not move from %v and %v",
				k, got.Lambda, got.Info, before.Lambda, before.Info)
		}
	}
	for _, c := range []struct{ polls, changes int }{
		{1 << 40, 5},
		{1 << 40, 1 << 36},
		{1 << 40, 1<<40 - 1},
		{1 << 40, 1 << 40},
	} {
		e, err := newFromState(KindMLE, 1, Params{}, func(int) ElementState {
			return ElementState{Lambda: 1, Info: 10, Polls: c.polls, Changes: c.changes, SumElapsed: 1 << 42}
		})
		if err != nil {
			t.Fatalf("%d changes over %d polls refused: %v", c.changes, c.polls, err)
		}
		got := e.State(0)
		ratio, want := float64(got.Changes)/most, float64(c.changes)/float64(c.polls)
		if got.Polls != most || math.Abs(ratio-want) > 1.0/most || (got.Changes == got.Polls) != (c.changes == c.polls) {
			t.Errorf("%d changes over %d polls restored as %d over %d", c.changes, c.polls, got.Changes, got.Polls)
		}
		if spacing := got.SumElapsed / most; math.Abs(spacing-4) > 1e-9 {
			t.Errorf("%d polls over %v restored %v apart, want 4", c.polls, float64(1<<42), spacing)
		}
	}
}

// TestUncertaintyShrinks checks the confidence model the explore
// policy depends on: uncertainty starts at 1 and falls monotonically
// toward 0 as observations accumulate.
func TestUncertaintyShrinks(t *testing.T) {
	for _, kind := range onlineKinds() {
		r := stats.NewRNG(5)
		est, err := New(kind, 1, Params{Prior: 1})
		if err != nil {
			t.Fatal(err)
		}
		if u := est.Estimate(0).Uncertainty(); u != 1 {
			t.Fatalf("%s: unpolled uncertainty %v, want 1", kind, u)
		}
		prev := 1.0
		checkpoints := map[int]bool{10: true, 100: true, 1000: true}
		for i := 1; i <= 1000; i++ {
			q := -math.Expm1(-1.0 * 0.5)
			if err := est.Observe(0, 0.5, r.Float64() < q); err != nil {
				t.Fatal(err)
			}
			if checkpoints[i] {
				u := est.Estimate(0).Uncertainty()
				if !(u < prev) {
					t.Errorf("%s: uncertainty %v at %d polls not below %v", kind, u, i, prev)
				}
				prev = u
			}
		}
	}
}
