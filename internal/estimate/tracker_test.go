package estimate

import (
	"math"
	"reflect"
	"testing"

	"freshen/internal/stats"
)

// Export returns a deep copy of every element's poll history, the
// tracker's whole state.
func (t *Tracker) Export() [][]Poll {
	out := make([][]Poll, len(t.histories))
	for i, h := range t.histories {
		if len(h) > 0 {
			out[i] = append([]Poll(nil), h...)
		}
	}
	return out
}

// NewTrackerFromHistories replays histories through Record into a new
// tracker, so every poll is validated.
func NewTrackerFromHistories(histories [][]Poll) (*Tracker, error) {
	t, err := NewTracker(len(histories))
	if err != nil {
		return nil, err
	}
	for i, h := range histories {
		for _, p := range h {
			if err := t.Record(i, p.Elapsed, p.Changed); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// TestTrackerExportImportRoundTrip checks that a tracker's estimates
// are a function of its recorded polls alone: replaying the same
// histories into a new tracker reproduces them byte for byte, which is
// what makes it a reproducible baseline.
func TestTrackerExportImportRoundTrip(t *testing.T) {
	r := stats.NewRNG(3)
	tr, err := NewTracker(4)
	if err != nil {
		t.Fatal(err)
	}
	for elem, lambda := range []float64{2, 0.5, 0.1, 1} {
		for _, p := range SimulatePolling(r, lambda, 0.5, 40) {
			if err := tr.Record(elem, p.Elapsed, p.Changed); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Element 3 gets an extra irregular poll so histories differ.
	if err := tr.Record(3, 2.5, true); err != nil {
		t.Fatal(err)
	}

	exported := tr.Export()
	rebuilt, err := NewTrackerFromHistories(exported)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tr.Estimates(1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rebuilt.Estimates(1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("rebuilt estimates %v != original %v", got, want)
	}
	for i := range exported {
		if got, want := rebuilt.Estimate(i).Polls, tr.Estimate(i).Polls; got != want {
			t.Errorf("element %d: rebuilt %d polls, original %d", i, got, want)
		}
	}
}

// TestTrackerExportIsDeepCopy mutates the export and checks the
// tracker is unaffected (and vice versa).
func TestTrackerExportIsDeepCopy(t *testing.T) {
	tr, err := NewTracker(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Record(0, 1, true); err != nil {
		t.Fatal(err)
	}
	exp := tr.Export()
	exp[0][0].Elapsed = 99
	again := tr.Export()
	if again[0][0].Elapsed != 1 {
		t.Error("export aliases tracker history")
	}
}

// TestTrackerRoundTripShapes drives Export/NewTrackerFromHistories
// through degenerate shapes — empty trackers, elements with no
// history, single-poll elements, mixed lengths — and requires the
// round trip to preserve every poll and every estimate exactly.
func TestTrackerRoundTripShapes(t *testing.T) {
	cases := []struct {
		name      string
		histories [][]Poll
	}{
		{
			name:      "all empty",
			histories: [][]Poll{nil, nil, nil},
		},
		{
			name:      "single element single poll changed",
			histories: [][]Poll{{{Elapsed: 0.5, Changed: true}}},
		},
		{
			name:      "single element single poll unchanged",
			histories: [][]Poll{{{Elapsed: 2, Changed: false}}},
		},
		{
			name: "mixed lengths with gaps",
			histories: [][]Poll{
				{{Elapsed: 1, Changed: true}, {Elapsed: 0.25, Changed: false}, {Elapsed: 3, Changed: true}},
				nil,
				{{Elapsed: 0.125, Changed: false}},
				{{Elapsed: 10, Changed: true}, {Elapsed: 10, Changed: true}},
			},
		},
		{
			name: "irregular elapsed spread",
			histories: [][]Poll{
				{{Elapsed: 1e-6, Changed: false}, {Elapsed: 1e3, Changed: true}},
				{{Elapsed: 0.7, Changed: true}},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, err := NewTracker(len(tc.histories))
			if err != nil {
				t.Fatal(err)
			}
			for i, h := range tc.histories {
				for _, p := range h {
					if err := tr.Record(i, p.Elapsed, p.Changed); err != nil {
						t.Fatal(err)
					}
				}
			}

			exported := tr.Export()
			if len(exported) != len(tc.histories) {
				t.Fatalf("Export length %d, want %d", len(exported), len(tc.histories))
			}
			for i, h := range tc.histories {
				if len(h) == 0 {
					if exported[i] != nil {
						t.Errorf("element %d: exported %v, want nil", i, exported[i])
					}
					continue
				}
				if !reflect.DeepEqual(exported[i], h) {
					t.Errorf("element %d: exported %v, want %v", i, exported[i], h)
				}
			}

			rebuilt, err := NewTrackerFromHistories(exported)
			if err != nil {
				t.Fatal(err)
			}
			for i := range tc.histories {
				if got, want := rebuilt.Estimate(i).Polls, tr.Estimate(i).Polls; got != want {
					t.Errorf("element %d: rebuilt polls %d, want %d", i, got, want)
				}
			}
			want, err := tr.Estimates(4.2)
			if err != nil {
				t.Fatal(err)
			}
			got, err := rebuilt.Estimates(4.2)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("rebuilt estimates %v, want %v", got, want)
			}
		})
	}
}

// TestTrackerFloor pins the cold-start fix: a zero-change history
// reports λ̂ = 0 on a bare tracker (historical behavior) but is floored
// once params carry a positive floor, so the scheduler keeps probing
// the element instead of starving it of budget forever.
func TestTrackerFloor(t *testing.T) {
	mk := func() *Tracker {
		tr, err := NewTracker(2)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			if err := tr.Record(0, 1, false); err != nil {
				t.Fatal(err)
			}
		}
		return tr
	}

	bare := mk()
	ests, err := bare.Estimates(1)
	if err != nil {
		t.Fatal(err)
	}
	if ests[0] != 0 {
		t.Errorf("bare tracker zero-change estimate %v, want 0", ests[0])
	}
	if ests[1] != 1 {
		t.Errorf("unpolled fallback %v, want 1", ests[1])
	}

	floored := mk()
	floored.SetParams(Params{Prior: 1, Floor: 0.05})
	ests, err = floored.Estimates(1)
	if err != nil {
		t.Fatal(err)
	}
	if ests[0] != 0.05 {
		t.Errorf("floored zero-change estimate %v, want 0.05", ests[0])
	}

	// The floor never drags a well-observed estimate down.
	busy := mk()
	busy.SetParams(Params{Prior: 1, Floor: 0.05})
	for i := 0; i < 50; i++ {
		if err := busy.Record(1, 0.5, i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	ests, err = busy.Estimates(1)
	if err != nil {
		t.Fatal(err)
	}
	if !(ests[1] > 0.05) {
		t.Errorf("observed estimate %v should exceed the floor", ests[1])
	}
}

// TestTrackerEstimatorInterface exercises the Tracker through the
// Estimator interface: kind, per-element confidence, and the unpolled
// prior.
func TestTrackerEstimatorInterface(t *testing.T) {
	est, err := New(KindHistory, 3, Params{Prior: 2, Floor: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if est.Kind() != KindHistory {
		t.Errorf("Kind = %q", est.Kind())
	}
	if est.Elements() != 3 {
		t.Errorf("Elements = %d", est.Elements())
	}

	e := est.Estimate(0)
	if e.Polls != 0 || e.Lambda != 2 || !math.IsInf(e.StdErr, 1) || e.Uncertainty() != 1 {
		t.Errorf("unpolled estimate %+v (u=%v)", e, e.Uncertainty())
	}
	// Out-of-range elements report the same total uncertainty.
	if u := est.Estimate(99).Uncertainty(); u != 1 {
		t.Errorf("out-of-range uncertainty %v, want 1", u)
	}

	for i := 0; i < 200; i++ {
		if err := est.Observe(0, 0.5, i%3 == 0); err != nil {
			t.Fatal(err)
		}
	}
	e = est.Estimate(0)
	if e.Polls != 200 {
		t.Errorf("Polls = %d, want 200", e.Polls)
	}
	if !(e.Lambda > 0) || math.IsInf(e.Lambda, 0) {
		t.Errorf("Lambda = %v", e.Lambda)
	}
	if !(e.StdErr > 0) || math.IsInf(e.StdErr, 0) {
		t.Errorf("StdErr = %v", e.StdErr)
	}
	if u := e.Uncertainty(); !(u > 0 && u < 0.5) {
		t.Errorf("well-observed uncertainty %v, want small positive", u)
	}
}

func TestNewTrackerFromHistoriesValidation(t *testing.T) {
	cases := []struct {
		name string
		h    [][]Poll
	}{
		{"empty", nil},
		{"zero elapsed", [][]Poll{{{Elapsed: 0, Changed: true}}}},
		{"negative elapsed", [][]Poll{{{Elapsed: -1}}}},
		{"NaN elapsed", [][]Poll{{{Elapsed: math.NaN()}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewTrackerFromHistories(tc.h); err == nil {
				t.Error("invalid histories accepted")
			}
		})
	}
	// Elements with no history are fine — they fall back to the prior.
	tr, err := NewTrackerFromHistories([][]Poll{nil, {{Elapsed: 1, Changed: false}}})
	if err != nil {
		t.Fatal(err)
	}
	ests, err := tr.Estimates(7)
	if err != nil {
		t.Fatal(err)
	}
	if ests[0] != 7 {
		t.Errorf("history-less element estimate = %v, want the prior 7", ests[0])
	}
}
