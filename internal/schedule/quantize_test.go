package schedule

import (
	"math"
	"testing"
	"testing/quick"
)

func TestQuantizePreservesBudget(t *testing.T) {
	freqs := []float64{1.15, 1.36, 1.35, 1.14, 0.0}
	counts, err := Quantize(freqs)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 5 {
		t.Errorf("total %d, want round(5.0) = 5", total)
	}
	// Floors sum to 4 against a budget of 5: one leftover slot goes to
	// the largest remainder (0.36).
	want := []int{1, 2, 1, 1, 0}
	for i := range want {
		if counts[i] != want[i] {
			t.Errorf("counts = %v, want %v", counts, want)
			break
		}
	}
}

func TestQuantizeExactIntegers(t *testing.T) {
	counts, err := Quantize([]float64{2, 0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 2 || counts[1] != 0 || counts[2] != 3 {
		t.Errorf("counts = %v", counts)
	}
}

func TestQuantizeValidation(t *testing.T) {
	if _, err := Quantize([]float64{-1}); err == nil {
		t.Error("negative frequency must fail")
	}
	if _, err := Quantize([]float64{math.NaN()}); err == nil {
		t.Error("NaN must fail")
	}
}

func TestQuantizePropertyBudgetAndProximity(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		freqs := make([]float64, len(raw))
		var total float64
		for i, v := range raw {
			freqs[i] = float64(v%800) / 100
			total += freqs[i]
		}
		counts, err := Quantize(freqs)
		if err != nil {
			return false
		}
		sum := 0
		for i, c := range counts {
			// Each count is within 1 of its frequency.
			if math.Abs(float64(c)-freqs[i]) >= 1 {
				return false
			}
			sum += c
		}
		return sum == int(math.Round(total))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuantizedFreqs(t *testing.T) {
	got := QuantizedFreqs([]int{0, 2, 5})
	if got[0] != 0 || got[1] != 2 || got[2] != 5 {
		t.Errorf("QuantizedFreqs = %v", got)
	}
}

func TestIteratorMatchesTimeline(t *testing.T) {
	freqs := []float64{1.5, 0, 3.7}
	events, err := Timeline(freqs, Options{Horizon: 10})
	if err != nil {
		t.Fatal(err)
	}
	it, err := NewIterator(freqs, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range events {
		got, ok := it.Next()
		if !ok {
			t.Fatalf("iterator dried up at %d", i)
		}
		if math.Abs(got.Time-want.Time) > 1e-9 || got.Element != want.Element {
			t.Fatalf("event %d: iterator %+v vs timeline %+v", i, got, want)
		}
	}
	// And it keeps going past any horizon.
	next, ok := it.Next()
	if !ok || next.Time < 10 {
		t.Errorf("iterator should continue past the horizon, got %+v ok=%v", next, ok)
	}
}

func TestIteratorEmptyAndPeek(t *testing.T) {
	it, err := NewIterator([]float64{0, 0}, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.Next(); ok {
		t.Error("all-zero iterator must be empty")
	}
	if _, ok := it.Peek(); ok {
		t.Error("all-zero iterator Peek must be empty")
	}

	it, err = NewIterator([]float64{2}, false, 0)
	if err != nil {
		t.Fatal(err)
	}
	p1, ok := it.Peek()
	if !ok {
		t.Fatal("peek failed")
	}
	n1, _ := it.Next()
	if p1 != n1 {
		t.Errorf("Peek %+v != Next %+v", p1, n1)
	}
}

func TestIteratorValidation(t *testing.T) {
	if _, err := NewIterator([]float64{-1}, false, 0); err == nil {
		t.Error("negative frequency must fail")
	}
}
