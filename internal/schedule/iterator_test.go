package schedule

import (
	"container/heap"
	"math"
	"runtime/debug"
	"testing"

	"freshen/internal/stats"
)

// pushPopIterator is the Iterator as first built: one heap.Push per
// funded element, and each Next a heap.Pop plus a heap.Push.
type pushPopIterator struct {
	freqs []float64
	h     eventHeap
}

func newPushPopIterator(freqs []float64, randomPhase bool, seed int64) *pushPopIterator {
	it := &pushPopIterator{freqs: append([]float64(nil), freqs...)}
	var r *stats.RNG
	if randomPhase {
		r = stats.NewRNG(seed)
	}
	for i, f := range freqs {
		if f == 0 {
			continue
		}
		interval := 1 / f
		phase := 0.5 * interval
		if r != nil {
			phase = r.Float64() * interval
		}
		heap.Push(&it.h, SyncEvent{Time: phase, Element: i})
	}
	return it
}

func (it *pushPopIterator) next() SyncEvent {
	ev := heap.Pop(&it.h).(SyncEvent)
	heap.Push(&it.h, SyncEvent{Time: ev.Time + 1/it.freqs[ev.Element], Element: ev.Element})
	return ev
}

// seededFreqs draws n frequencies: a fifth unfunded, a fifth tied at
// 1 (same half-interval phase, so order falls to the element index),
// the rest spread over [0.01, 5).
func seededFreqs(n int, seed int64) []float64 {
	r := stats.NewRNG(seed)
	freqs := make([]float64, n)
	for i := range freqs {
		switch u := r.Float64(); {
		case u < 0.2:
		case u < 0.4:
			freqs[i] = 1
		default:
			freqs[i] = 0.01 + 5*r.Float64()
		}
	}
	return freqs
}

// TestIteratorMatchesPushPopReference: an iterator whose heap is built
// by heap.Init and advanced by heap.Fix yields exactly the events, bit
// for bit, of one built by N pushes and advanced by Pop plus Push:
// the first 10,000 of a seeded N=5,000 plan, with and without random
// phases. Timeline, built the same way, matches the reference up to its
// horizon.
func TestIteratorMatchesPushPopReference(t *testing.T) {
	const n, events = 5000, 10_000
	for _, randomPhase := range []bool{true, false} {
		freqs := seededFreqs(n, 7)
		it, err := NewIterator(freqs, randomPhase, 11)
		if err != nil {
			t.Fatal(err)
		}
		ref := newPushPopIterator(freqs, randomPhase, 11)
		for k := 0; k < events; k++ {
			got, ok := it.Next()
			want := ref.next()
			if !ok || got.Element != want.Element || math.Float64bits(got.Time) != math.Float64bits(want.Time) {
				t.Fatalf("random phase %v, event %d: %+v, reference %+v", randomPhase, k, got, want)
			}
		}

		ref = newPushPopIterator(freqs, randomPhase, 11)
		const horizon = 1.5
		tl, err := Timeline(freqs, Options{Horizon: horizon, RandomPhase: randomPhase, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		for k, got := range tl {
			if want := ref.next(); got != want {
				t.Fatalf("random phase %v, timeline event %d: %+v, reference %+v", randomPhase, k, got, want)
			}
		}
		if next := ref.next(); next.Time < horizon {
			t.Fatalf("timeline stopped at %d events, reference goes on to %+v", len(tl), next)
		}
	}
}

// TestIteratorAllocations: building an iterator costs the same number
// of allocations at N=1,000 as at N=50,000 (a presized heap, not one
// boxed push per element), and Next allocates nothing. The collector
// is off while it counts: since Go 1.23 a cycle's cleanup of the
// unique package's map allocates, and at N=50,000 cycles come often.
func TestIteratorAllocations(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	small, large := seededFreqs(1000, 5), seededFreqs(50_000, 5)
	build := func(freqs []float64) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := NewIterator(freqs, true, 1); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := build(small), build(large); a != b {
		t.Errorf("NewIterator: %v allocations at N=1,000, %v at N=50,000", a, b)
	}
	it, err := NewIterator(large, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a := testing.AllocsPerRun(1000, func() { it.Next() }); a != 0 {
		t.Errorf("Next allocates %v times per call", a)
	}
}
