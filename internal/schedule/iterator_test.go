package schedule

import (
	"container/heap"
	"math"
	"runtime/debug"
	"slices"
	"testing"
	"unsafe"

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

// eventHeap is the reference's min-heap of SyncEvents by time, with
// the element index as the tiebreak.
type eventHeap []SyncEvent

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].Time != h[j].Time {
		return h[i].Time < h[j].Time
	}
	return h[i].Element < h[j].Element
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(SyncEvent)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	*h = old[:n-1]
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

// TestIteratorEntrySize pins the iterator's one per-element cost: a
// funded element's heap entry (due time, frequency, int32 id, explore
// mark) is 24 B. An unfunded element has none.
func TestIteratorEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 24 {
		t.Errorf("an iterator entry is %d B, want 24", got)
	}
}

// TestIteratorOwnsItsFrequencies: an iterator keeps no reference to
// the vector it was built on. Zeroing, negating or raising entries of
// that vector after NewIterator changes none of the next 10,000
// events, which match an iterator built on an untouched copy.
func TestIteratorOwnsItsFrequencies(t *testing.T) {
	freqs := seededFreqs(2000, 3)
	it, err := NewIterator(freqs, true, 9)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := NewIterator(slices.Clone(freqs), true, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range freqs {
		switch i % 3 {
		case 0:
			freqs[i] = 0
		case 1:
			freqs[i] = -freqs[i]
		default:
			freqs[i] *= 1000
		}
	}
	for k := 0; k < 10_000; k++ {
		got, _ := it.Next()
		want, _ := twin.Next()
		if got != want {
			t.Fatalf("event %d: %+v after the caller wrote its vector, %+v untouched", k, got, want)
		}
	}
}

// TestIteratorExploreMarks: MarkExplore marks exactly the funded
// elements its vector flags; Next, Peek and Each report the mark, and
// Each reports every funded element's frequency once, so a dense copy
// of the plan can be rebuilt from the iterator alone.
func TestIteratorExploreMarks(t *testing.T) {
	freqs := seededFreqs(500, 4)
	explore := make([]bool, len(freqs))
	for i := range explore {
		explore[i] = i%7 == 0
	}
	it, err := NewIterator(freqs, true, 2)
	if err != nil {
		t.Fatal(err)
	}
	it.MarkExplore(explore)
	dense := make([]float64, len(freqs))
	marked := make([]bool, len(freqs))
	it.Each(func(id int, f float64, e bool) {
		if dense[id] != 0 {
			t.Fatalf("Each visited element %d twice", id)
		}
		dense[id], marked[id] = f, e
	})
	if !slices.Equal(dense, freqs) {
		t.Error("Each's frequencies differ from the vector the iterator was built on")
	}
	for i, f := range freqs {
		if want := f > 0 && explore[i]; marked[i] != want {
			t.Errorf("element %d (f=%v): Each reports mark %v, want %v", i, f, marked[i], want)
		}
	}
	for k := 0; k < 2000; k++ {
		p, _ := it.Peek()
		ev, _ := it.Next()
		if p != ev || ev.Explore != explore[ev.Element] {
			t.Fatalf("event %d: Peek %+v, Next %+v, element marked %v", k, p, ev, explore[ev.Element])
		}
	}
}
