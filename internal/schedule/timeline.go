package schedule

import (
	"container/heap"
	"fmt"
	"math"

	"freshen/internal/stats"
)

// SyncEvent is one refresh operation: fetch element Element at time
// Time.
type SyncEvent struct {
	Time    float64
	Element int
}

// Options configures timeline construction.
type Options struct {
	// Horizon is the length of the generated timeline; events lie in
	// [0, Horizon).
	Horizon float64
	// RandomPhase staggers each element's first refresh uniformly
	// within its interval (using Seed). Without it every element
	// starts at its half-interval point, a deterministic stagger that
	// avoids a thundering herd at t = 0.
	RandomPhase bool
	// Seed drives the random phases.
	Seed int64
}

// Timeline expands frequencies (refreshes per unit time) into the
// merged, time-ordered sync stream over [0, Horizon). Elements with
// zero frequency contribute no events. The merge uses a heap over the
// per-element next-due times, so the stream is produced in O(E·log N).
func Timeline(freqs []float64, opts Options) ([]SyncEvent, error) {
	if !(opts.Horizon > 0) || math.IsInf(opts.Horizon, 0) {
		return nil, fmt.Errorf("schedule: horizon must be positive and finite, got %v", opts.Horizon)
	}
	h, err := firstEvents(freqs, opts.RandomPhase, opts.Seed, opts.Horizon)
	if err != nil {
		return nil, err
	}
	expected := 0.0
	for _, e := range h {
		expected += (opts.Horizon - e.time) * e.freq
	}
	events := make([]SyncEvent, 0, int(expected)+len(freqs))
	for h.Len() > 0 {
		e := h[0]
		events = append(events, SyncEvent{Time: e.time, Element: int(e.id)})
		if next := e.time + 1/e.freq; next < opts.Horizon {
			h[0].time = next
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return events, nil
}

// firstEvents validates freqs and returns the heap of each funded
// element's first refresh before horizon: at the middle of its
// interval 1/f, or with randomPhase at a uniform point of it (one draw
// from seed per funded element, in index order). The entries go into a
// slice sized to the funded count and heap.Init orders them in O(N);
// Less is a strict total order on (time, id), so every later pop
// sequence is the one N pushes would give. An entry's id is an int32,
// so freqs may hold at most 2³¹−1 elements.
func firstEvents(freqs []float64, randomPhase bool, seed int64, horizon float64) (entryHeap, error) {
	if len(freqs) > math.MaxInt32 {
		return nil, fmt.Errorf("schedule: at most %d elements, got %d", math.MaxInt32, len(freqs))
	}
	funded := 0
	for i, f := range freqs {
		if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
			return nil, fmt.Errorf("schedule: element %d has invalid frequency %v", i, f)
		}
		if f > 0 {
			funded++
		}
	}
	var r *stats.RNG
	if randomPhase {
		r = stats.NewRNG(seed)
	}
	h := make(entryHeap, 0, funded)
	for i, f := range freqs {
		if f == 0 {
			continue
		}
		interval := 1 / f
		phase := 0.5 * interval
		if r != nil {
			phase = r.Float64() * interval
		}
		if phase < horizon {
			h = append(h, entry{time: phase, freq: f, id: int32(i)})
		}
	}
	heap.Init(&h)
	return h, nil
}

// Order returns just the element sequence of a timeline — the paper's
// "fixed order" in which the mirror cycles through its refreshes.
func Order(events []SyncEvent) []int {
	order := make([]int, len(events))
	for i, ev := range events {
		order[i] = ev.Element
	}
	return order
}

// entry is one funded element's place in a merge: when its next
// refresh is due, its frequency, its id and, in an Iterator, its
// explore mark. 24 B on amd64.
type entry struct {
	time    float64
	freq    float64
	id      int32
	explore bool
}

func (e *entry) event() Event {
	return Event{SyncEvent{Time: e.time, Element: int(e.id)}, e.explore}
}

// entryHeap is a min-heap of entries by due time, with the element id
// as the tiebreak so merges are deterministic.
type entryHeap []entry

func (h entryHeap) Len() int { return len(h) }
func (h entryHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].id < h[j].id
}
func (h entryHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *entryHeap) Push(x interface{}) { *h = append(*h, x.(entry)) }
func (h *entryHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}
