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
	for _, ev := range h {
		expected += (opts.Horizon - ev.Time) * freqs[ev.Element]
	}
	events := make([]SyncEvent, 0, int(expected)+len(freqs))
	for h.Len() > 0 {
		ev := h[0]
		events = append(events, ev)
		if next := ev.Time + 1/freqs[ev.Element]; next < opts.Horizon {
			h[0].Time = next
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
// from seed per funded element, in index order). The events go into a
// slice sized to the funded count and heap.Init orders them in O(N);
// Less is a strict total order on (Time, Element), so every later pop
// sequence is the one N pushes would give.
func firstEvents(freqs []float64, randomPhase bool, seed int64, horizon float64) (eventHeap, error) {
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
	h := make(eventHeap, 0, funded)
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
			h = append(h, SyncEvent{Time: phase, Element: i})
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

// eventHeap is a min-heap of SyncEvents by time, with element index as
// the tiebreak so merges are deterministic.
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
