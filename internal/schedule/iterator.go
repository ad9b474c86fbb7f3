package schedule

import (
	"container/heap"
	"math"
)

// Iterator yields a plan's refresh operations one at a time, forever —
// the form a live mirror's fetch loop consumes. Unlike Timeline it has
// no horizon: each Next call returns the next due (time, element) pair
// under Fixed-Order spacing, with per-element intervals 1/fᵢ.
//
// Its only per-element state is one heap entry per funded element,
// holding the next due time, the frequency, the id and the explore
// mark (24 B on amd64), so an element the plan leaves at zero costs
// nothing. The iterator keeps no reference to the vector it is built
// on.
//
// Iterator is not safe for concurrent use; a fetch loop owns it.
type Iterator struct {
	h entryHeap
}

// Event is one refresh an Iterator yields, and whether its element is
// marked as funded only by the explore slice (see MarkExplore).
type Event struct {
	SyncEvent
	Explore bool
}

// NewIterator builds an iterator over the frequency vector. Elements
// with zero frequency never appear. randomPhase staggers first
// refreshes within each element's interval using seed; otherwise every
// element starts at its half-interval point. Each funded element's
// frequency is copied into its entry, so the caller may reuse freqs.
func NewIterator(freqs []float64, randomPhase bool, seed int64) (*Iterator, error) {
	h, err := firstEvents(freqs, randomPhase, seed, math.Inf(1))
	if err != nil {
		return nil, err
	}
	return &Iterator{h: h}, nil
}

// MarkExplore sets each funded element's explore mark to explore[id],
// which must cover every element the iterator was built over. A mirror
// marks the elements only its explore slice funds, whose refreshes
// count as uncertainty probes.
func (it *Iterator) MarkExplore(explore []bool) {
	for k := range it.h {
		it.h[k].explore = explore[it.h[k].id]
	}
}

// Each calls f with every funded element's id, frequency and explore
// mark, in no particular order.
func (it *Iterator) Each(f func(id int, freq float64, explore bool)) {
	for _, e := range it.h {
		f(int(e.id), e.freq, e.explore)
	}
}

// Next returns the next due refresh and schedules the element's
// subsequent one. ok is false when the iterator is empty (every
// frequency was zero). The root entry advances in place and sifts
// down once, so Next allocates nothing.
func (it *Iterator) Next() (ev Event, ok bool) {
	if len(it.h) == 0 {
		return Event{}, false
	}
	e := &it.h[0]
	ev = e.event()
	e.time += 1 / e.freq
	heap.Fix(&it.h, 0)
	return ev, true
}

// Peek returns the next due refresh without consuming it.
func (it *Iterator) Peek() (ev Event, ok bool) {
	if len(it.h) == 0 {
		return Event{}, false
	}
	return it.h[0].event(), true
}
