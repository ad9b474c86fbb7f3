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
// Iterator is not safe for concurrent use; a fetch loop owns it.
type Iterator struct {
	freqs []float64
	h     eventHeap
}

// NewIterator builds an iterator over the frequency vector. Elements
// with zero frequency never appear. randomPhase staggers first
// refreshes within each element's interval using seed; otherwise every
// element starts at its half-interval point. The iterator keeps freqs
// rather than a copy of it, so the caller must not modify the slice
// while the iterator is in use.
func NewIterator(freqs []float64, randomPhase bool, seed int64) (*Iterator, error) {
	h, err := firstEvents(freqs, randomPhase, seed, math.Inf(1))
	if err != nil {
		return nil, err
	}
	return &Iterator{freqs: freqs, h: h}, nil
}

// Next returns the next due refresh and schedules the element's
// subsequent one. ok is false when the iterator is empty (every
// frequency was zero). The root event advances in place and sifts
// down once, so Next allocates nothing.
func (it *Iterator) Next() (ev SyncEvent, ok bool) {
	if it.h.Len() == 0 {
		return SyncEvent{}, false
	}
	ev = it.h[0]
	it.h[0].Time = ev.Time + 1/it.freqs[ev.Element]
	heap.Fix(&it.h, 0)
	return ev, true
}

// Peek returns the next due refresh without consuming it.
func (it *Iterator) Peek() (ev SyncEvent, ok bool) {
	if it.h.Len() == 0 {
		return SyncEvent{}, false
	}
	return it.h[0], true
}
