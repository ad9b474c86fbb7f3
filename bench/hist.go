package main

import (
	"math"
	"math/bits"
	"time"
)

// hist is a log-bucketed latency histogram over nanoseconds: 64
// sub-buckets per power of two, so a bucket is at most 1.6% wide, and
// values below 64 ns are exact. It is a fixed-size array, so recording
// a sample never allocates. A hist is not safe for concurrent use;
// each goroutine records into its own and merge combines them.
type hist struct {
	counts [histBuckets]uint64
	n      uint64
	max    int64
}

const (
	histSubBits = 6
	histSub     = 1 << histSubBits
	// histBuckets covers values up to 2^40 ns (about 18 minutes).
	histBuckets = (40 - histSubBits + 1) * histSub
)

func histBucket(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - histSubBits - 1
	i := (e+1)<<histSubBits + int(v>>e) - histSub
	return min(i, histBuckets-1)
}

// histBounds returns bucket i's lower bound and width.
func histBounds(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	e := i>>histSubBits - 1
	m := uint64(i&(histSub-1)) + histSub
	return float64(m << e), float64(uint64(1) << e)
}

func (h *hist) record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histBucket(uint64(d))]++
	h.n++
	h.max = max(h.max, int64(d))
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.max = max(h.max, o.max)
}

// quantile returns the q-quantile in nanoseconds, interpolating
// linearly by rank inside the bucket that holds it, or NaN when the
// histogram is empty.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n-1)
	var cum uint64
	for i, c := range h.counts {
		if c == 0 || float64(cum+c) <= rank {
			cum += c
			continue
		}
		lo, w := histBounds(i)
		v := lo + w*(rank-float64(cum)+0.5)/float64(c)
		return math.Min(v, float64(h.max))
	}
	return float64(h.max)
}

// beyond counts the samples above the q-quantile: the sample support of
// a tail percentile.
func (h *hist) beyond(q float64) uint64 {
	return h.n - uint64(math.Ceil(q*float64(h.n)))
}
