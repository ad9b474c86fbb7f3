package httpmirror

import (
	"fmt"
	"strconv"
	"sync/atomic"
)

// This file is the lock-free serving path. The mirror's mutable state
// (the plan, health, counters) stays under its two locks (see Mirror),
// but readers never touch it: Access and the /object handler load each object's
// immutable view from its own atomic pointer (m.views), and record
// accesses into striped atomic counters. See DESIGN.md §11 for the
// publication protocol.

// errAccessOutOfRange is the preallocated not-found error Access
// returns for any id outside the catalog. A single shared value means
// hostile or miss-heavy traffic cannot allocate-storm the server; the
// offending id is not interpolated, but the HTTP layer already maps
// the error to a plain 404 and callers test it with
// errors.Is(err, ErrNotFound).
var errAccessOutOfRange = fmt.Errorf("%w: id outside the catalog", ErrNotFound)

// copyView is one object as the read path sees it: the body and the
// version it was fetched at, captured together so a reader can never
// observe a torn body/version pair. A view is never mutated after it
// is stored: a transferring refresh replaces the object's pointer, and
// the garbage collector reclaims the old view once its last reader
// drops it.
type copyView struct {
	body    []byte
	version int
}

// accessStripes is the number of padded cells the global access total
// is striped over. Power of two; 64 cells × 64 B keeps the whole
// array inside one page while giving concurrent readers on different
// objects distinct cache lines to increment.
const accessStripes = 64

// paddedCount is one stripe, padded out to a cache line so adjacent
// stripes never share one (false sharing would serialize the very
// increments the striping exists to spread).
type paddedCount struct {
	n atomic.Uint64
	_ [56]byte
}

// accessCounters is the lock-free access accounting the read path
// writes and the solve, snapshot and status paths read:
//
//   - elems is one plain atomic per object — the per-object counts the
//     access profile is derived from. They are cumulative: recovery
//     stores each object's persisted count into them, and every solve
//     and the snapshot load them, so nothing ever drains or copies
//     them.
//   - stripes is the global total, striped so the hottest objects of a
//     Zipf community don't all contend one cache line. Stripes are
//     cumulative for the process lifetime (never drained): the live
//     global count is an O(64) sum, which Status and the
//     freshen_accesses_total scrape read directly without touching
//     the per-object counters.
type accessCounters struct {
	elems   []atomic.Uint64
	stripes [accessStripes]paddedCount
}

func newAccessCounters(n int) *accessCounters {
	return &accessCounters{elems: make([]atomic.Uint64, n)}
}

// record counts one access: the object's own counter plus one global
// stripe. The stripe index is a multiplicative hash of the id so
// neighboring (and Zipf-popular) objects land on different cache
// lines. Two relaxed atomic adds, no locks, no allocation.
func (a *accessCounters) record(id int) {
	a.elems[id].Add(1)
	a.stripes[(uint32(id)*2654435761)>>26].n.Add(1)
}

// total sums the global stripes: the number of accesses recorded by
// this process so far. Each stripe is monotone, so concurrent calls
// are monotone too (a sum may lag in-flight increments but never
// counts one twice).
func (a *accessCounters) total() uint64 {
	var t uint64
	for i := range a.stripes {
		t += a.stripes[i].n.Load()
	}
	return t
}

// versionHeaders caches the pre-built one-element header slice for
// small version numbers, letting the /object handler attach
// X-Version without the per-request []string{...} allocation.
// Versions beyond the cache (long-lived, fast-changing objects) fall
// back to one small allocation.
var versionHeaders = func() [][]string {
	vs := make([][]string, 256)
	for i := range vs {
		vs[i] = []string{strconv.Itoa(i)}
	}
	return vs
}()
