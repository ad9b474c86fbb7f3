package testkit

import (
	"math"
	"runtime"
)

// LeastRetained is the heap that what build returns retains, measured
// three times and the least kept, so another test's goroutine
// allocating meanwhile does not count. Two collections precede each
// reading: the first only moves sync.Pool contents to the victim
// caches, which the second frees.
func LeastRetained(build func() any) int64 {
	retained := int64(math.MaxInt64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		v := build()
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(v)
		retained = min(retained, int64(after.HeapAlloc)-int64(before.HeapAlloc))
	}
	return retained
}
