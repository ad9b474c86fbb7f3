//go:build !race

package schedule

import (
	"math"
	"testing"
	"unsafe"
)

// TestIteratorRefusesPastInt32: an entry holds its id as an int32, so
// NewIterator and Timeline refuse a vector of 2³¹ elements. The vector
// is a header over one float64, which the length check rejects before
// anything reads past it. Such a header fails the pointer checks the
// race detector turns on, so this file builds without -race only.
func TestIteratorRefusesPastInt32(t *testing.T) {
	if math.MaxInt32 == math.MaxInt {
		t.Skip("int is 32 bits: no slice can be that long")
	}
	var f float64
	huge := unsafe.Slice(&f, int64(math.MaxInt32)+1)
	if _, err := NewIterator(huge, false, 0); err == nil {
		t.Error("NewIterator accepted 2³¹ elements")
	}
	if _, err := Timeline(huge, Options{Horizon: 1}); err == nil {
		t.Error("Timeline accepted 2³¹ elements")
	}
}
