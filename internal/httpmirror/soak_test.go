package httpmirror

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"freshen/internal/core"
	"freshen/internal/persist"
)

// simSource serves a SimulatedSource in-process, so a soak test pays
// no HTTP round trips.
type simSource struct{ s *SimulatedSource }

func (p simSource) Catalog(context.Context) ([]CatalogEntry, error) { return p.s.Catalog(), nil }
func (p simSource) Version(_ context.Context, id int) (int, error)  { return p.s.Version(id) }
func (p simSource) Fetch(_ context.Context, id int) ([]byte, int, error) {
	v, err := p.s.Version(id)
	if err != nil {
		return nil, 0, err
	}
	return []byte(fmt.Sprintf("object %d version %d", id, v)), v, nil
}
func (p simSource) Retries() int64  { return 0 }
func (p simSource) Failures() int64 { return 0 }

// retainedBytes is the heap reachable from v beyond v's own inline
// size: every pointer target, slice backing array (by capacity) and
// string, each counted once.
func retainedBytes(v reflect.Value, seen map[uintptr]bool) int {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || seen[v.Pointer()] {
			return 0
		}
		seen[v.Pointer()] = true
		return int(v.Type().Elem().Size()) + retainedBytes(v.Elem(), seen)
	case reflect.Interface:
		if v.IsNil() {
			return 0
		}
		return retainedBytes(v.Elem(), seen)
	case reflect.Slice:
		if v.IsNil() || seen[v.Pointer()] {
			return 0
		}
		seen[v.Pointer()] = true
		n := v.Cap() * int(v.Type().Elem().Size())
		for i := 0; i < v.Len(); i++ {
			n += retainedBytes(v.Index(i), seen)
		}
		return n
	case reflect.String:
		return v.Len()
	case reflect.Struct:
		n := 0
		for i := 0; i < v.NumField(); i++ {
			n += retainedBytes(v.Field(i), seen)
		}
		return n
	case reflect.Array:
		n := 0
		for i := 0; i < v.Len(); i++ {
			n += retainedBytes(v.Index(i), seen)
		}
		return n
	}
	return 0
}

// TestSoakStateBounded pins the north-star bound "memory and snapshot
// size stay bounded in uptime": a small mirror stepped for 10⁵ periods
// on a synthetic clock must hold as much estimator state, and write as
// large a snapshot, as it did at period 10³ — within 5%, the slack
// integer counters need to grow a few digits. An estimator that keeps
// every poll grows both about a hundredfold over the same run.
func TestSoakStateBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: 10⁵ periods")
	}
	lambdas := make([]float64, 20)
	for i := range lambdas {
		lambdas[i] = 0.1 * float64(i+1)
	}
	src, err := NewSimulatedSource(lambdas, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	m, err := New(context.Background(), Config{
		Upstream: simSource{src},
		Plan:     core.Config{Bandwidth: 4},
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	measure := func() (estBytes, snapBytes int) {
		data, err := persist.EncodeSnapshot(m.exportState())
		if err != nil {
			t.Fatal(err)
		}
		return retainedBytes(reflect.ValueOf(m.est), map[uintptr]bool{}), len(data)
	}
	var baseEst, baseSnap int
	for period := 1; period <= 100000; period++ {
		src.Advance(float64(period))
		if _, err := m.Step(float64(period)); err != nil {
			t.Fatal(err)
		}
		switch period {
		case 1000:
			baseEst, baseSnap = measure()
		case 10000, 100000:
			est, snap := measure()
			t.Logf("period %d: estimator %d B (%d at 10³), snapshot %d B (%d at 10³)", period, est, baseEst, snap, baseSnap)
			if math.Abs(float64(est-baseEst)) > 0.05*float64(baseEst) {
				t.Fatalf("period %d: estimator retains %d B, %d B at period 10³", period, est, baseEst)
			}
			if math.Abs(float64(snap-baseSnap)) > 0.05*float64(baseSnap) {
				t.Fatalf("period %d: snapshot is %d B, %d B at period 10³", period, snap, baseSnap)
			}
		}
	}
	if st := m.Status(); st.Fetches < 100000 {
		t.Fatalf("soak refreshed only %d times", st.Fetches)
	}
}
