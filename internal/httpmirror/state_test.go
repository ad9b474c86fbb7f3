package httpmirror

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"slices"
	"sync"
	"testing"

	"freshen/internal/core"
	"freshen/internal/persist"
	"freshen/internal/testkit"
)

// TestMirrorBytesPerObject pins the mirror's per-object state (DESIGN.md
// §11 lists it field by field): the heap New retains over an origin
// that hands every object an 11-byte body of its own, with no
// persistence and no metrics, is at most 140 B per object at N=1,000
// and at N=64,000, on top of a fixed 16 KiB. That is 120 B of state
// and a 16 B body allocation per object; it measured 136.4 B at
// N=64,000. The fixed part covers what does not grow with N, the
// 4 KiB of striped access counters among it, and the rounding of each
// per-object array up to its allocation size class; at N=1,000 it
// comes to about 11 B per object.
func TestMirrorBytesPerObject(t *testing.T) {
	const perObject, fixed = 140, 16 << 10
	for _, n := range []int{1000, 64000} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			retained := testkit.LeastRetained(func() any {
				m, err := New(context.Background(), Config{
					Upstream: &ownBodies{churnSource{n: n, body: []byte("object body")}},
					Plan:     core.Config{Bandwidth: float64(n) / 100},
					Seed:     1,
				})
				if err != nil {
					t.Fatal(err)
				}
				return m
			})
			t.Logf("N=%d: %d B retained, %.1f B per object", n, retained, float64(retained)/float64(n))
			if retained > int64(perObject*n+fixed) {
				t.Errorf("New retains %d B at N=%d, %.1f B per object: want at most %d B per object and %d B fixed",
					retained, n, float64(retained)/float64(n), perObject, fixed)
			}
		})
	}
}

// ownBodies is a churnSource that hands every fetch a body of its
// own, as a real upstream does, so a mirror's retained heap counts the
// bodies it keeps.
type ownBodies struct{ churnSource }

func (s *ownBodies) Fetch(ctx context.Context, id int) ([]byte, int, error) {
	body, ver, err := s.churnSource.Fetch(ctx, id)
	return bytes.Clone(body), ver, err
}

// TestRecoveredMirrorBytesPerObject: a mirror recovered from a snapshot
// and a journal retains within 10% of the heap a cold one does at
// N=50,000, measured as TestMirrorBytesPerObject measures, with its
// store open. The store hands the snapshot and the replayed records
// over once New has applied them; holding them for the process lifetime
// cost a recovered mirror 61% more heap than a cold one.
func TestRecoveredMirrorBytesPerObject(t *testing.T) {
	const n = 50_000
	src := &ownBodies{churnSource{n: n, body: []byte("object body")}}
	boot := func(dir string) (*Mirror, *persist.Store) {
		t.Helper()
		store, err := persist.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(context.Background(), Config{
			Upstream: src,
			Plan:     core.Config{Bandwidth: 20},
			Persist:  store,
			Seed:     1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m, store
	}
	dir := t.TempDir()
	m, store := boot(dir)
	for i := range n {
		m.Access(i)
	}
	for now := 1.0; now <= 3; now++ {
		if _, err := m.Step(now); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.FlushSnapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Step(4); err != nil {
		t.Fatal(err)
	}
	store.Close()

	measure := func(dir func() string, status string) int64 {
		return testkit.LeastRetained(func() any {
			m, store := boot(dir())
			t.Cleanup(func() { store.Close() })
			if rd := m.Readiness(); rd.RecoveryStatus != status || (status == "recovered" && rd.JournalReplayed == 0) {
				t.Fatalf("boot readiness %+v, want %s", rd, status)
			}
			return m
		})
	}
	cold := measure(t.TempDir, "cold-start")
	recovered := measure(func() string { return dir }, "recovered")
	t.Logf("N=%d: cold %d B, recovered %d B retained (%+.1f%%)", n, cold, recovered, 100*float64(recovered-cold)/float64(cold))
	if float64(recovered) > 1.10*float64(cold) {
		t.Errorf("a recovered mirror retains %d B, a cold one %d B: more than 10%% over", recovered, cold)
	}
}

// failingSource fails the version polls of the objects in its failing
// set and logs the id of every version poll it answers or fails.
type failingSource struct {
	simSource
	mu      sync.Mutex
	failing map[int]bool
	polled  []int
}

// fail replaces the failing set and clears the poll log.
func (s *failingSource) fail(ids ...int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.failing = map[int]bool{}
	for _, id := range ids {
		s.failing[id] = true
	}
	s.polled = nil
}

func (s *failingSource) Version(ctx context.Context, id int) (int, error) {
	s.mu.Lock()
	s.polled = append(s.polled, id)
	bad := s.failing[id]
	s.mu.Unlock()
	if bad {
		return 0, errBroken
	}
	return s.simSource.Version(ctx, id)
}

// TestFaultStateSparse: a mirror holds fault state only for objects
// whose refreshes are failing. A healthy mirror holds none after
// periods of refreshes; a failing object gains one entry and loses it
// on its first success; and quarantined objects are probed, and listed
// by Health, in ascending id order, whatever order they failed in.
func TestFaultStateSparse(t *testing.T) {
	const n = 16
	src := newSimSource(t, n)
	up := &failingSource{simSource: src}
	m, err := New(context.Background(), Config{
		Upstream: up,
		Plan:     core.Config{Bandwidth: 2 * n},
		Fault:    FaultPolicy{QuarantineAfter: 3, ProbeEvery: 1, BreakerThreshold: -1},
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	step := func(now float64) {
		t.Helper()
		src.s.Advance(now)
		if _, err := m.Step(now); err != nil {
			t.Fatal(err)
		}
	}
	faults := func() map[int]elemHealth {
		m.mu.Lock()
		defer m.mu.Unlock()
		return maps.Clone(m.health)
	}

	for now := 1.0; now <= 3; now++ {
		step(now)
	}
	if st := m.Status(); st.Fetches < 4*n || st.RefreshFailures != 0 {
		t.Fatalf("setup: %d refreshes and %d failures in 3 periods", st.Fetches, st.RefreshFailures)
	}
	if f := faults(); len(f) != 0 {
		t.Fatalf("a healthy mirror holds fault state: %v", f)
	}

	up.fail(5)
	step(4)
	if f := faults(); len(f) != 1 || f[5].consecFails == 0 || f[5].quarantined {
		t.Fatalf("fault state after object 5 failed below the quarantine threshold: %v", f)
	}
	up.fail()
	step(5)
	if f := faults(); len(f) != 0 {
		t.Fatalf("fault state after object 5's next success: %v", f)
	}

	up.fail(11, 3, 7)
	now := 6.0
	for ; m.Status().Quarantined < 3 && now < 16; now++ {
		step(now)
	}
	if h := m.Health(); !slices.Equal(h.Quarantined, []int{3, 7, 11}) {
		t.Fatalf("Health().Quarantined = %v, want [3 7 11]", h.Quarantined)
	}
	if f := faults(); len(f) != 3 {
		t.Fatalf("fault state for three quarantined objects: %v", f)
	}
	// Quarantined objects are out of the plan, so their only polls in
	// the next Step are its recovery probes.
	up.fail()
	step(now)
	up.mu.Lock()
	probed := slices.DeleteFunc(slices.Clone(up.polled), func(id int) bool { return id != 3 && id != 7 && id != 11 })
	up.mu.Unlock()
	if !slices.Equal(probed, []int{3, 7, 11}) {
		t.Errorf("probe order %v, want [3 7 11]", probed)
	}
	if h := m.Health(); len(h.Quarantined) != 0 {
		t.Errorf("Health().Quarantined = %v after every probe succeeded", h.Quarantined)
	}
	if f := faults(); len(f) != 0 {
		t.Errorf("fault state after every probe succeeded: %v", f)
	}
}

// BenchmarkIdleStep times a Step with nothing to do: no refresh due,
// nothing quarantined, no learn and no snapshot.
func BenchmarkIdleStep(b *testing.B) {
	for _, n := range []int{50_000, 500_000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			m, err := New(context.Background(), Config{
				Upstream: &churnSource{n: n, body: []byte("object body")},
				Plan:     core.Config{Bandwidth: float64(n) / 100},
				Seed:     1,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if k, err := m.Step(0); err != nil || k != 0 {
					b.Fatalf("idle Step = %d refreshes, %v", k, err)
				}
			}
		})
	}
}
