package httpmirror

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"freshen/internal/core"
	"freshen/internal/testkit"
)

// TestSolveRunsOffStateLock pins the two-lock rule (see Mirror): while
// a ForceReplan is parked inside its solve, m.mu is free and every
// reader that takes it — Readiness, Status, Health, Plan and Budget —
// returns. The solve stays parked until those calls are done, so the
// check depends on no timing; the deadline below only turns a hang
// into a failure.
func TestSolveRunsOffStateLock(t *testing.T) {
	src, err := NewSimulatedSource([]float64{0.5, 1, 2, 4, 0.5, 1, 2, 4}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	pol := testkit.NewParkingPolicy()
	m, err := New(context.Background(), Config{
		Upstream: simSource{src},
		Plan:     core.Config{Bandwidth: 4, Policy: pol},
		Seed:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	pol.Arm()
	replanned := make(chan error, 1)
	go func() { replanned <- m.ForceReplan() }()
	select {
	case <-pol.Parked():
	case err := <-replanned:
		t.Fatalf("ForceReplan returned without reaching its solve: %v", err)
	}
	defer func() {
		pol.Release()
		if err := <-replanned; err != nil {
			t.Errorf("ForceReplan: %v", err)
		}
		if got := m.Status().Replans; got != 2 {
			t.Errorf("Replans = %d after the released solve, want 2", got)
		}
	}()

	if !m.mu.TryLock() {
		t.Fatal("ForceReplan holds m.mu while it solves")
	}
	m.mu.Unlock()
	answered := make(chan struct{})
	go func() {
		defer close(answered)
		if rd := m.Readiness(); !rd.Ready {
			t.Errorf("Readiness during the solve: %+v", rd)
		}
		if st := m.Status(); st.Replans != 1 {
			t.Errorf("Status during the solve reports %d replans, want the live plan's 1", st.Replans)
		}
		m.Health()
		if p := m.Plan(); len(p.Freqs) != 8 {
			t.Errorf("Plan during the solve has %d frequencies", len(p.Freqs))
		}
		if b := m.Budget(); b != 4 {
			t.Errorf("Budget during the solve = %v, want 4", b)
		}
	}()
	select {
	case <-answered:
	case <-time.After(time.Minute):
		pol.Release()
		<-answered
		t.Fatal("a reader of m.mu blocked behind the parked solve")
	}
}

// brokenSource is an in-process source whose one broken object fails
// every call, as does every object while it is down.
type brokenSource struct {
	simSource
	broken atomic.Int64
	down   atomic.Bool
}

var errBroken = errors.New("broken object")

func (b *brokenSource) Version(ctx context.Context, id int) (int, error) {
	if b.down.Load() || int64(id) == b.broken.Load() {
		return 0, errBroken
	}
	return b.simSource.Version(ctx, id)
}

func (b *brokenSource) Fetch(ctx context.Context, id int) ([]byte, int, error) {
	if b.down.Load() || int64(id) == b.broken.Load() {
		return nil, 0, errBroken
	}
	return b.simSource.Fetch(ctx, id)
}

// TestHealthReplansKeepLearning is the regression test for health
// replans starving the learner. Every period one object (rotating) is
// broken, so every Step quarantines one object and recovers the last:
// each Step re-plans for health. A health replan once reset the replan
// cadence, so the mirror never learned: object 7's profile stayed at
// 1/40 and every λ̂ at the prior 1.0. Learning runs on its own clock
// now, and a Step still solves at most once.
func TestHealthReplansKeepLearning(t *testing.T) {
	const n, periods, hot = 40, 60, 7
	lambdas := make([]float64, n)
	for i := range lambdas {
		lambdas[i] = 2
	}
	src, err := NewSimulatedSource(lambdas, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	up := &brokenSource{simSource: simSource{src}}
	up.broken.Store(-1)
	m, err := New(context.Background(), Config{
		Upstream:    up,
		Plan:        core.Config{Bandwidth: 80},
		Fault:       FaultPolicy{QuarantineAfter: 1, ProbeEvery: 1, BreakerThreshold: -1},
		ReplanEvery: 5,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for period := 1; period <= periods; period++ {
		up.broken.Store(int64(period % n))
		for r := 0; r < 50; r++ {
			if _, _, err := m.Access(hot); err != nil {
				t.Fatal(err)
			}
		}
		src.Advance(float64(period))
		if _, err := m.Step(float64(period)); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Status()
	if st.QuarantineEvents < periods*3/4 {
		t.Fatalf("only %d quarantines in %d periods: health replans were not steady", st.QuarantineEvents, periods)
	}
	if st.Replans > 1+periods {
		t.Errorf("Replans = %d: more than one at boot and one per Step", st.Replans)
	}
	elems := m.Elements()
	if p := elems[hot].AccessProb; p < 0.9 {
		t.Errorf("object %d holds every read but its access probability is %v", hot, p)
	}
	var mean float64
	for _, e := range elems {
		mean += e.Lambda / n
	}
	if mean < 1.25 {
		t.Errorf("mean λ̂ = %v: the rates barely moved from the prior 1.0 toward the true 2", mean)
	}
}
