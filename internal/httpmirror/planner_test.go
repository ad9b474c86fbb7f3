package httpmirror

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"freshen/internal/core"
	"freshen/internal/freshness"
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

// TestScheduledRunsOffStateLock: Scheduled, which a fleet's allocator
// calls on every shard at each leveling, builds its O(N) solver input
// under stepMu alone, as a solve does, so it neither waits on nor holds
// m.mu, which every refresh commit and status read takes. m.mu is held
// throughout; the deadline only turns a hang into a failure.
func TestScheduledRunsOffStateLock(t *testing.T) {
	_, m := newTestPair(t, []float64{0.5, 1, 2, 4}, 4)
	m.mu.Lock()
	done := make(chan []freshness.Element, 1)
	go func() { done <- m.Scheduled() }()
	select {
	case elems := <-done:
		m.mu.Unlock()
		if len(elems) != 4 {
			t.Errorf("Scheduled returned %d elements, want 4", len(elems))
		}
	case <-time.After(10 * time.Second):
		m.mu.Unlock()
		<-done
		t.Fatal("Scheduled blocked behind m.mu")
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

// learnFormula is the element knowledge a solve must read, written the
// way the learn pass wrote it into a per-object table before solves
// built their input afresh: the estimator's rates (the prior where
// unpolled), and each access counter loaded once and Laplace-smoothed
// over the counts loaded, with sizes from the catalog. uncertainty is
// that pass's explore score.
func learnFormula(m *Mirror, sizes []float64) (elems []freshness.Element, uncertainty []float64) {
	n := len(sizes)
	elems = make([]freshness.Element, n)
	for i := range elems {
		elems[i] = freshness.Element{ID: i, Lambda: m.cfg.PriorLambda, AccessProb: 1 / float64(n), Size: sizes[i]}
	}
	rates, err := m.est.Estimates(m.cfg.PriorLambda)
	if err != nil {
		panic(err)
	}
	total := profileSmoothing * float64(n)
	for i := range elems {
		c := float64(m.acc.elems[i].Load())
		elems[i].AccessProb = c
		total += c
	}
	for i := range elems {
		elems[i].AccessProb = (elems[i].AccessProb + profileSmoothing) / total
	}
	for i, l := range rates {
		elems[i].Lambda = l
	}
	uncertainty = make([]float64, n)
	for i := range uncertainty {
		uncertainty[i] = m.est.Estimate(i).UncertaintyAt(m.cfg.PriorLambda / 10)
	}
	return elems, uncertainty
}

// TestSolveInputMatchesLearnFormula: every solve reads what the mirror
// knows at that instant, bit for bit as the learn formula builds it,
// through cadence replans, a quarantine and its recovery, SetBudget,
// ForceReplan and a restart. After each call that solved, the mirror's
// input builder must equal the formula, and the installed plan must be
// the plan the formula's input solves to, so the solve read nothing
// else. The cadence clock must advance only on cadence, SetBudget and
// ForceReplan solves.
func TestSolveInputMatchesLearnFormula(t *testing.T) {
	lambdas := []float64{3, 1, 0.5, 2, 1, 4, 0.25, 1.5}
	sizes := []float64{1, 2, 1, 0.5, 1, 3, 1, 1}
	src, err := NewSimulatedSource(lambdas, sizes, 1)
	if err != nil {
		t.Fatal(err)
	}
	up := &brokenSource{simSource: simSource{src}}
	up.broken.Store(-1)
	cfg := Config{
		Upstream:      up,
		Plan:          core.Config{Bandwidth: 8},
		ExploreFrac:   0.2,
		ReplanEvery:   2,
		Fault:         FaultPolicy{BreakerThreshold: -1, QuarantineAfter: 2, ProbeEvery: 1},
		Persist:       &memStore{},
		SnapshotEvery: 1000,
		Seed:          3,
	}
	m, err := New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	replans := m.Status().Replans
	solves := map[string]int{}
	check := func(kind string, cadence bool) {
		t.Helper()
		st := m.Status()
		if st.Replans == replans {
			return
		}
		if st.Replans != replans+1 {
			t.Fatalf("%s: %d solves in one call", kind, st.Replans-replans)
		}
		replans = st.Replans
		solves[kind]++
		want, u := learnFormula(m, sizes)
		if got := m.knowledge(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s at %v: solver input %+v, learn formula %+v", kind, st.Now, got, want)
		}
		if got := m.Elements(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s at %v: Elements %+v, learn formula %+v", kind, st.Now, got, want)
		}
		ref, err := m.pl.solve(m.cfg.Plan, want, u, m.quarantinedIDs())
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Plan(); !slices.Equal(got.Freqs, ref.plan.Freqs) || got.Perceived != ref.plan.Perceived {
			t.Fatalf("%s at %v: installed plan %v (PF %v), the learn formula's %v (PF %v)",
				kind, st.Now, got.Freqs, got.Perceived, ref.plan.Freqs, ref.plan.Perceived)
		}
		if learned := m.pl.lastCadence == st.Now; learned != cadence {
			t.Fatalf("%s at %v: cadence clock at %v", kind, st.Now, m.pl.lastCadence)
		}
	}
	now := 0.0
	step := func(k int) {
		t.Helper()
		for range k {
			now += 0.5
			for id := range lambdas {
				for range id % 3 {
					m.Access(id)
				}
			}
			src.Advance(now)
			cadence := now-m.pl.lastCadence >= cfg.ReplanEvery
			q := m.Status().Quarantined
			if _, err := m.Step(now); err != nil {
				t.Fatal(err)
			}
			kind := "cadence"
			if !cadence {
				kind = "health"
				if m.Status().Quarantined < q {
					kind = "recovery"
				}
			}
			check(kind, cadence)
		}
	}
	step(6)
	up.broken.Store(4)
	for now < 20 && m.Status().Quarantined == 0 {
		step(1)
	}
	step(3)
	up.broken.Store(-1)
	for now < 30 && m.Status().Quarantined > 0 {
		step(1)
	}
	if err := m.SetBudget(12); err != nil {
		t.Fatal(err)
	}
	check("SetBudget", true)
	step(2)
	if err := m.ForceReplan(); err != nil {
		t.Fatal(err)
	}
	check("ForceReplan", true)
	step(3)
	if err := m.FlushSnapshot(); err != nil {
		t.Fatal(err)
	}
	step(3)

	// Restart: the recovered mirror warm-starts from the snapshot's
	// plan, then every solve reads the recovered and replayed knowledge.
	cfg.Plan.Bandwidth = m.Budget()
	m, err = New(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rd := m.Readiness(); rd.RecoveryStatus != "recovered" || rd.JournalReplayed == 0 {
		t.Fatalf("readiness after restart = %+v", rd)
	}
	replans = m.Status().Replans
	step(6)
	if err := m.SetBudget(6); err != nil {
		t.Fatal(err)
	}
	check("SetBudget", true)
	t.Logf("solves checked: %v", solves)
	for _, kind := range []string{"cadence", "health", "recovery", "SetBudget", "ForceReplan"} {
		if solves[kind] == 0 {
			t.Errorf("no %s solve was checked (solves: %v)", kind, solves)
		}
	}
}

// TestPlanFreqsIsACopy: Plan hands its caller a copy of the live
// plan's frequencies, not state the refresh iterator reads. A 0
// written into every entry of the copy changes nothing: over four
// periods the mirror polls exactly what an untouched twin polls, in
// the same order. (A negative entry would have stalled Step's drain
// while the iterator read the caller's vector.)
func TestPlanFreqsIsACopy(t *testing.T) {
	const n = 16
	var srcs [2]*failingSource
	var ms [2]*Mirror
	for k := range ms {
		srcs[k] = &failingSource{simSource: newSimSource(t, n)}
		m, err := New(context.Background(), Config{
			Upstream: srcs[k],
			Plan:     core.Config{Bandwidth: n},
			Seed:     1,
		})
		if err != nil {
			t.Fatal(err)
		}
		ms[k] = m
	}
	written := ms[0].Plan().Freqs
	for i := range written {
		written[i] = 0
	}
	for now := 0.25; now <= 4; now += 0.25 {
		for k, m := range ms {
			srcs[k].s.Advance(now)
			if _, err := m.Step(now); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, want := srcs[0].polled, srcs[1].polled
	if len(want) < 4*n || !slices.Equal(got, want) {
		t.Errorf("after writing Plan().Freqs the mirror polled %d objects, its twin %d: %v against %v", len(got), len(want), got, want)
	}
	if f := ms[0].Plan().Freqs; !slices.Equal(f, ms[1].Plan().Freqs) || slices.Contains(f, 0) {
		t.Errorf("Plan().Freqs after the write: %v, the twin's %v", f, ms[1].Plan().Freqs)
	}
}
