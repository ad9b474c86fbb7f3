package fleet

import (
	"context"
	"slices"
	"testing"
	"time"

	"freshen/internal/core"
	"freshen/internal/httpmirror"
)

// replans reads every shard's replan count.
func replans(f *Fleet) []int {
	out := make([]int, len(f.shards))
	for i, sh := range f.shards {
		out[i] = sh.Mirror().Status().Replans
	}
	return out
}

// TestShardStepNeverCadenceReplans: a fleet shard has no cadence of its
// own. Twenty periods past its last plan, far beyond the template's
// default cadence, its own Step refreshes but does not re-solve.
func TestShardStepNeverCadenceReplans(t *testing.T) {
	f := newIdleFleet(t, newMemSource(24), nil)
	for i, sh := range f.shards {
		m := sh.Mirror()
		st := m.Status()
		refreshes, err := m.Step(st.Now + 20)
		if err != nil {
			t.Fatal(err)
		}
		if refreshes == 0 {
			t.Errorf("shard %d refreshed nothing over 20 periods", i)
		}
		if got := m.Status().Replans; got != st.Replans {
			t.Errorf("shard %d: its own Step re-solved (%d → %d replans)", i, st.Replans, got)
		}
	}
}

// TestLevelingReplansEveryShardOnce: each leveling is every running
// shard's cadence replan, so it re-solves each shard exactly once even
// when the shard's slice comes out bit-identical. An idle fleet learns
// nothing between two levelings, so their slices are equal.
func TestLevelingReplansEveryShardOnce(t *testing.T) {
	f := newIdleFleet(t, newMemSource(24), nil)
	before := replans(f)
	var first []float64
	for round := 1; round <= 2; round++ {
		f.reallocate("cadence")
		a, err := f.Allocation()
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = a.Slices
		} else if !slices.Equal(a.Slices, first) {
			t.Fatalf("an idle fleet's slices moved: %v → %v", first, a.Slices)
		}
		for i, got := range replans(f) {
			if want := before[i] + round; got != want {
				t.Errorf("leveling %d: shard %d at %d replans, want %d", round, i, got, want)
			}
		}
	}
}

// TestSupervisorLevelsOnReplanCadence: the supervisor levels every
// ReplanEvery periods, not every period, and a shard solves once per
// leveling plus its boot plan, never on its own.
func TestSupervisorLevelsOnReplanCadence(t *testing.T) {
	const period = 20 * time.Millisecond
	f, err := New(context.Background(), Config{
		Shards:   3,
		Budget:   12,
		Upstream: newMemSource(24),
		Mirror: httpmirror.Config{
			Plan:        core.Config{Strategy: core.StrategyExact},
			ReplanEvery: 5,
			Seed:        7,
		},
		Period: period,
	})
	if err != nil {
		t.Fatal(err)
	}
	closeFleet(t, f)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.Run(ctx)
	}()
	time.Sleep(40 * period)
	cancel()
	<-done

	for i, rec := range f.AllocationHistory() {
		if rec.Err != nil {
			t.Fatalf("leveling %d: %v", i, rec.Err)
		}
	}
	// The boot's leveling plus at most one per 5 periods.
	n := f.Status().Reallocations
	if n > 10 || n < 2 {
		t.Errorf("%d levelings over 40 periods, want the boot's and 1 to 9 more at one per 5 periods", n)
	}
	for i, got := range replans(f) {
		if got != n+1 {
			t.Errorf("shard %d at %d replans, want %d: its boot plan and one per leveling", i, got, n+1)
		}
	}
}
