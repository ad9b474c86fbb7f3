package fleet

import (
	"context"
	"testing"

	"freshen/internal/core"
	"freshen/internal/httpmirror"
)

// TestExploreFundedFromLocalSlice pins the explore/hierarchy contract:
// a shard's explore slice is carved out of its OWN budget slice — the
// fraction applies to what the fleet allocator granted locally, never
// to the global pool — and when the allocator cuts a shard's slice the
// explore spend shrinks with it.
func TestExploreFundedFromLocalSlice(t *testing.T) {
	const (
		n, k        = 30, 3
		budget      = 9.0
		exploreFrac = 0.3
	)
	src := newMemSource(n)
	place, err := HashPlacement(n, k)
	if err != nil {
		t.Fatal(err)
	}
	mirrors := make([]*httpmirror.Mirror, k)
	for s := 0; s < k; s++ {
		m, err := httpmirror.New(context.Background(), httpmirror.Config{
			Upstream:    newShardSource(src, place, s, nil),
			Plan:        core.Config{Strategy: core.StrategyExact, Bandwidth: 1},
			ReplanEvery: 1,
			ExploreFrac: exploreFrac,
			PriorLambda: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		mirrors[s] = m
	}

	apply := func(a Allocation) {
		t.Helper()
		for s, m := range mirrors {
			if !a.Healthy[s] {
				continue
			}
			if err := m.SetBudget(a.Slices[s]); err != nil {
				t.Fatalf("shard %d: %v", s, err)
			}
		}
	}
	const eps = 1e-9
	checkWithin := func(a Allocation, context string) {
		t.Helper()
		globalExplore := 0.0
		for s, m := range mirrors {
			if !a.Healthy[s] {
				continue
			}
			st := m.Status()
			if st.ExploreBandwidth > exploreFrac*a.Slices[s]+eps {
				t.Errorf("%s: shard %d explore %v exceeds frac·slice %v",
					context, s, st.ExploreBandwidth, exploreFrac*a.Slices[s])
			}
			if st.BandwidthUsed > a.Slices[s]+eps {
				t.Errorf("%s: shard %d spends %v of its %v slice",
					context, s, st.BandwidthUsed, a.Slices[s])
			}
			globalExplore += st.ExploreBandwidth
		}
		if globalExplore > exploreFrac*a.Budget+eps {
			t.Errorf("%s: fleet explore spend %v exceeds frac·budget %v",
				context, globalExplore, exploreFrac*a.Budget)
		}
	}

	// Level the full budget and apply the slices: every shard's explore
	// spend must fit inside its own slice.
	full, err := Allocate(mirrors, allHealthy(k), uniformTraffic(place), budget, nil, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	apply(full)
	checkWithin(full, "full budget")
	before := make([]float64, k)
	for s, m := range mirrors {
		before[s] = m.Status().ExploreBandwidth
		if before[s] <= 0 {
			t.Fatalf("shard %d has no explore spend on a cold estimator", s)
		}
	}

	// The allocator cuts every slice (smaller global pool): each
	// shard's explore spend must shrink along with its slice — the
	// probe tax cannot hold onto bandwidth the shard no longer has.
	cut, err := Allocate(mirrors, allHealthy(k), uniformTraffic(place), budget/3, nil, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	apply(cut)
	checkWithin(cut, "cut budget")
	for s, m := range mirrors {
		after := m.Status().ExploreBandwidth
		if cut.Slices[s] < full.Slices[s] && after >= before[s] {
			t.Errorf("shard %d explore spend %v did not shrink from %v after its slice was cut %v → %v",
				s, after, before[s], full.Slices[s], cut.Slices[s])
		}
	}
}
