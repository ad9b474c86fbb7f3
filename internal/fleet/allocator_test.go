package fleet

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"testing"

	"freshen/internal/core"
	"freshen/internal/httpmirror"
)

// newShardMirrors builds k live mirrors over one memSource via a hash
// placement — the allocator's inputs, without a running fleet.
func newShardMirrors(t *testing.T, n, k int) ([]*httpmirror.Mirror, *Placement) {
	t.Helper()
	src := newMemSource(n)
	place, err := HashPlacement(n, k)
	if err != nil {
		t.Fatal(err)
	}
	mirrors := make([]*httpmirror.Mirror, k)
	for s := 0; s < k; s++ {
		m, err := httpmirror.New(context.Background(), httpmirror.Config{
			Upstream: newShardSource(src, place, s, nil),
			Plan: core.Config{
				Strategy:  core.StrategyExact,
				Bandwidth: 1,
			},
			ReplanEvery: 1,
			PriorLambda: 1,
			FloorLambda: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		mirrors[s] = m
	}
	return mirrors, place
}

func uniformTraffic(place *Placement) []float64 {
	traffic := make([]float64, place.K())
	for s := range traffic {
		traffic[s] = float64(len(place.Globals(s)))
	}
	return traffic
}

func allHealthy(k int) []bool {
	h := make([]bool, k)
	for i := range h {
		h[i] = true
	}
	return h
}

func TestAllocateConservation(t *testing.T) {
	mirrors, place := newShardMirrors(t, 30, 3)
	const budget = 9.0
	a, err := Allocate(mirrors, allHealthy(3), uniformTraffic(place), budget, nil, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Conserved(1e-9); err != nil {
		t.Error(err)
	}
	total := 0.0
	for s, sl := range a.Slices {
		if sl <= 0 {
			t.Errorf("shard %d slice %v with uniform traffic", s, sl)
		}
		total += sl
	}
	if total != budget {
		t.Errorf("slices sum to %v, want exactly %v (residual must land on a slice)", total, budget)
	}
	if a.Cert.Funded == 0 || a.Cert.StationarityErr > 1e-6 || a.Cert.CutoffErr > 1e-6 {
		t.Errorf("certificate not clean: %+v", a.Cert)
	}
	if a.Perceived <= 0 || a.Perceived > 1 {
		t.Errorf("pooled PF %v outside (0, 1]", a.Perceived)
	}
}

func TestAllocateExcludesUnhealthy(t *testing.T) {
	mirrors, place := newShardMirrors(t, 30, 3)
	healthy := allHealthy(3)
	healthy[1] = false
	a, err := Allocate(mirrors, healthy, uniformTraffic(place), 9, nil, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if a.Slices[1] != 0 {
		t.Errorf("unhealthy shard 1 got %v", a.Slices[1])
	}
	if a.Weights[1] != 0 {
		t.Errorf("unhealthy shard 1 weighted %v", a.Weights[1])
	}
	if a.Slices[0]+a.Slices[2] != 9 {
		t.Errorf("survivors hold %v of 9", a.Slices[0]+a.Slices[2])
	}
	if err := a.Conserved(1e-9); err != nil {
		t.Error(err)
	}
}

func TestAllocateNoHealthyShards(t *testing.T) {
	mirrors, place := newShardMirrors(t, 30, 3)
	if _, err := Allocate(mirrors, make([]bool, 3), uniformTraffic(place), 9, nil, 1e-6); err == nil {
		t.Fatal("allocating to zero healthy shards must fail")
	}
	// A nil mirror (dead shard) with a true health flag is excluded,
	// not dereferenced.
	mirrors[0], mirrors[1] = nil, nil
	healthy := []bool{true, true, true}
	a, err := Allocate(mirrors, healthy, uniformTraffic(place), 9, nil, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if a.Slices[2] != 9 {
		t.Errorf("sole live shard holds %v of 9", a.Slices[2])
	}
}

func TestAllocateTrafficWeighting(t *testing.T) {
	mirrors, place := newShardMirrors(t, 30, 3)
	// Shard 0 carries 100× the traffic of the rest: its keyspace's
	// marginal PF dominates, so it must win a strictly larger slice
	// than under uniform traffic.
	skew := uniformTraffic(place)
	skew[0] *= 100
	uni, err := Allocate(mirrors, allHealthy(3), uniformTraffic(place), 6, nil, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	hot, err := Allocate(mirrors, allHealthy(3), skew, 6, nil, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	if hot.Slices[0] <= uni.Slices[0] {
		t.Errorf("hot shard slice %v not above uniform %v", hot.Slices[0], uni.Slices[0])
	}
	if hot.Weights[0] <= hot.Weights[1] || hot.Weights[0] <= hot.Weights[2] {
		t.Errorf("hot shard weight %v not dominant: %v", hot.Weights[0], hot.Weights)
	}
	if err := hot.Conserved(1e-9); err != nil {
		t.Error(err)
	}
}

// brokenSource is a memSource whose objects in broken fail every poll
// once failing is set.
type brokenSource struct {
	*memSource
	broken  map[int]bool
	failing atomic.Bool
}

func (s *brokenSource) Version(ctx context.Context, id int) (int, error) {
	if s.failing.Load() && s.broken[id] {
		return 0, fmt.Errorf("object %d is broken", id)
	}
	return s.memSource.Version(ctx, id)
}

// TestAllocateLeavesOutQuarantined: the pooled program holds what each
// shard's own solve schedules, so a shard's quarantined objects draw no
// budget that the shard would then spend on its other objects. Every
// object is alike here (same rate, size and access share), so each
// scheduled object is worth an equal share of the budget.
func TestAllocateLeavesOutQuarantined(t *testing.T) {
	const n, budget, broken = 40, 20.0, 10
	place, err := HashPlacement(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	src := &brokenSource{memSource: newMemSource(n), broken: map[int]bool{}}
	for _, gid := range place.Globals(0)[:broken] {
		src.broken[int(gid)] = true
	}
	mirrors := make([]*httpmirror.Mirror, 2)
	for s := range mirrors {
		m, err := httpmirror.New(context.Background(), httpmirror.Config{
			Upstream:    newShardSource(src, place, s, nil),
			Plan:        core.Config{Strategy: core.StrategyExact, Bandwidth: float64(len(place.Globals(s)))},
			PriorLambda: 1,
			FloorLambda: 1,
			Fault:       httpmirror.FaultPolicy{QuarantineAfter: 1, BreakerThreshold: -1, ProbeEvery: 1000},
		})
		if err != nil {
			t.Fatal(err)
		}
		mirrors[s] = m
	}
	src.failing.Store(true)
	for now := 1.0; mirrors[0].Status().Quarantined < broken && now <= 5; now++ {
		if _, err := mirrors[0].Step(now); err != nil {
			t.Fatal(err)
		}
	}
	if q := mirrors[0].Status().Quarantined; q != broken {
		t.Fatalf("setup: shard 0 quarantined %d objects, want %d", q, broken)
	}

	a, err := Allocate(mirrors, allHealthy(2), uniformTraffic(place), budget, nil, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	scheduled := []float64{float64(len(place.Globals(0)) - broken), float64(len(place.Globals(1)))}
	for s, k := range scheduled {
		if want := budget * k / (scheduled[0] + scheduled[1]); math.Abs(a.Slices[s]-want) > 1e-6 {
			t.Errorf("shard %d slice %v, want %v for its %v scheduled objects", s, a.Slices[s], want, k)
		}
	}
}

func TestAllocateRejectsBadInputs(t *testing.T) {
	mirrors, place := newShardMirrors(t, 30, 3)
	traffic := uniformTraffic(place)
	for _, budget := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := Allocate(mirrors, allHealthy(3), traffic, budget, nil, 1e-6); err == nil {
			t.Errorf("budget %v accepted", budget)
		}
	}
	if _, err := Allocate(mirrors, allHealthy(2), traffic, 9, nil, 1e-6); err == nil {
		t.Error("mismatched health slice accepted")
	}
	if _, err := Allocate(mirrors, allHealthy(3), traffic[:2], 9, nil, 1e-6); err == nil {
		t.Error("mismatched traffic slice accepted")
	}
	for _, bad := range []float64{0, -3, math.NaN(), math.Inf(1)} {
		badTraffic := uniformTraffic(place)
		badTraffic[1] = bad
		if _, err := Allocate(mirrors, allHealthy(3), badTraffic, 9, nil, 1e-6); err == nil {
			t.Errorf("traffic count %v accepted for a healthy shard", bad)
		}
	}
}

func TestShardSourceMapping(t *testing.T) {
	src := newMemSource(20)
	place, err := HashPlacement(20, 3)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		ss := newShardSource(src, place, s, nil)
		catalog, err := ss.Catalog(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		gids := place.Globals(s)
		if len(catalog) != len(gids) {
			t.Fatalf("shard %d catalog has %d entries for %d owned objects", s, len(catalog), len(gids))
		}
		for local, e := range catalog {
			if e.ID != local {
				t.Errorf("shard %d catalog entry %d has id %d — local ids must be dense", s, local, e.ID)
			}
			body, _, err := ss.Fetch(context.Background(), local)
			if err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("object-%d-v0", gids[local])
			if string(body) != want {
				t.Errorf("shard %d local %d fetched %q, want %q", s, local, body, want)
			}
		}
		// Out-of-range local ids fail instead of touching a neighbour's
		// keyspace.
		if _, _, err := ss.Fetch(context.Background(), len(gids)); err == nil {
			t.Errorf("shard %d fetched past its keyspace", s)
		}
		if _, _, err := ss.Fetch(context.Background(), -1); err == nil {
			t.Errorf("shard %d fetched local -1", s)
		}
	}
}
