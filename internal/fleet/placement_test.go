package fleet

import (
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"sort"
	"strings"
	"testing"

	"freshen/internal/testkit"
)

func TestHashPlacementCoversEveryObject(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{10, 3}, {200, 5}, {64, 64}, {1000, 7}} {
		t.Run(fmt.Sprintf("n=%d_k=%d", tc.n, tc.k), func(t *testing.T) {
			p, err := HashPlacement(tc.n, tc.k)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
			if p.K() != tc.k || p.NumObjects() != tc.n {
				t.Fatalf("placement is %d shards × %d objects, want %d × %d", p.K(), p.NumObjects(), tc.k, tc.n)
			}
			for gid := 0; gid < tc.n; gid++ {
				s := p.ShardOf(gid)
				if s < 0 || s >= tc.k {
					t.Fatalf("object %d owned by shard %d", gid, s)
				}
				if got := int(p.Globals(s)[p.Local(gid)]); got != gid {
					t.Fatalf("object %d round-trips to %d", gid, got)
				}
			}
		})
	}
}

func TestHashPlacementDeterministic(t *testing.T) {
	a, err := HashPlacement(500, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := HashPlacement(500, 5)
	if err != nil {
		t.Fatal(err)
	}
	for gid := 0; gid < 500; gid++ {
		if a.ShardOf(gid) != b.ShardOf(gid) || a.Local(gid) != b.Local(gid) {
			t.Fatalf("object %d placed differently across builds: %d/%d vs %d/%d",
				gid, a.ShardOf(gid), a.Local(gid), b.ShardOf(gid), b.Local(gid))
		}
	}
}

func TestHashPlacementRoughlyBalanced(t *testing.T) {
	const n, k = 2000, 5
	p, err := HashPlacement(n, k)
	if err != nil {
		t.Fatal(err)
	}
	mean := n / k
	for s := 0; s < k; s++ {
		got := len(p.Globals(s))
		if got < mean/4 || got > mean*4 {
			t.Errorf("shard %d owns %d objects; mean is %d", s, got, mean)
		}
	}
}

// referencePlacement is HashPlacement's shard assignment as first
// written, with fmt-built keys and hash/fnv: the map every persisted
// shard's state was placed by.
func referencePlacement(n, k int) [][]int {
	hash := func(s string) uint64 {
		h := fnv.New64a()
		h.Write([]byte(s))
		x := h.Sum64()
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		x *= 0xc4ceb9fe1a85ec53
		x ^= x >> 33
		return x
	}
	type vnode struct {
		pos   uint64
		shard int
	}
	var ring []vnode
	for s := 0; s < k; s++ {
		for v := 0; v < vnodesPerShard; v++ {
			ring = append(ring, vnode{hash(fmt.Sprintf("shard-%d-vnode-%d", s, v)), s})
		}
	}
	sort.Slice(ring, func(i, j int) bool { return ring[i].pos < ring[j].pos })
	globals := make([][]int, k)
	for gid := 0; gid < n; gid++ {
		h := hash(fmt.Sprintf("object-%d", gid))
		i := sort.Search(len(ring), func(i int) bool { return ring[i].pos >= h })
		if i == len(ring) {
			i = 0
		}
		globals[ring[i].shard] = append(globals[ring[i].shard], gid)
	}
	for s := range globals {
		for len(globals[s]) == 0 {
			big := 0
			for t := range globals {
				if len(globals[t]) > len(globals[big]) {
					big = t
				}
			}
			last := len(globals[big]) - 1
			globals[s] = append(globals[s], globals[big][last])
			globals[big] = globals[big][:last]
		}
	}
	for _, g := range globals {
		sort.Ints(g)
	}
	return globals
}

// TestHashPlacementMatchesReference pins the assignment to the
// reference: a different map would scatter every persisted shard's
// state across the wrong shards.
func TestHashPlacementMatchesReference(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4, 7, 16} {
		for _, n := range []int{k, 2*k + 1, 1000, 100_003} {
			p, err := HashPlacement(n, k)
			if err != nil {
				t.Fatalf("n=%d k=%d: %v", n, k, err)
			}
			for s, want := range referencePlacement(n, k) {
				got := p.Globals(s)
				if len(got) != len(want) {
					t.Fatalf("n=%d k=%d: shard %d owns %d objects, reference %d", n, k, s, len(got), len(want))
				}
				for l := range want {
					if int(got[l]) != want[l] {
						t.Fatalf("n=%d k=%d: shard %d's object %d is %d, reference %d", n, k, s, l, got[l], want[l])
					}
				}
			}
		}
	}
}

// TestHashPlacementAllocsFlat: a placement's allocations do not grow
// with the catalog: every per-object array is sized once, and keys
// are built in one reused buffer. The collector is off while it
// counts, so the runtime's own allocations during a cycle stay out.
func TestHashPlacementAllocsFlat(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := func(n int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := HashPlacement(n, 4); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(1000), allocs(100_000); large != small {
		t.Errorf("HashPlacement allocates %v times at n=1,000 and %v at n=100,000", small, large)
	}
}

// BenchmarkHashPlacement times a four-shard placement.
func BenchmarkHashPlacement(b *testing.B) {
	for _, n := range []int{20_000, 500_000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := HashPlacement(n, 4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func TestHashPlacementErrors(t *testing.T) {
	if _, err := HashPlacement(10, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := HashPlacement(2, 3); err == nil {
		t.Error("n<k accepted")
	}
	if _, err := HashPlacement(100_000, MaxShards+1); err == nil || !strings.Contains(err.Error(), "shard count") {
		t.Errorf("k=%d: %v, want a shard count error", MaxShards+1, err)
	}
}

// TestPlacementBytesPerObject pins a placement at 10 B per object, a
// uint16 shard index and two int32 ids: at most 11 B per object on top
// of 16 KiB at N=20,000 and N=500,000.
func TestPlacementBytesPerObject(t *testing.T) {
	const perObject, fixed = 11, 16 << 10
	for _, n := range []int{20_000, 500_000} {
		retained := testkit.LeastRetained(func() any {
			p, err := HashPlacement(n, 4)
			if err != nil {
				t.Fatal(err)
			}
			return p
		})
		t.Logf("N=%d: %d B retained, %.2f B per object", n, retained, float64(retained)/float64(n))
		if retained > int64(perObject*n+fixed) {
			t.Errorf("a placement of %d objects retains %d B, %.2f B per object: want at most %d B per object and %d B fixed",
				n, retained, float64(retained)/float64(n), perObject, fixed)
		}
	}
}

func TestPlacementOutOfRange(t *testing.T) {
	p, err := HashPlacement(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, gid := range []int{-1, 10, 1 << 20} {
		if p.ShardOf(gid) != -1 || p.Local(gid) != -1 {
			t.Errorf("out-of-range id %d resolved to shard %d local %d", gid, p.ShardOf(gid), p.Local(gid))
		}
	}
}
