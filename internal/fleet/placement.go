// Package fleet runs the mirror horizontally: the global catalog is
// partitioned across K fault-isolated shards, each an independent
// httpmirror.Mirror with its own solver, estimator state, and persist
// directory; a top-level allocator water-fills the global refresh
// budget across shards on their marginal-PF curves; and a router
// fronts the fleet, serving each read in-process from its owning
// shard and answering a dead shard's keyspace with an immediate 503 —
// never a mis-route or a hang (see DESIGN.md §14).
package fleet

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
)

// Placement is the object→shard map: a fixed assignment of global
// object ids [0, N) to shards [0, K), plus the dense local id each
// object carries inside its shard (mirrors require dense catalogs).
// The placement is immutable once built — routing correctness ("never
// mis-routes") depends on the router and every shard agreeing on it.
//
// It holds 10 B per object, a uint16 shard index and two int32 ids,
// so a placement has at most MaxShards shards and 2³¹−1 objects.
type Placement struct {
	k       int
	shardOf []uint16  // global id → owning shard
	local   []int32   // global id → dense local id within that shard
	globals [][]int32 // shard → ascending global ids it owns
}

// MaxShards is the most shards a placement spreads over: a shard
// index is a uint16.
const MaxShards = math.MaxUint16

// K is the shard count.
func (p *Placement) K() int { return p.k }

// NumObjects is the global catalog size.
func (p *Placement) NumObjects() int { return len(p.shardOf) }

// ShardOf returns the shard owning a global id, or -1 when the id is
// outside the catalog.
func (p *Placement) ShardOf(gid int) int {
	if gid < 0 || gid >= len(p.shardOf) {
		return -1
	}
	return int(p.shardOf[gid])
}

// Local returns the dense local id a global object carries inside its
// owning shard, or -1 when the id is outside the catalog.
func (p *Placement) Local(gid int) int {
	if gid < 0 || gid >= len(p.local) {
		return -1
	}
	return int(p.local[gid])
}

// Globals returns the ascending global ids shard s owns. The slice is
// shared; callers must not mutate it.
func (p *Placement) Globals(s int) []int32 { return p.globals[s] }

// Validate checks the placement is a true partition: every global id
// owned by exactly one shard, local ids dense per shard, and no shard
// left empty (an empty shard cannot host a mirror — mirrors reject
// empty catalogs — so placements refuse to create one).
func (p *Placement) Validate() error {
	if p.k <= 0 {
		return fmt.Errorf("fleet: placement has %d shards", p.k)
	}
	seen := 0
	for s, gids := range p.globals {
		if len(gids) == 0 {
			return fmt.Errorf("fleet: shard %d owns no objects (catalog of %d split %d ways)", s, len(p.shardOf), p.k)
		}
		for l, gid := range gids {
			if gid < 0 || int(gid) >= len(p.shardOf) {
				return fmt.Errorf("fleet: shard %d owns out-of-range global id %d", s, gid)
			}
			if int(p.shardOf[gid]) != s || int(p.local[gid]) != l {
				return fmt.Errorf("fleet: inconsistent placement for global id %d", gid)
			}
			seen++
		}
	}
	if seen != len(p.shardOf) {
		return fmt.Errorf("fleet: placement covers %d of %d objects", seen, len(p.shardOf))
	}
	return nil
}

// build finishes a placement from the shard→globals assignment. A
// uint16 has no −1, so an id not yet assigned is told by its local id.
func build(n int, globals [][]int32) (*Placement, error) {
	p := &Placement{
		k:       len(globals),
		shardOf: make([]uint16, n),
		local:   make([]int32, n),
		globals: globals,
	}
	for i := range p.local {
		p.local[i] = -1
	}
	for s, gids := range globals {
		slices.Sort(gids)
		for l, gid := range gids {
			if gid < 0 || int(gid) >= n {
				return nil, fmt.Errorf("fleet: global id %d outside catalog of %d", gid, n)
			}
			if p.local[gid] != -1 {
				return nil, fmt.Errorf("fleet: global id %d assigned to shards %d and %d", gid, p.shardOf[gid], s)
			}
			p.shardOf[gid] = uint16(s)
			p.local[gid] = int32(l)
		}
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// vnodesPerShard is the consistent-hash ring density. 64 virtual
// nodes per shard keeps the expected per-shard load imbalance under a
// few percent at the catalog sizes the mirror targets, while the ring
// stays small enough to build in microseconds.
const vnodesPerShard = 64

// HashPlacement spreads n global ids across k shards by consistent
// hashing: each shard projects vnodesPerShard virtual nodes onto a
// hash ring and every object belongs to the first vnode clockwise
// from its own hash. The assignment depends only on (n, k), so the
// router and every shard derive the identical map independently.
func HashPlacement(n, k int) (*Placement, error) {
	if k <= 0 || k > MaxShards {
		return nil, fmt.Errorf("fleet: shard count must be in [1, %d], got %d", MaxShards, k)
	}
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("fleet: a placement holds at most %d objects, got %d", math.MaxInt32, n)
	}
	if n < k {
		return nil, fmt.Errorf("fleet: cannot split %d objects across %d shards", n, k)
	}
	type vnode struct {
		pos   uint64
		shard int
	}
	// Keys are built in one reused buffer: "shard-S-vnode-V" for the
	// ring, "object-G" for each object.
	key := make([]byte, 0, 64)
	ring := make([]vnode, 0, k*vnodesPerShard)
	for s := 0; s < k; s++ {
		for v := 0; v < vnodesPerShard; v++ {
			key = append(strconv.AppendInt(append(key[:0], "shard-"...), int64(s), 10), "-vnode-"...)
			ring = append(ring, vnode{ringHash(strconv.AppendInt(key, int64(v), 10)), s})
		}
	}
	slices.SortFunc(ring, func(a, b vnode) int { return cmp.Compare(a.pos, b.pos) })
	shardOf := make([]uint16, n)
	owned := make([]int, k)
	for gid := range shardOf {
		h := ringHash(strconv.AppendInt(append(key[:0], "object-"...), int64(gid), 10))
		i, _ := slices.BinarySearchFunc(ring, h, func(v vnode, h uint64) int { return cmp.Compare(v.pos, h) })
		if i == len(ring) {
			i = 0
		}
		shardOf[gid] = uint16(ring[i].shard)
		owned[ring[i].shard]++
	}
	globals := make([][]int32, k)
	for s := range globals {
		globals[s] = make([]int32, 0, owned[s])
	}
	for gid, s := range shardOf {
		globals[s] = append(globals[s], int32(gid))
	}
	// Consistent hashing leaves a shard empty only in tiny catalogs;
	// an empty shard cannot host a mirror, so hand it the largest
	// shard's tail objects (still deterministic in (n, k)).
	for s := range globals {
		for len(globals[s]) == 0 {
			big := 0
			for t := range globals {
				if len(globals[t]) > len(globals[big]) {
					big = t
				}
			}
			if len(globals[big]) < 2 {
				return nil, fmt.Errorf("fleet: cannot split %d objects across %d shards", n, k)
			}
			last := len(globals[big]) - 1
			globals[s] = append(globals[s], globals[big][last])
			globals[big] = globals[big][:last]
		}
	}
	return build(n, globals)
}

// ringHash is FNV-64a through a murmur3 finalizer. Raw FNV leaves the
// sequential "object-N" keys clustered on one arc of the ring (whole
// shards end up empty); the finalizer's avalanche spreads them. Both
// stages are fixed constants — the placement must be identical across
// processes and releases. The FNV-64a loop is hash/fnv's, inlined so a
// key costs no allocation.
func ringHash(key []byte) uint64 {
	x := uint64(14695981039346656037) // FNV-64 offset basis
	for _, c := range key {
		x ^= uint64(c)
		x *= 1099511628211 // FNV-64 prime
	}
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}
