package fleet

import (
	"context"
	"fmt"

	"freshen/internal/httpmirror"
)

// shardSource presents one shard's slice of a global source as a
// dense catalog: local id l is global id gids[l]. Mirrors require
// dense ids starting at 0, so every shard sees its own [0, len)
// world; the fleet layer translates at the boundary (here for refresh
// traffic, in the router for serve traffic).
type shardSource struct {
	inner httpmirror.Source
	gids  []int
}

// newShardSource builds shard s's view of the global source. The view
// answers conditional fetches exactly when inner does, so a shard's
// mirror polls with one conditional GET, as a single mirror does,
// instead of falling back to HEAD-then-GET. Both variants fetch
// batches when inner does.
func newShardSource(inner httpmirror.Source, p *Placement, s int) httpmirror.Source {
	base := &shardSource{inner: inner, gids: p.Globals(s)}
	if cond, ok := inner.(httpmirror.ConditionalSource); ok {
		return &condShardSource{shardSource: base, cond: cond}
	}
	return base
}

// condShardSource is the shard view of a ConditionalSource.
type condShardSource struct {
	*shardSource
	cond httpmirror.ConditionalSource
}

func (s *condShardSource) FetchIfNewer(ctx context.Context, id, have int) ([]byte, int, bool, error) {
	gid, err := s.global(id)
	if err != nil {
		return nil, 0, false, err
	}
	return s.cond.FetchIfNewer(ctx, gid, have)
}

// Catalog lists the shard's objects under their dense local ids,
// keeping each object's global size.
func (s *shardSource) Catalog(ctx context.Context) ([]httpmirror.CatalogEntry, error) {
	global, err := s.inner.Catalog(ctx)
	if err != nil {
		return nil, err
	}
	sizes := make(map[int]float64, len(global))
	for _, e := range global {
		sizes[e.ID] = e.Size
	}
	local := make([]httpmirror.CatalogEntry, len(s.gids))
	for l, gid := range s.gids {
		size, ok := sizes[gid]
		if !ok {
			return nil, fmt.Errorf("fleet: global catalog is missing object %d owned by this shard", gid)
		}
		local[l] = httpmirror.CatalogEntry{ID: l, Size: size}
	}
	return local, nil
}

// global translates a local id, rejecting out-of-range ids before
// they reach the upstream (a shard must never fetch another shard's
// objects).
func (s *shardSource) global(id int) (int, error) {
	if id < 0 || id >= len(s.gids) {
		return 0, fmt.Errorf("fleet: local id %d outside shard catalog of %d", id, len(s.gids))
	}
	return s.gids[id], nil
}

func (s *shardSource) Fetch(ctx context.Context, id int) ([]byte, int, error) {
	gid, err := s.global(id)
	if err != nil {
		return nil, 0, err
	}
	return s.inner.Fetch(ctx, gid)
}

// FetchBatch forwards a batch under its global ids, or reports
// httpmirror.ErrBatchUnsupported when inner does not fetch batches.
func (s *shardSource) FetchBatch(ctx context.Context, ids []int) ([][]byte, []int, error) {
	batch, ok := s.inner.(httpmirror.BatchSource)
	if !ok {
		return nil, nil, httpmirror.ErrBatchUnsupported
	}
	gids := make([]int, len(ids))
	for k, id := range ids {
		gid, err := s.global(id)
		if err != nil {
			return nil, nil, err
		}
		gids[k] = gid
	}
	return batch.FetchBatch(ctx, gids)
}

func (s *shardSource) Version(ctx context.Context, id int) (int, error) {
	gid, err := s.global(id)
	if err != nil {
		return 0, err
	}
	return s.inner.Version(ctx, gid)
}

// Retries and Failures delegate to the shared transport: the counters
// are per-client, and each shard owns its own client in production
// (cmd/freshend builds one SourceClient per shard precisely so these
// stay shard-scoped).
func (s *shardSource) Retries() int64  { return s.inner.Retries() }
func (s *shardSource) Failures() int64 { return s.inner.Failures() }
