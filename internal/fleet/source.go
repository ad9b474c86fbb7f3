package fleet

import (
	"context"
	"fmt"
	"sync/atomic"

	"freshen/internal/httpmirror"
)

// shardSource presents one shard's slice of a global source as a
// dense catalog: local id l is global id gids[l]. Mirrors require
// dense ids starting at 0, so every shard sees its own [0, len)
// world; the fleet layer translates at the boundary (here for refresh
// traffic, in the router for serve traffic).
type shardSource struct {
	inner httpmirror.Source
	gids  []int32 // the placement's, shared
	// boot is the shard's catalog from the fleet's boot fetch, if any.
	// The first Catalog call takes it, so the view does not keep it.
	boot atomic.Pointer[[]httpmirror.CatalogEntry]
}

// newShardSource builds shard s's view of the global source. The view
// answers conditional fetches exactly when inner does, so a shard's
// mirror polls with one conditional GET, as a single mirror does,
// instead of falling back to HEAD-then-GET. Both variants fetch
// batches when inner does. A non-nil boot answers the view's first
// Catalog call in place of a fetch.
func newShardSource(inner httpmirror.Source, p *Placement, s int, boot []httpmirror.CatalogEntry) httpmirror.Source {
	base := &shardSource{inner: inner, gids: p.Globals(s)}
	if boot != nil {
		base.boot.Store(&boot)
	}
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
	if boot := s.boot.Swap(nil); boot != nil {
		return *boot, nil
	}
	global, err := s.inner.Catalog(ctx)
	if err != nil {
		return nil, err
	}
	if err := checkDense(global); err != nil {
		return nil, err
	}
	return localCatalog(global, s.gids)
}

// checkDense holds a global catalog to the rule httpmirror.New applies
// to its own, since shards look their objects up in it by id: entry i
// has id i.
func checkDense(catalog []httpmirror.CatalogEntry) error {
	for i, e := range catalog {
		if e.ID != i {
			return fmt.Errorf("fleet: global catalog ids must be dense, got %d at position %d", e.ID, i)
		}
	}
	return nil
}

// localCatalog lists the objects gids names under their dense local
// ids, keeping each object's size in the dense global catalog.
func localCatalog(global []httpmirror.CatalogEntry, gids []int32) ([]httpmirror.CatalogEntry, error) {
	local := make([]httpmirror.CatalogEntry, len(gids))
	for l, gid := range gids {
		if int(gid) >= len(global) {
			return nil, fmt.Errorf("fleet: global catalog is missing object %d owned by this shard", gid)
		}
		local[l] = httpmirror.CatalogEntry{ID: l, Size: global[gid].Size}
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
	return int(s.gids[id]), nil
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
