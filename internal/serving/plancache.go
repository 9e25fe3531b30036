package serving

import (
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/embedding"
)

// This file is the epoch-reuse layer that makes a repartition cheap
// instead of a teardown. Three pieces cooperate:
//
//   - shardUnit: one shard's service bundle (service, replica pool,
//     transports) refcounted across epochs. A RoutingTable holds one
//     reference per shard it routes to; the plan cache holds one more
//     while the unit is cached. Transports are torn down only when the
//     last reference drops — so an unchanged shard's live service (and
//     its autoscaled replica pool) survives a plan swap untouched.
//   - planCache: a per-model memo of Preprocess outputs keyed by the
//     profiling window's fingerprint, and of shard units keyed by
//     (fingerprint, table, row range). Returning to a recent plan reuses
//     its sorted/permuted tables and its shard services instead of
//     re-permuting and respawning; entries idle for more than maxAge
//     epochs are evicted.
//   - fingerprintStats: the cache key — a content hash of the profiling
//     window, so "same stats" is detected without retaining the window.

// shardUnit bundles one shard's service, replica pool and transport
// resources, shared across routing-table epochs by refcount. retain/release
// calls are serialized by the owning deployment's repartition mutex (and by
// single-threaded construction before serving starts), so the zero-check in
// release never races a concurrent retain.
type shardUnit struct {
	table  int
	lo, hi int64 // sorted-space row range [lo, hi)

	svc  *EmbeddingShard
	pool *ReplicaPool

	servers []*RPCServer
	closers []io.Closer
	refs    atomic.Int64
}

// retain adds one reference (a routing-table epoch or the plan cache).
func (u *shardUnit) retain() { u.refs.Add(1) }

// release drops one reference, tearing the transports down when the last
// holder (epoch or cache) lets go.
func (u *shardUnit) release() {
	if u.refs.Add(-1) > 0 {
		return
	}
	u.teardown()
}

// teardown drains the unit's pull pool, then closes its transports (RPC
// clients, then servers). The pool closes first so every replica worker —
// including workers spawned by within-epoch autoscaling, which can outlive
// the epoch that created the unit — exits before the connections it
// dispatches on drop. Also called directly on a build that failed before
// the unit was ever retained.
func (u *shardUnit) teardown() {
	if u.pool != nil {
		u.pool.Close()
	}
	for _, c := range u.closers {
		_ = c.Close()
	}
	u.closers = nil
	for _, s := range u.servers {
		_ = s.Close()
	}
	u.servers = nil
}

// unitKey identifies a reusable shard: same profiling-window fingerprint
// (hence identical sorted table contents), same table, same row range AND
// same shard ordinal. The ordinal matters for identity, not correctness:
// a row range that reappears at a different shard position (a replan that
// drops or inserts a cut before it) is rebuilt rather than reused, so a
// service's ShardIndex, its metrics and its transport name never claim a
// position the live plan doesn't have.
type unitKey struct {
	fp     uint64
	table  int
	shard  int
	lo, hi int64
}

// cachedPre is one memoized Preprocess output with its last-use epoch.
type cachedPre struct {
	pre       *Preprocessed
	lastEpoch int64
}

// cachedUnit is one memoized shard unit with its last-use epoch. The cache
// holds its own reference on the unit (dropped on eviction), so a cached
// shard stays warm even after every epoch that used it has closed.
type cachedUnit struct {
	unit      *shardUnit
	lastEpoch int64
}

// planCache memoizes one model's plan-construction outputs across epochs.
// maxAge == n keeps an entry alive for n epochs past its last use.
type planCache struct {
	mu     sync.Mutex
	maxAge int64
	pres   map[uint64]*cachedPre
	units  map[unitKey]*cachedUnit
}

// newPlanCache creates a cache retaining entries for maxAge epochs past
// their last use.
func newPlanCache(maxAge int64) *planCache {
	return &planCache{
		maxAge: maxAge,
		pres:   make(map[uint64]*cachedPre),
		units:  make(map[unitKey]*cachedUnit),
	}
}

// lookupPre returns the memoized Preprocess output for a window
// fingerprint, refreshing its age (nil on miss).
func (c *planCache) lookupPre(fp uint64, epoch int64) *Preprocessed {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.pres[fp]
	if !ok {
		return nil
	}
	e.lastEpoch = epoch
	return e.pre
}

// putPre memoizes a freshly computed Preprocess output.
func (c *planCache) putPre(fp uint64, pre *Preprocessed, epoch int64) {
	c.mu.Lock()
	c.pres[fp] = &cachedPre{pre: pre, lastEpoch: epoch}
	c.mu.Unlock()
}

// lookupUnit returns the cached shard unit for key, refreshing its age
// (nil on miss). The caller must retain the unit before routing to it.
func (c *planCache) lookupUnit(key unitKey, epoch int64) *shardUnit {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.units[key]
	if !ok {
		return nil
	}
	e.lastEpoch = epoch
	return e.unit
}

// putUnit caches a freshly built shard unit, taking the cache's own
// reference on it.
func (c *planCache) putUnit(key unitKey, u *shardUnit, epoch int64) {
	u.retain()
	c.mu.Lock()
	c.units[key] = &cachedUnit{unit: u, lastEpoch: epoch}
	c.mu.Unlock()
}

// evict drops every entry idle for more than maxAge epochs as of the epoch
// just built, releasing the cache's reference on evicted shard units.
func (c *planCache) evict(epoch int64) {
	c.mu.Lock()
	var drop []*shardUnit
	for fp, e := range c.pres {
		if e.lastEpoch < epoch-c.maxAge {
			delete(c.pres, fp)
		}
	}
	for key, e := range c.units {
		if e.lastEpoch < epoch-c.maxAge {
			delete(c.units, key)
			drop = append(drop, e.unit)
		}
	}
	c.mu.Unlock()
	// Release outside the lock: teardown closes sockets.
	for _, u := range drop {
		u.release()
	}
}

// clear drops everything (deployment shutdown), releasing the cache's
// references.
func (c *planCache) clear() {
	c.mu.Lock()
	units := c.units
	c.pres = make(map[uint64]*cachedPre)
	c.units = make(map[unitKey]*cachedUnit)
	c.mu.Unlock()
	for _, e := range units {
		e.unit.release()
	}
}

// occupancy snapshots the cache's current footprint: entry counts per memo
// kind and the bytes of cached sorted tables (the dominant cost — each
// memoized Preprocess output holds a full sorted copy of every embedding
// table). This is the per-model number the cross-variant cache budget
// (ROADMAP) will aggregate into a global LRU.
func (c *planCache) occupancy() (pres, units int, sortedBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.pres {
		for _, tab := range e.pre.Sorted {
			sortedBytes += tab.SizeBytes()
		}
	}
	return len(c.pres), len(c.units), sortedBytes
}

// fingerprintStats content-hashes a profiling window (per-table access
// counts), so two windows with identical counts memoize to the same plan.
// Word-wise FNV-1a (one multiply per counter rather than per byte): not a
// cryptographic hash, just a memo key — O(rows) at a few ns per row,
// orders of magnitude cheaper than the Preprocess permutation it saves.
func fingerprintStats(stats []*embedding.AccessStats) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	word := func(v int64) {
		h = (h ^ uint64(v)) * prime64
	}
	for t, st := range stats {
		word(int64(t))
		word(st.Rows())
		word(st.Total)
		for _, c := range st.Counts {
			word(c)
		}
	}
	return h
}

// BuildCounters is the deployment-lifetime tally of plan-construction work
// — the observable the epoch-reuse tests spy on: a cache-hit repartition
// must not move Preprocesses or ShardsBuilt, and an incremental
// single-boundary move must raise ShardsBuilt by exactly the moved shards.
type BuildCounters struct {
	// Preprocesses counts full hotness-sort+permute runs (cache misses on
	// the profiling-window fingerprint).
	Preprocesses int64
	// PreCacheHits counts builds that reused a memoized Preprocess output.
	PreCacheHits int64
	// ShardsBuilt counts shard services newly constructed (with their
	// pools and transports).
	ShardsBuilt int64
	// ShardsReused counts shard services carried across epochs by
	// refcount instead of being rebuilt.
	ShardsReused int64
	// CachedPres / CachedUnits are the plan cache's current
	// entry counts; CachedSortedBytes is the bytes of cached sorted tables
	// those Preprocess memos pin — the per-model input to the cross-variant
	// cache budget.
	CachedPres        int
	CachedUnits       int
	CachedSortedBytes int64
	// RowCache* mirror the frontend hot-row cache (gather path v2): hit /
	// miss counts on the dense fan-out, entries evicted (budget pressure
	// or epoch staleness), entries installed by publish-time seeding, and
	// the cache's current byte footprint. All zero when the cache is off.
	// Like every field here, they ride the admin API's JSON bodies without
	// a version bump (absent on old peers).
	RowCacheHits    int64
	RowCacheMisses  int64
	RowCacheEvicted int64
	RowCacheSeeded  int64
	RowCacheBytes   int64
}

// SwapReport describes what one Repartition (or initial build) actually
// did: how much of the new epoch was reused versus rebuilt, and how many
// rows were pre-warmed before publish.
type SwapReport struct {
	// Epoch is the epoch number that was built.
	Epoch int64
	// CacheHit is true when the preprocessing output (sorted tables,
	// remap, CDFs) came from the plan cache instead of a fresh sort.
	CacheHit bool
	// ShardsBuilt / ShardsReused count this build's fresh versus
	// carried-over shard services across all tables.
	ShardsBuilt  int
	ShardsReused int
	// WarmedRows is how many hot rows were pre-touched across the fresh
	// shards before the epoch was published (0 when warming is disabled
	// or every shard was reused and therefore already warm).
	WarmedRows int64
}
