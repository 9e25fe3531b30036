package serving

import (
	"sync"
	"sync/atomic"
)

// rowCache is the frontend hot-row cache of gather path v2: a per-model,
// fixed-byte-budget map from (table, global sorted row id) to the row's
// embedding vector, consulted in the dense shard's fan-out before
// bucketizing — a hit means the row never leaves the frontend, and at
// CDF-skewed workloads most rows are hits.
//
// Epoch discipline: every entry carries the epoch it was filled under. A
// lookup hits only when the entry's epoch equals the *request's* pinned
// epoch — serving an epoch-N row to an epoch-N request is always correct,
// because epoch N's sorted tables outlive their last pinned request (the
// router drains before close). Entries from any other epoch found during
// a lookup are evicted lazily; fills are accepted only for the live epoch
// (advance flips it at publish time), so in-flight requests of a retiring
// epoch can never poison the cache for the next one. Repartitions remap
// row ids between epochs, which is exactly why cross-epoch hits must
// never happen — the same (table, id) key can name a different row.
//
// The cache has two planes splitting the byte budget in half. The seeded
// plane is a per-epoch hot prefix: the id space is hotness-sorted, so the
// publish-time warm set is literally rows [0, n) of each table, stored as
// one contiguous arena and swapped in atomically — a prefix hit is a
// bounds check and a subslice, no lock, no map, no per-entry header. The
// dynamic plane is a 16-way sharded map filled by misses at serve time,
// each shard evicting FIFO under its slice of the budget. All methods are
// nil-receiver safe, so call sites need no cache-enabled branches.
type rowCache struct {
	live   atomic.Int64 // epoch fills are accepted for
	prefix atomic.Pointer[rowPrefix]
	shards [rowCacheShards]rowCacheShard

	prefixBudget int64

	hits    atomic.Int64
	misses  atomic.Int64
	evicted atomic.Int64
	seeded  atomic.Int64
}

// rowPrefix is the seeded plane: per table, the hottest rows [0, n) of
// one epoch's hotness-sorted id space in a flat arena (row r lives at
// [r*dim, (r+1)*dim)). The whole structure is built privately before
// publish and immutable afterwards, so readers need no synchronization
// beyond the atomic pointer load; it is dropped wholesale when the next
// epoch's prefix swaps in.
type rowPrefix struct {
	epoch  int64
	dim    int64
	tabs   [][]float32
	counts []int64 // rows seeded per table
	bytes  int64
	rows   int64
}

const rowCacheShards = 16

// rowEntryOverhead approximates per-entry bookkeeping bytes (map slot,
// entry header, fifo slot) charged against the budget on top of the
// vector payload.
const rowEntryOverhead = 64

type rowEntry struct {
	epoch int64
	vec   []float32
}

type rowCacheShard struct {
	mu      sync.RWMutex
	entries map[uint64]*rowEntry
	fifo    []uint64 // insertion order; stale keys are skipped on evict
	bytes   int64
	budget  int64
}

// newRowCache creates a cache with the given total byte budget; a
// non-positive budget returns nil (the disabled cache).
func newRowCache(budgetBytes int64) *rowCache {
	if budgetBytes <= 0 {
		return nil
	}
	// The byte budget splits evenly between the planes: seeded-prefix
	// hits are cheaper (lock-free bounds checks), but the warm CDF cut
	// bounds how much prefix the workload can use, and the dynamic plane
	// needs room to catch the tail the cut left out.
	c := &rowCache{prefixBudget: budgetBytes / 2}
	per := (budgetBytes - c.prefixBudget) / rowCacheShards
	if per < rowEntryOverhead {
		per = rowEntryOverhead
	}
	for i := range c.shards {
		c.shards[i].entries = make(map[uint64]*rowEntry)
		c.shards[i].budget = per
	}
	return c
}

// rowKey packs (table, global row id) into one map key. Row ids fit in 48
// bits by construction: they are sorted rows resolved through the epoch's
// 32-bit row directory, so all are below 2^32.
func rowKey(table int, row int64) uint64 {
	return uint64(table)<<48 ^ uint64(row)&(1<<48-1)
}

// shardOf picks the cache shard for a key (Fibonacci hashing spreads the
// dense low bits of row ids across shards).
func (c *rowCache) shardOf(key uint64) *rowCacheShard {
	return &c.shards[(key*0x9e3779b97f4a7c15)>>60&(rowCacheShards-1)]
}

// get returns the vector cached for (table, row) under epoch, or nil on
// a miss. The returned slice is shared and immutable — an entry's vector
// is allocated once at insert and never written again (eviction only
// drops the map reference), so holding it past the next cache mutation
// is safe, but callers must never write through it. get does not touch
// the hit/miss counters; the predict hot path batches those through note
// once per request instead of contending two atomics per row.
func (c *rowCache) get(epoch int64, table int, row int64) []float32 {
	if c == nil {
		return nil
	}
	// Seeded plane first: at CDF skew almost every hit lands here, and it
	// costs two loads and a bounds check. An epoch mismatch (old requests
	// after a swap, or vice versa) just falls through to the map plane.
	if p := c.prefix.Load(); p != nil && p.epoch == epoch && table < len(p.tabs) && row < p.counts[table] {
		return p.tabs[table][row*p.dim : (row+1)*p.dim]
	}
	key := rowKey(table, row)
	sh := c.shardOf(key)
	sh.mu.RLock()
	e := sh.entries[key]
	sh.mu.RUnlock()
	if e != nil && e.epoch == epoch {
		return e.vec
	}
	if e != nil && e.epoch != c.live.Load() {
		// Lazy eviction: the entry belongs to an epoch that is neither the
		// request's nor the live one — it can never hit again.
		sh.mu.Lock()
		if e2 := sh.entries[key]; e2 != nil && e2.epoch != c.live.Load() && e2.epoch != epoch {
			sh.bytes -= e2.cost()
			delete(sh.entries, key)
			c.evicted.Add(1)
		}
		sh.mu.Unlock()
	}
	return nil
}

// prefixView returns the seeded plane when it matches epoch, else nil.
// The predict hot path hoists this one atomic load (and the epoch check)
// out of its per-row loop; the returned prefix is immutable, so holding
// it for the rest of the request is safe across concurrent swaps.
func (c *rowCache) prefixView(epoch int64) *rowPrefix {
	if c == nil {
		return nil
	}
	if p := c.prefix.Load(); p != nil && p.epoch == epoch {
		return p
	}
	return nil
}

// note adds a predict call's batched hit/miss counts.
func (c *rowCache) note(hits, misses int64) {
	if c == nil {
		return
	}
	if hits != 0 {
		c.hits.Add(hits)
	}
	if misses != 0 {
		c.misses.Add(misses)
	}
}

func (e *rowEntry) cost() int64 {
	return int64(len(e.vec))*4 + rowEntryOverhead
}

// fill inserts (table, row) → vec into the dynamic plane under epoch,
// copying vec and evicting FIFO to stay under budget. Fills for any epoch
// other than the live one are dropped (a retiring epoch's in-flight
// misses must not poison the next epoch's cache). Reports whether the
// entry was inserted (false: stale epoch, or already present).
func (c *rowCache) fill(epoch int64, table int, row int64, vec []float32) bool {
	if c == nil || epoch != c.live.Load() {
		return false
	}
	key := rowKey(table, row)
	sh := c.shardOf(key)
	cost := int64(len(vec))*4 + rowEntryOverhead
	if cost > sh.budget {
		return false
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e := sh.entries[key]; e != nil {
		if e.epoch == epoch {
			return false // already cached for this epoch
		}
		sh.bytes -= e.cost()
		delete(sh.entries, key)
		c.evicted.Add(1)
	}
	if sh.bytes+cost > sh.budget {
		for sh.bytes+cost > sh.budget && len(sh.fifo) > 0 {
			victim := sh.fifo[0]
			sh.fifo = sh.fifo[1:]
			if e := sh.entries[victim]; e != nil {
				sh.bytes -= e.cost()
				delete(sh.entries, victim)
				c.evicted.Add(1)
			}
		}
	}
	v := make([]float32, len(vec))
	copy(v, vec)
	sh.entries[key] = &rowEntry{epoch: epoch, vec: v}
	sh.fifo = append(sh.fifo, key)
	sh.bytes += cost
	return true
}

// advance flips the live epoch: fills for older epochs are rejected from
// here on, and their entries evict lazily as lookups touch them. Called
// at the end of a plan build, just before the seeding pass, so the new
// epoch publishes with a warm cache.
func (c *rowCache) advance(epoch int64) {
	if c == nil {
		return
	}
	c.live.Store(epoch)
}

// prefixBuilder accumulates one epoch's seed set privately; nothing is
// visible to readers until install swaps the finished prefix in. add
// appends rows to a table's arena — the round-robin seeding order makes
// each table's seeded set exactly the contiguous prefix [0, n) the plane
// requires — and refuses rows past the plane's byte budget.
type prefixBuilder struct {
	c *rowCache
	p *rowPrefix
}

func (c *rowCache) newPrefixBuilder(epoch int64, tables, dim int) *prefixBuilder {
	if c == nil {
		return nil
	}
	return &prefixBuilder{c: c, p: &rowPrefix{
		epoch:  epoch,
		dim:    int64(dim),
		tabs:   make([][]float32, tables),
		counts: make([]int64, tables),
	}}
}

// add seeds the next row of table's prefix; false means the plane's
// budget is exhausted and the caller should stop seeding.
func (b *prefixBuilder) add(table int, vec []float32) bool {
	if b == nil {
		return false
	}
	cost := int64(len(vec)) * 4
	if b.p.bytes+cost > b.c.prefixBudget {
		return false
	}
	b.p.tabs[table] = append(b.p.tabs[table], vec...)
	b.p.counts[table]++
	b.p.bytes += cost
	b.p.rows++
	return true
}

// install publishes the built prefix, retiring the previous epoch's plane
// wholesale (its rows count as evictions).
func (b *prefixBuilder) install() {
	if b == nil {
		return
	}
	if old := b.c.prefix.Swap(b.p); old != nil {
		b.c.evicted.Add(old.rows)
	}
	b.c.seeded.Add(b.p.rows)
}

// clear drops every entry (model shutdown).
func (c *rowCache) clear() {
	if c == nil {
		return
	}
	if old := c.prefix.Swap(nil); old != nil {
		c.evicted.Add(old.rows)
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.entries = make(map[uint64]*rowEntry)
		sh.fifo = nil
		sh.bytes = 0
		sh.mu.Unlock()
	}
}

// rowCacheStats is the counter snapshot surfaced through BuildCounters.
type rowCacheStats struct {
	Hits, Misses, Evicted, Seeded, Bytes int64
}

// stats snapshots the cache counters and current byte footprint.
func (c *rowCache) stats() rowCacheStats {
	if c == nil {
		return rowCacheStats{}
	}
	st := rowCacheStats{
		Hits:    c.hits.Load(),
		Misses:  c.misses.Load(),
		Evicted: c.evicted.Load(),
		Seeded:  c.seeded.Load(),
	}
	if p := c.prefix.Load(); p != nil {
		st.Bytes += p.bytes
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		st.Bytes += sh.bytes
		sh.mu.RUnlock()
	}
	return st
}
