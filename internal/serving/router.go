package serving

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bucketize"
	"repro/internal/embedding"
	"repro/internal/metrics"
	"repro/internal/model"
)

// This file is the epoch-versioned, multi-model routing layer. A
// RoutingTable is one immutable snapshot of one model's serving plan: the
// preprocessing remap, the per-table shard boundaries, and a gather client
// for every shard. The Router publishes a (model name -> plan) map; each
// registered model has its own atomic epoch pointer, so one frontend can
// serve several DLRM variants and repartition each of them independently —
// publishing model A's next epoch never drains or touches model B's
// in-flight requests. A Predict call acquires exactly one epoch of exactly
// one model for its whole fan-out, so a concurrent plan swap can never mix
// shards from two plans (or two models). Live repartitioning (Sec. IV-B's
// re-profiling loop) builds the next epoch side-by-side, publishes it
// atomically, then drains and retires the old one — traffic keeps flowing
// throughout.

// DefaultModel is the model name single-model deployments serve under. A
// request whose Model field is empty routes here, which keeps the
// single-variant API (BuildElastic, NewRouter, Acquire) unchanged.
const DefaultModel = "default"

// canonicalModel maps the empty model name onto DefaultModel so "" and
// "default" address the same plan everywhere (wire format included).
func canonicalModel(name string) string {
	if name == "" {
		return DefaultModel
	}
	return name
}

// RoutingTable is one immutable epoch of one model's serving plan. All
// fields are fixed at construction; only the metrics and the in-flight
// refcount mutate, and those are concurrency-safe.
type RoutingTable struct {
	// Model names the DLRM variant this plan serves. Empty means the
	// deployment's default model; the Router canonicalizes it on
	// registration.
	Model string
	// Epoch numbers the model's plans monotonically; epoch 0 is the
	// BuildElastic/BuildMulti plan. Epochs advance per model — model A's
	// swap never moves model B's epoch.
	Epoch int64
	// Pre is the epoch's preprocessing output (hotness sort + remap). A
	// nil Pre means requests are already in sorted-ID space.
	Pre *Preprocessed
	// Plan is the per-table boundary plan (all tables currently share it).
	Plan []int64
	// Boundaries[t] is table t's shard boundaries in sorted space.
	Boundaries [][]int64
	// Clients[t][s] services gathers for shard s of table t.
	Clients [][]GatherClient
	// Shards[t][s] is the primary service instance behind Clients[t][s]
	// (owner of the epoch's utility/latency metrics).
	Shards [][]*EmbeddingShard
	// Pools[t][s] load-balances shard s of table t (same objects as
	// Clients, concretely typed for replica scaling).
	Pools [][]*ReplicaPool
	// Served counts dense-shard Predict dispatches routed through this
	// epoch — every dispatch lands in exactly one model's one epoch's
	// counter. With dynamic batching enabled a fused batch counts once,
	// not once per fused client request.
	Served *metrics.Counter

	// units[t][s] is the refcounted service bundle behind shard s of
	// table t. Units may be shared with other epochs and with the plan
	// cache; Close releases this epoch's references instead of tearing
	// transports down directly. Nil for hand-assembled tables
	// (NewRoutingTable), which still own servers/closers per epoch.
	units [][]*shardUnit

	// dir[t][id] is the owning shard s and shard-local row of table t's
	// request id packed as s<<dirShift[t] | local, where dirShift[t] is
	// the bit width of the table's widest shard. Ids are original ids when
	// Pre is set and sorted ids otherwise, so both gather modes resolve
	// each index with one 32-bit load: no remap read, no boundary search.
	dir      [][]uint32
	dirShift []uint8

	servers  []*RPCServer
	closers  []io.Closer
	inflight atomic.Int64
}

// NewRoutingTable validates plan geometry and wraps it as an immutable
// epoch. boundaries[t] and clients[t][s] follow the DenseShard layout.
// It also builds each table's row directory (see RoutingTable.dir), on
// concurrent per-table workers; a plan whose directory cannot pack a
// shard number and a shard-local row into 32 bits, or whose tables have
// more rows than a u32 wire index can name, is refused before anything is
// allocated.
func NewRoutingTable(epoch int64, cfg model.Config, pre *Preprocessed, boundaries [][]int64, clients [][]GatherClient) (*RoutingTable, error) {
	if len(boundaries) != cfg.NumTables || len(clients) != cfg.NumTables {
		return nil, fmt.Errorf("serving: routing table needs %d tables of boundaries/clients, got %d/%d",
			cfg.NumTables, len(boundaries), len(clients))
	}
	if pre != nil && len(pre.RankOf) != cfg.NumTables {
		return nil, fmt.Errorf("serving: preprocessing remaps %d tables, want %d", len(pre.RankOf), cfg.NumTables)
	}
	shifts := make([]uint8, cfg.NumTables)
	for t := range boundaries {
		bnd := boundaries[t]
		if len(bnd) == 0 {
			return nil, fmt.Errorf("serving: table %d has no shard boundaries", t)
		}
		if len(clients[t]) != len(bnd) {
			return nil, fmt.Errorf("serving: table %d has %d clients for %d shards",
				t, len(clients[t]), len(bnd))
		}
		if last := bnd[len(bnd)-1]; last != cfg.RowsPerTable {
			return nil, fmt.Errorf("serving: table %d boundaries end at %d, want %d",
				t, last, cfg.RowsPerTable)
		}
		if pre != nil && int64(len(pre.RankOf[t])) != cfg.RowsPerTable {
			return nil, fmt.Errorf("serving: table %d remap covers %d rows, want %d",
				t, len(pre.RankOf[t]), cfg.RowsPerTable)
		}
		shift, err := directoryShift(bnd)
		if err != nil {
			return nil, fmt.Errorf("serving: table %d: %w", t, err)
		}
		shifts[t] = shift
	}
	dir := make([][]uint32, cfg.NumTables)
	err := embedding.ForEachTable(cfg.NumTables, func(t int) error {
		d, err := buildDirectory(pre, t, boundaries[t], shifts[t])
		dir[t] = d
		return err
	})
	if err != nil {
		return nil, err
	}
	return &RoutingTable{
		Epoch:      epoch,
		Pre:        pre,
		Boundaries: boundaries,
		Clients:    clients,
		Served:     &metrics.Counter{},
		dir:        dir,
		dirShift:   shifts,
	}, nil
}

// directoryShift returns the bit width of the widest shard under bnd, the
// shift of a row directory word, or an error when the plan cannot use a
// 32-bit directory: boundaries that decrease, a shard number and a
// shard-local row that do not pack into 32 bits, or more rows than a u32
// wire index can name below its sentinel (wire.Version 2).
func directoryShift(bnd []int64) (uint8, error) {
	widest, lo := int64(0), int64(0)
	for s, hi := range bnd {
		if hi < lo {
			return 0, fmt.Errorf("boundary %d of shard %d is below %d, the shard's start", hi, s, lo)
		}
		widest = max(widest, hi-lo)
		lo = hi
	}
	shift := bits.Len64(uint64(max(widest-1, 0)))
	if lo > math.MaxUint32 || shift+bits.Len(uint(len(bnd)-1)) > 32 {
		return 0, fmt.Errorf("a plan of %d rows in %d shards (widest %d) does not fit a 32-bit row directory",
			lo, len(bnd), widest)
	}
	return uint8(shift), nil
}

// buildDirectory packs table t's row directory: for every id the request
// may carry (original when pre remaps, sorted otherwise) its owning shard
// s and shard-local row as s<<shift | local.
func buildDirectory(pre *Preprocessed, t int, bnd []int64, shift uint8) ([]uint32, error) {
	rows := bnd[len(bnd)-1]
	d := make([]uint32, rows)
	if pre == nil {
		lo := int64(0)
		for s, hi := range bnd {
			for r := lo; r < hi; r++ {
				d[r] = uint32(s)<<shift | uint32(r-lo)
			}
			lo = hi
		}
		return d, nil
	}
	for orig, r := range pre.RankOf[t] {
		if r < 0 || r >= rows {
			return nil, fmt.Errorf("serving: table %d remaps row %d to %d, outside %d rows", t, orig, r, rows)
		}
		s := bucketize.ShardOf(r, bnd)
		if s > 0 {
			r -= bnd[s-1]
		}
		d[orig] = uint32(s)<<shift | uint32(r)
	}
	return d, nil
}

// NumShards returns the shard count of table t's plan.
func (rt *RoutingTable) NumShards(t int) int { return len(rt.Boundaries[t]) }

// Utility returns the Fig. 14-style memory utility of shard s of table t
// accumulated within this epoch (0 when the table has no shard services).
func (rt *RoutingTable) Utility(t, s int) float64 {
	if t >= len(rt.Shards) || s >= len(rt.Shards[t]) {
		return 0
	}
	return rt.Shards[t][s].Utility.Utility()
}

// UtilitySkew returns the widest per-shard utility spread (max - min)
// across all tables of this epoch — the Fig. 14 signal the autoscaler
// watches. A hotness-aligned plan is strongly skewed (the small hot shard
// saturates while the big cold shard stays barely touched); drifted
// hotness spreads accesses across boundaries and flattens the profile, so
// a skew below the policy floor marks the plan as stale.
func (rt *RoutingTable) UtilitySkew() float64 {
	skew := 0.0
	for t := range rt.Shards {
		if len(rt.Shards[t]) == 0 {
			continue
		}
		lo, hi := 1.0, 0.0
		for s := range rt.Shards[t] {
			u := rt.Utility(t, s)
			if u < lo {
				lo = u
			}
			if u > hi {
				hi = u
			}
		}
		if hi-lo > skew {
			skew = hi - lo
		}
	}
	return skew
}

// release decrements the in-flight count (paired with Router.AcquireModel).
func (rt *RoutingTable) release() { rt.inflight.Add(-1) }

// Drain blocks until every in-flight request that acquired this epoch has
// released it, or the context expires. It does not stop new acquisitions —
// publish the successor epoch first.
func (rt *RoutingTable) Drain(ctx context.Context) error {
	for rt.inflight.Load() > 0 {
		select {
		case <-ctx.Done():
			return fmt.Errorf("serving: draining epoch %d: %w", rt.Epoch, ctx.Err())
		case <-time.After(100 * time.Microsecond):
		}
	}
	return nil
}

// Close releases the epoch's transport resources. Shard units are
// refcounted: a unit shared with a newer epoch (or held warm by the plan
// cache) survives; only units this epoch was the last holder of tear their
// RPC connections and servers down. Call only after Drain.
func (rt *RoutingTable) Close() {
	for _, row := range rt.units {
		for _, u := range row {
			u.release()
		}
	}
	rt.units = nil
	for _, c := range rt.closers {
		_ = c.Close()
	}
	rt.closers = nil
	for _, s := range rt.servers {
		_ = s.Close()
	}
	rt.servers = nil
}

// modelRoute is one registered model's slot in the router: its current
// epoch pointer and its swap counter. Slots are never removed; the routes
// map itself is copy-on-write, so the per-request lookup is lock-free.
type modelRoute struct {
	current atomic.Pointer[RoutingTable]
	swaps   metrics.Counter
}

// Router publishes a (model name -> routing-table epoch) map to the dense
// hot path. Each model's epochs go through that model's own atomic
// pointer: readers acquire a consistent per-model snapshot per request;
// writers swap one model's plan without ever blocking readers — of that
// model or of any other. Single-model callers keep using the DefaultModel
// convenience methods (Acquire/Load/Publish).
type Router struct {
	// routes is the copy-on-write registry; registerMu serializes
	// Register, never the request path.
	routes     atomic.Pointer[map[string]*modelRoute]
	registerMu sync.Mutex
	// Swaps counts published plan swaps (epoch transitions) across all
	// models; per-model counts come from SwapsFor.
	Swaps *metrics.Counter
}

// NewMultiRouter creates an empty router; register each model's initial
// epoch with Register before serving it.
func NewMultiRouter() *Router {
	r := &Router{Swaps: &metrics.Counter{}}
	empty := map[string]*modelRoute{}
	r.routes.Store(&empty)
	return r
}

// NewRouter creates a router serving the given initial epoch as the
// default model — the single-variant constructor.
func NewRouter(rt *RoutingTable) *Router {
	r := NewMultiRouter()
	if err := r.Register(DefaultModel, rt); err != nil {
		panic(err) // unreachable: the registry is empty
	}
	return r
}

// Register adds a model with its initial epoch. Registering an
// already-served model is an error — epoch succession goes through
// Publish, not Register. Registration is a first-class runtime operation:
// the routes map is copy-on-write, so a model can be registered into a
// router that is actively serving other models without blocking a single
// request. A name freed by Unregister is immediately reusable, with a
// fresh slot (epoch pointer and swap counter start over).
func (r *Router) Register(mdl string, rt *RoutingTable) error {
	if rt == nil {
		return fmt.Errorf("serving: register model %q with a nil routing table", mdl)
	}
	name := canonicalModel(mdl)
	rt.Model = name
	r.registerMu.Lock()
	defer r.registerMu.Unlock()
	old := *r.routes.Load()
	if _, dup := old[name]; dup {
		return fmt.Errorf("serving: model %q already registered", name)
	}
	next := make(map[string]*modelRoute, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	mr := &modelRoute{}
	mr.current.Store(rt)
	next[name] = mr
	r.routes.Store(&next)
	return nil
}

// Unregister removes a model from the routing map and returns its final
// epoch table (the caller drains and closes it to finish the teardown).
// Removal is tombstone-free: the slot is dropped from a copy of the map,
// so the name is immediately reusable by Register and no retired-model
// state (epoch pointer, swap counter) survives in the router. A request
// that raced the removal either misses the new map (and gets the usual
// "serves no model" error) or pinned the final epoch before the swap — the
// returned table's refcount still covers it, so Drain waits it out.
func (r *Router) Unregister(mdl string) (*RoutingTable, error) {
	name := canonicalModel(mdl)
	r.registerMu.Lock()
	defer r.registerMu.Unlock()
	old := *r.routes.Load()
	mr, ok := old[name]
	if !ok {
		return nil, fmt.Errorf("serving: unregister of model %q: not registered", name)
	}
	next := make(map[string]*modelRoute, len(old)-1)
	for k, v := range old {
		if k != name {
			next[k] = v
		}
	}
	r.routes.Store(&next)
	return mr.current.Load(), nil
}

// route returns the model's slot (nil when unregistered); one atomic load.
func (r *Router) route(mdl string) *modelRoute {
	return (*r.routes.Load())[canonicalModel(mdl)]
}

// Models returns the registered model names, sorted.
func (r *Router) Models() []string {
	routes := *r.routes.Load()
	out := make([]string, 0, len(routes))
	for name := range routes {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// LoadModel returns the model's current epoch without pinning it (nil when
// the model is not registered). Use AcquireModel on the request path;
// LoadModel is for observability (metrics, tests, examples).
func (r *Router) LoadModel(mdl string) *RoutingTable {
	mr := r.route(mdl)
	if mr == nil {
		return nil
	}
	return mr.current.Load()
}

// AcquireModel pins the model's current epoch for one request and returns
// it; the caller must release() it when the fan-out completes. The
// increment-then-recheck dance closes the race with PublishModel: if the
// table changed while we were incrementing, the drain of the old epoch may
// already be watching the count, so back off and pin the fresh table
// instead.
func (r *Router) AcquireModel(mdl string) (*RoutingTable, error) {
	mr := r.route(mdl)
	if mr == nil {
		return nil, fmt.Errorf("serving: router serves no model %q (have %v)", canonicalModel(mdl), r.Models())
	}
	for {
		rt := mr.current.Load()
		rt.inflight.Add(1)
		if mr.current.Load() == rt {
			return rt, nil
		}
		rt.release()
	}
}

// PublishModel atomically installs next as the model's current epoch and
// returns the superseded table (drain and close it to finish the swap).
// Other models' epochs, in-flight requests and counters are untouched.
func (r *Router) PublishModel(mdl string, next *RoutingTable) (*RoutingTable, error) {
	mr := r.route(mdl)
	if mr == nil {
		return nil, fmt.Errorf("serving: publish to unregistered model %q", canonicalModel(mdl))
	}
	next.Model = canonicalModel(mdl)
	prev := mr.current.Swap(next)
	mr.swaps.Inc(1)
	r.Swaps.Inc(1)
	return prev, nil
}

// SwapsFor returns how many plan swaps the model has gone through (0 when
// the model is not registered).
func (r *Router) SwapsFor(mdl string) int64 {
	mr := r.route(mdl)
	if mr == nil {
		return 0
	}
	return mr.swaps.Value()
}
