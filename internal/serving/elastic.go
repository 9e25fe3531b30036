package serving

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/embedding"
	"repro/internal/metrics"
	"repro/internal/model"
)

// Transport selects how shards communicate in a live deployment.
type Transport string

// Supported transports.
const (
	// TransportLocal wires shards with direct method calls (fast,
	// deterministic; used by tests and the quickstart).
	TransportLocal Transport = "local"
	// TransportTCP runs every shard behind its own loopback-TCP listener
	// speaking the binary framed protocol (internal/serving/wire) — real
	// microservices exchanging serialized messages.
	TransportTCP Transport = "tcp"
)

// BuildOptions configures BuildElastic.
type BuildOptions struct {
	Transport Transport
	// WireQuant enables the int8-quantized gather-reply wire encoding:
	// each row rides as one float32 scale plus Dim int8s and is
	// dequantized to float32 before the dense-side accumulate. Off by
	// default so sharded serving stays bit-exact against the monolith;
	// turning it on trades ≤ 1/254 of each row's max magnitude in error
	// for ~4x smaller gather replies (dim 32). Ignored on the local
	// transport.
	WireQuant bool
	// RowCacheBytes, when positive, switches the dense fan-out to gather
	// path v2 and gives its frontend hot-row cache this total byte budget.
	// v2 dedups each table's rows in the batch (multiplicities re-expanded
	// at merge time), resolves unique rows against the cache before the
	// fan-out, so hot rows never leave the frontend, and fetches the
	// misses with rows-mode gathers returning raw rows instead of
	// pooled-per-input sums (over TCP straight from sorted-table storage).
	// Entries are epoch-scoped (a plan swap lazily invalidates them) and
	// the cache is re-seeded from the fresh plan's hot CDF before each
	// publish.
	RowCacheBytes int64
	// Replicas[s] is the initial replica count of shard s in every
	// table's pool (nil = one replica each). Replicas share the sorted
	// table storage in-process; they model independent serving replicas.
	// A repartitioned epoch starts from the same initial counts; the
	// live autoscaler re-scales it under traffic.
	Replicas []int
	// Batching, when non-nil, fronts the dense shard with a dynamic
	// batcher: concurrent Predict calls are coalesced into fused forward
	// batches (see BatcherOptions). A zero-valued options struct enables
	// batching with defaults.
	Batching *BatcherOptions
}

// planCacheEpochs keeps a plan warm for this many epochs past its last use
// before the per-model plan cache (Preprocess outputs and shard services
// memoized across epochs) evicts it. The age bound is also the memory
// bound: under continuously drifting windows (every repartition a new
// fingerprint, zero hits) the cache retains at most planCacheEpochs+1
// generations of sorted-table copies before eviction reclaims them.
const planCacheEpochs = 4

// warmCDF is how much of the fresh profiling window's access CDF is
// pre-touched on freshly built shards, and seeded into the row cache,
// before an epoch is published, so the first post-swap queries don't pay
// cold latency.
const warmCDF = 0.9

// warmPrefixes returns, per table, the first sorted row past the warm set:
// the table is hotness-sorted, so the rows covering warmCDF of the window's
// accesses are the prefix [0, hot[t]).
func warmPrefixes(pre *Preprocessed) []int64 {
	hot := make([]int64, len(pre.CDFs))
	for t, cdf := range pre.CDFs {
		rows := cdf.Rows()
		hot[t] = int64(sort.Search(int(rows), func(j int) bool {
			return cdf.At(int64(j)+1) >= warmCDF
		})) + 1
	}
	return hot
}

// LiveDeployment is a fully wired ElasticRec serving instance for one DLRM
// variant. The partition plan lives in an epoch-versioned Router:
// Repartition builds the next epoch side-by-side from fresh access
// statistics, publishes it atomically and retires the old one — the
// zero-downtime plan swap of the paper's re-profiling loop (Sec. IV-B).
// The Router may be private (BuildElastic) or shared with other variants
// (BuildMulti): either way this deployment only ever touches its own
// model's epochs, so its repartitions never drain another variant's
// in-flight requests.
type LiveDeployment struct {
	Router *Router
	Dense  *DenseShard
	// Batcher is the dynamic-batching frontend over Dense (nil unless
	// BuildOptions.Batching was set). Predict routes through it when
	// present.
	Batcher *Batcher
	// EpochUtility records every retired epoch's final per-shard memory
	// utility under labels like "epoch0/t1/s2" — the Fig. 14 series over
	// the deployment's whole life, not just the current plan.
	EpochUtility *metrics.GaugeVec

	source *model.Model // the full model, kept for re-preprocessing
	opts   BuildOptions
	cfg    model.Config
	model  string // canonical model name this deployment serves

	// rowCache is the frontend hot-row cache (nil unless
	// BuildOptions.RowCacheBytes is set); it is advanced and re-seeded at
	// the end of every buildTable, just before the epoch publishes.
	rowCache *rowCache

	// cache is the per-model plan cache (epoch-reuse layer); the build
	// counters tally construction work for the reuse tests and reports.
	cache        *planCache
	preBuilds    metrics.Counter
	preCacheHits metrics.Counter
	shardsBuilt  metrics.Counter
	shardsReused metrics.Counter

	servers []*RPCServer // frontend (ExportPredict) servers

	// profile is the live profiling window (nil = off). The atomic
	// pointer keeps the no-window fast path lock-free so profiling never
	// taxes the de-serialized predict hot path when it is off.
	profile atomic.Pointer[profileWindow]

	repartitionMu sync.Mutex // serializes plan swaps
}

// profileWindow is one live profiling window's state.
type profileWindow struct {
	mu     sync.Mutex
	closed bool
	stats  []*embedding.AccessStats
}

// BuildElastic assembles a live ElasticRec deployment from a fully
// instantiated model: it preprocesses (hotness-sorts) the tables from the
// recorded access statistics, slices every table at the plan boundaries,
// spins each slice up as an embedding-shard service (optionally behind
// loopback-TCP RPC), and wires a dense shard over an epoch-versioned
// routing table.
func BuildElastic(m *model.Model, stats []*embedding.AccessStats, boundaries []int64, opts BuildOptions) (*LiveDeployment, error) {
	return buildModelDeployment(NewMultiRouter(), DefaultModel, m, stats, boundaries, opts)
}

// buildModelDeployment assembles one variant's deployment into a (possibly
// shared) router, registering its epoch-0 plan under name. BuildElastic
// uses it with a private router; BuildMulti calls it once per variant with
// the shared one.
func buildModelDeployment(router *Router, name string, m *model.Model, stats []*embedding.AccessStats, boundaries []int64, opts BuildOptions) (*LiveDeployment, error) {
	if opts.Transport == "" {
		opts.Transport = TransportLocal
	}
	ld := &LiveDeployment{
		Router:       router,
		EpochUtility: metrics.NewGaugeVec(),
		source:       m,
		opts:         opts,
		cfg:          m.Config,
		model:        canonicalModel(name),
		cache:        newPlanCache(planCacheEpochs),
		rowCache:     newRowCache(opts.RowCacheBytes),
	}
	rt, _, _, err := ld.buildTable(0, stats, boundaries)
	if err != nil {
		// buildTable released the epoch references; drop the cache's so
		// any units it did build tear their transports down.
		ld.cache.clear()
		return nil, err
	}
	// On any later constructor failure the deployment is discarded, so
	// both the epoch's and the cache's unit references must be dropped —
	// leaving either would leak the shard transports.
	fail := func(err error) (*LiveDeployment, error) {
		rt.Close()
		ld.cache.clear()
		return nil, err
	}
	if err := router.Register(ld.model, rt); err != nil {
		return fail(err)
	}

	denseModel, err := model.NewDenseOnly(ld.cfg, 0)
	if err != nil {
		return fail(err)
	}
	// The dense shard must score with the same MLP parameters as the
	// source model, so copy them over.
	denseModel.Bottom = m.Bottom.Clone()
	denseModel.Top = m.Top.Clone()
	dense, err := NewModelDenseShard(ld.model, denseModel, ld.Router)
	if err != nil {
		return fail(err)
	}
	dense.rowCache = ld.rowCache
	ld.Dense = dense
	if opts.Batching != nil {
		ld.Batcher = NewModelBatcher(ld.model, dense, dense.Config(), *opts.Batching)
	}
	return ld, nil
}

// buildTable constructs one routing-table epoch: resolve the profiling
// window against the plan cache (reusing the memoized hotness sort on a
// fingerprint hit), reuse every shard whose sorted-row range is unchanged
// (the unit keeps its live service, replica pool and transports across the
// epoch boundary), build and pre-warm only the shards that actually moved,
// and age the cache. The returned report says how much was reused; the
// returned fresh list names the units built this epoch (the caller resets
// the Fig. 14 utility trackers of every *reused* unit after publishing, so
// the new epoch's profile counts only its own traffic).
func (ld *LiveDeployment) buildTable(epoch int64, stats []*embedding.AccessStats, boundaries []int64) (*RoutingTable, SwapReport, []*shardUnit, error) {
	rep := SwapReport{Epoch: epoch}
	if len(boundaries) == 0 {
		return nil, rep, nil, fmt.Errorf("serving: empty partition boundaries")
	}
	if boundaries[len(boundaries)-1] != ld.cfg.RowsPerTable {
		return nil, rep, nil, fmt.Errorf("serving: boundaries end at %d, table has %d rows",
			boundaries[len(boundaries)-1], ld.cfg.RowsPerTable)
	}
	fp := fingerprintStats(stats)
	pre := ld.cache.lookupPre(fp, epoch)
	if pre != nil {
		rep.CacheHit = true
		ld.preCacheHits.Inc(1)
	} else {
		var err error
		pre, err = Preprocess(ld.source, stats)
		if err != nil {
			return nil, rep, nil, err
		}
		ld.preBuilds.Inc(1)
		ld.cache.putPre(fp, pre, epoch)
	}

	cfg := ld.cfg
	numShards := len(boundaries)

	allBoundaries := make([][]int64, cfg.NumTables)
	allClients := make([][]GatherClient, cfg.NumTables)
	allUnits := make([][]*shardUnit, cfg.NumTables)
	allShards := make([][]*EmbeddingShard, cfg.NumTables)
	allPools := make([][]*ReplicaPool, cfg.NumTables)
	var fresh []*shardUnit // built this epoch; pre-warmed before publish
	fail := func(err error) (*RoutingTable, SwapReport, []*shardUnit, error) {
		// Drop the epoch references taken so far; units also held by the
		// cache stay warm there until eviction or deployment Close.
		for _, row := range allUnits {
			for _, u := range row {
				u.release()
			}
		}
		return nil, rep, nil, err
	}
	for t := 0; t < cfg.NumTables; t++ {
		allBoundaries[t] = boundaries
		lo := int64(0)
		for s := 0; s < numShards; s++ {
			hi := boundaries[s]
			key := unitKey{fp: fp, table: t, shard: s, lo: lo, hi: hi}
			u := ld.cache.lookupUnit(key, epoch)
			if u != nil {
				rep.ShardsReused++
				ld.shardsReused.Inc(1)
			} else {
				var err error
				u, err = ld.buildShardUnit(epoch, t, s, pre, lo, hi)
				if err != nil {
					return fail(err)
				}
				ld.cache.putUnit(key, u, epoch)
				fresh = append(fresh, u)
				rep.ShardsBuilt++
				ld.shardsBuilt.Inc(1)
			}
			u.retain() // this epoch's reference
			allUnits[t] = append(allUnits[t], u)
			allShards[t] = append(allShards[t], u.svc)
			allPools[t] = append(allPools[t], u.pool)
			allClients[t] = append(allClients[t], u.pool)
			lo = hi
		}
	}

	built, err := NewRoutingTable(epoch, cfg, pre, allBoundaries, allClients)
	if err != nil {
		return fail(err)
	}
	built.Plan = append([]int64(nil), boundaries...)
	built.Shards = allShards
	built.Pools = allPools
	built.units = allUnits
	rep.WarmedRows = ld.warmFresh(pre, fresh)
	ld.seedRowCache(epoch, pre)
	ld.cache.evict(epoch)
	return built, rep, fresh, nil
}

// seedRowCache flips the hot-row cache's live epoch to the one being
// built — from here on, fills for the retiring epoch are rejected and its
// entries evict lazily — and pre-fills the new epoch from the plan's
// known hot CDF prefixes (the same warm set warmFresh pre-touches), so a
// swap publishes with a warm cache instead of a cold-start miss storm.
// Because the sorted id space is hotness-ordered, the warm set is the
// prefix [0, hot[t]) of each table — it builds as the cache's seeded
// plane (flat per-table arenas, swapped in atomically), with rows taken
// round-robin across tables so the budget splits evenly when it cannot
// hold every prefix. Runs before publish: in-flight requests still fill
// the old epoch, harmlessly rejected.
func (ld *LiveDeployment) seedRowCache(epoch int64, pre *Preprocessed) {
	c := ld.rowCache
	if c == nil {
		return
	}
	c.advance(epoch)
	hot := warmPrefixes(pre)
	b := c.newPrefixBuilder(epoch, len(pre.Sorted), ld.cfg.EmbeddingDim)
	for r := int64(0); ; r++ {
		any, full := false, false
		for t := range pre.Sorted {
			if t >= len(hot) || r >= hot[t] {
				continue
			}
			vec, err := pre.Sorted[t].Vector(r)
			if err != nil {
				continue
			}
			if !b.add(t, vec) {
				full = true
				break
			}
			any = true
		}
		if full || !any {
			break
		}
	}
	b.install()
}

// buildShardUnit spins up one shard's service bundle: the embedding-shard
// service over the sorted rows [lo, hi) of table t, a pull-based replica
// pool at the configured initial replica count, and one transport per
// replica. Each replica added to the pool starts its own pull workers, so
// the unit's teardown must Close the pool (stopping workers the autoscaler
// may have added mid-epoch) before releasing the transports they call.
func (ld *LiveDeployment) buildShardUnit(epoch int64, t, s int, pre *Preprocessed, lo, hi int64) (*shardUnit, error) {
	svc, err := NewEmbeddingShard(t, s, pre.Sorted[t], lo, hi)
	if err != nil {
		return nil, err
	}
	u := &shardUnit{table: t, lo: lo, hi: hi, svc: svc, pool: NewReplicaPool()}
	replicas := 1
	if s < len(ld.opts.Replicas) && ld.opts.Replicas[s] > 0 {
		replicas = ld.opts.Replicas[s]
	}
	for r := 0; r < replicas; r++ {
		client, err := exportGather(u, svc, fmt.Sprintf("E%dT%dS%dR%d", epoch, t, s, r), ld.opts)
		if err != nil {
			u.teardown()
			return nil, err
		}
		u.pool.Add(client)
	}
	return u, nil
}

// warmFresh pre-touches the hottest rows of the freshly built shards — the
// rows covering warmCDF of the profiling window's accesses —
// so the first queries after publish hit warm memory. Shards reused from a
// previous epoch are already warm and are skipped; returns rows touched.
func (ld *LiveDeployment) warmFresh(pre *Preprocessed, fresh []*shardUnit) int64 {
	if len(fresh) == 0 {
		return 0
	}
	hot := warmPrefixes(pre)
	var warmed int64
	for _, u := range fresh {
		k := hot[u.table]
		if u.lo >= k {
			continue
		}
		n := k - u.lo
		if max := u.hi - u.lo; n > max {
			n = max
		}
		warmed += u.svc.Prewarm(n)
	}
	return warmed
}

// exportGather wraps a shard service in the chosen transport, recording
// any servers/connections on the owning shard unit.
func exportGather(u *shardUnit, svc GatherClient, name string, opts BuildOptions) (GatherClient, error) {
	switch opts.Transport {
	case TransportLocal:
		return svc, nil
	case TransportTCP:
		srv, err := NewRPCServer("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		wopts := GatherWireOptions{Quant: opts.WireQuant}
		if err := srv.RegisterGatherWire(name, svc, wopts); err != nil {
			srv.Close()
			return nil, err
		}
		u.servers = append(u.servers, srv)
		c, err := DialGather(srv.Addr(), name)
		if err != nil {
			return nil, err
		}
		u.closers = append(u.closers, c)
		return c, nil
	default:
		return nil, fmt.Errorf("serving: unknown transport %q", opts.Transport)
	}
}

// Repartition performs a zero-downtime plan swap for this deployment's
// model: it re-preprocesses the tables from the fresh access statistics,
// builds the next epoch's shard services side-by-side (the old epoch keeps
// serving throughout), atomically publishes the new routing table, then
// drains the old epoch's in-flight requests and closes its servers and
// connections. Concurrent Predicts never fail and never mix shards across
// plans — each pins one epoch for its whole fan-out — and on a shared
// router every other model's epochs and in-flight requests are untouched.
func (ld *LiveDeployment) Repartition(ctx context.Context, stats []*embedding.AccessStats, newBoundaries []int64) error {
	_, err := ld.RepartitionReport(ctx, stats, newBoundaries)
	return err
}

// RepartitionReport is Repartition returning the epoch-reuse accounting:
// whether the plan cache supplied the preprocessing, how many shard
// services were reused versus rebuilt, and how many rows were pre-warmed.
func (ld *LiveDeployment) RepartitionReport(ctx context.Context, stats []*embedding.AccessStats, newBoundaries []int64) (SwapReport, error) {
	ld.repartitionMu.Lock()
	defer ld.repartitionMu.Unlock()

	old := ld.Router.LoadModel(ld.model)
	if old == nil {
		return SwapReport{}, fmt.Errorf("serving: repartition of model %q: not registered (undeployed?)", ld.model)
	}
	next, rep, fresh, err := ld.buildTable(old.Epoch+1, stats, newBoundaries)
	if err != nil {
		return rep, fmt.Errorf("serving: repartition: %w", err)
	}
	retired, err := ld.Router.PublishModel(ld.model, next)
	if err != nil {
		next.Close()
		return rep, fmt.Errorf("serving: repartition: %w", err)
	}
	// Freeze the retiring epoch's final utilities first, then zero the
	// reused services' trackers: a shared shard's tracker would otherwise
	// carry the old epoch's (flattened) profile into the new one and
	// immediately re-trip the staleness policy. Gathers still in flight
	// on the retiring epoch may land after the reset; their touches smear
	// into the new epoch's profile, which the policy's served-count
	// warm-up absorbs.
	ld.recordEpochUtility(retired)
	ld.resetReusedUtility(next, fresh)
	if err := retired.Drain(ctx); err != nil {
		// The new epoch is live; the old one could not be drained in
		// time and is intentionally leaked rather than closed under an
		// in-flight request.
		return rep, err
	}
	retired.Close()
	return rep, nil
}

// resetReusedUtility clears the Fig. 14 utility trackers of every unit of
// the new epoch that was carried over from an earlier epoch (fresh units
// already start empty), so per-epoch utility semantics survive reuse.
func (ld *LiveDeployment) resetReusedUtility(next *RoutingTable, fresh []*shardUnit) {
	isFresh := make(map[*shardUnit]bool, len(fresh))
	for _, u := range fresh {
		isFresh[u] = true
	}
	for _, row := range next.units {
		for _, u := range row {
			if !isFresh[u] {
				u.svc.Utility.Reset()
			}
		}
	}
}

// Replan is one re-profiling cycle (Sec. IV-B): it closes the live
// profiling window, maps it to new boundaries with replan, swaps to the
// new plan (the window rides into the build, so fresh shards are
// pre-warmed from it) and reopens the window. The window is reopened
// whatever the outcome, so a transient replan failure never leaves the
// deployment without one. Returns the boundaries it swapped to.
func (ld *LiveDeployment) Replan(ctx context.Context, replan func([]*embedding.AccessStats) ([]int64, error)) ([]int64, error) {
	stats := ld.SnapshotProfile()
	defer ld.StartProfile()
	if stats == nil {
		return nil, fmt.Errorf("serving: replan of model %q without a live profiling window", ld.model)
	}
	boundaries, err := replan(stats)
	if err != nil {
		return nil, err
	}
	return boundaries, ld.Repartition(ctx, stats, boundaries)
}

// BuildCounters returns the deployment-lifetime plan-construction tally
// (the epoch-reuse spy: cache-hit repartitions must not move Preprocesses
// or ShardsBuilt) plus the plan cache's current occupancy, including the
// bytes of cached sorted tables the Preprocess memos pin.
func (ld *LiveDeployment) BuildCounters() BuildCounters {
	pres, units, bytes := ld.cache.occupancy()
	rc := ld.rowCache.stats()
	return BuildCounters{
		Preprocesses:      ld.preBuilds.Value(),
		PreCacheHits:      ld.preCacheHits.Value(),
		ShardsBuilt:       ld.shardsBuilt.Value(),
		ShardsReused:      ld.shardsReused.Value(),
		CachedPres:        pres,
		CachedUnits:       units,
		CachedSortedBytes: bytes,
		RowCacheHits:      rc.Hits,
		RowCacheMisses:    rc.Misses,
		RowCacheEvicted:   rc.Evicted,
		RowCacheSeeded:    rc.Seeded,
		RowCacheBytes:     rc.Bytes,
	}
}

// recordEpochUtility freezes a retiring epoch's final per-shard utilities
// into the deployment's gauge vector.
func (ld *LiveDeployment) recordEpochUtility(rt *RoutingTable) {
	for t := range rt.Shards {
		for s := range rt.Shards[t] {
			ld.EpochUtility.Set(fmt.Sprintf("epoch%d/t%d/s%d", rt.Epoch, t, s), rt.Utility(t, s))
		}
	}
}

// Predict services a query whose sparse indices are in the *original*
// table-ID space, going through the dynamic batcher when one is
// configured. A request addressed to a different model is rejected here —
// a multi-model frontend dispatches on PredictRequest.Model before it
// reaches a variant's deployment. The preprocessing remap happens inside
// the routed epoch snapshot (see DenseShard.Predict), so fused batches and
// plan swaps can never mix ID spaces. When a live profiling window is
// open, the request is also recorded into it.
func (ld *LiveDeployment) Predict(ctx context.Context, req *PredictRequest, reply *PredictReply) error {
	if got := canonicalModel(req.Model); got != ld.model {
		return fmt.Errorf("serving: request for model %q reached deployment serving %q", got, ld.model)
	}
	ld.recordProfile(req)
	if ld.Batcher != nil {
		return ld.Batcher.Predict(ctx, req, reply)
	}
	return ld.Dense.Predict(ctx, req, reply)
}

// StartProfile opens a fresh live profiling window: every subsequent
// Predict records its original-ID accesses, exactly the Sec. IV-B window
// production servers run ahead of a repartition.
func (ld *LiveDeployment) StartProfile() { ld.profile.Store(ld.newProfileWindow()) }

// newProfileWindow returns an empty window sized to the model.
func (ld *LiveDeployment) newProfileWindow() *profileWindow {
	w := &profileWindow{stats: make([]*embedding.AccessStats, ld.cfg.NumTables)}
	for t := range w.stats {
		w.stats[t] = embedding.NewAccessStats(ld.cfg.RowsPerTable)
	}
	return w
}

// StartProfileIfIdle opens a live profiling window only when none is
// open — a control loop that starts watching a serving variant must not
// discard the profile it has already accumulated.
func (ld *LiveDeployment) StartProfileIfIdle() {
	if ld.profile.Load() == nil {
		ld.profile.CompareAndSwap(nil, ld.newProfileWindow())
	}
}

// SnapshotProfile closes the current profiling window and returns its
// statistics (nil when no window was open). The window must be restarted
// explicitly for the next cycle.
func (ld *LiveDeployment) SnapshotProfile() []*embedding.AccessStats {
	w := ld.profile.Swap(nil)
	if w == nil {
		return nil
	}
	// Taking the window lock (and marking it closed) fences out in-flight
	// recorders: once we return, nothing mutates the stats anymore.
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	return w.stats
}

// recordProfile adds one request's accesses to the open window, if any.
// With no window open this is one atomic load on the hot path.
func (ld *LiveDeployment) recordProfile(req *PredictRequest) {
	w := ld.profile.Load()
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed || len(req.Tables) != len(w.stats) {
		return
	}
	for t, tb := range req.Tables {
		b := &embedding.Batch{Indices: tb.Indices, Offsets: tb.Offsets}
		_ = w.stats[t].RecordBatch(b)
	}
}

// Model returns the canonical model name this deployment serves.
func (ld *LiveDeployment) Model() string { return ld.model }

// Table returns the current routing-table epoch of this deployment's
// model (observability snapshot; the request path pins epochs through the
// router instead).
func (ld *LiveDeployment) Table() *RoutingTable { return ld.Router.LoadModel(ld.model) }

// Epoch returns the current plan epoch number (-1 once the deployment has
// been shut down and its model unregistered).
func (ld *LiveDeployment) Epoch() int64 {
	if rt := ld.Table(); rt != nil {
		return rt.Epoch
	}
	return -1
}

// Boundaries returns the current epoch's per-table boundary plan.
func (ld *LiveDeployment) Boundaries() []int64 { return ld.Table().Plan }

// ShardUtility returns the Fig. 14-style memory utility of shard s of
// table t over the traffic the current epoch has served.
func (ld *LiveDeployment) ShardUtility(t, s int) float64 {
	return ld.Table().Utility(t, s)
}

// ExportPredict exposes the deployment's predict frontend (batcher-routed
// when batching is on) as a wire predict service under name on loopback
// TCP, returning the address to dial with DialPredict. The server is torn
// down by Close.
func (ld *LiveDeployment) ExportPredict(name string) (string, error) {
	srv, err := NewRPCServer("127.0.0.1:0")
	if err != nil {
		return "", err
	}
	if err := srv.RegisterPredict(name, ld); err != nil {
		srv.Close()
		return "", err
	}
	ld.servers = append(ld.servers, srv)
	return srv.Addr(), nil
}

var _ PredictClient = (*LiveDeployment)(nil)

// Shutdown gracefully retires the deployment from a live router: the
// drain-half of the model lifecycle (Controller.Undeploy drives it after
// unpublishing the model from the frontend). The sequence is
// flush → unregister → drain → freeze → close → clear:
//
//  1. the batcher (if any) is closed first, flushing every queued request
//     through the still-registered model;
//  2. the model is unregistered from the router — the name is immediately
//     reusable, and new acquisitions fail with "serves no model";
//  3. the final epoch drains: every request that pinned it before the
//     unregistration completes normally (bounded by ctx);
//  4. the final per-shard utilities are frozen into the EpochUtility
//     gauges, then the epoch closes, releasing its shard-unit references;
//  5. the plan cache clears, dropping its warm references — with both the
//     epoch's and the cache's references gone, every shard unit tears its
//     transports down and the variant's shard services are fully released.
//
// If the drain outlives ctx the final epoch is intentionally leaked rather
// than closed under an in-flight request (the cache still clears — cached
// references are independent of in-flight ones) and the error is returned;
// the model is unregistered either way.
func (ld *LiveDeployment) Shutdown(ctx context.Context) error {
	ld.repartitionMu.Lock()
	defer ld.repartitionMu.Unlock()
	if ld.Batcher != nil {
		_ = ld.Batcher.Close()
	}
	for _, s := range ld.servers {
		_ = s.Close()
	}
	ld.servers = nil
	rt, err := ld.Router.Unregister(ld.model)
	if err != nil {
		return fmt.Errorf("serving: shutdown: %w", err)
	}
	drainErr := rt.Drain(ctx)
	if drainErr == nil {
		ld.recordEpochUtility(rt)
		rt.Close()
	}
	ld.cache.clear()
	ld.rowCache.clear()
	return drainErr
}

// Close flushes the batcher (if any) and tears down the frontend servers
// and the current epoch's transport resources.
func (ld *LiveDeployment) Close() {
	if ld.Batcher != nil {
		// Close is idempotent; keep the field set so a straggling
		// Predict gets "batcher is closed" instead of racing on nil.
		_ = ld.Batcher.Close()
	}
	for _, s := range ld.servers {
		_ = s.Close()
	}
	ld.servers = nil
	if rt := ld.Router.LoadModel(ld.model); rt != nil {
		ld.recordEpochUtility(rt)
		rt.Close()
	}
	// Drop the plan cache's references last: a unit kept warm only by the
	// cache tears its transports down here.
	ld.cache.clear()
	ld.rowCache.clear()
}

// CollectStats replays the batches in original-ID space into fresh access
// statistics — the profiling window production servers run before
// preprocessing (Sec. IV-B).
func CollectStats(cfg model.Config, perTable [][]*embedding.Batch) ([]*embedding.AccessStats, error) {
	if len(perTable) != cfg.NumTables {
		return nil, fmt.Errorf("serving: stats for %d tables, want %d", len(perTable), cfg.NumTables)
	}
	out := make([]*embedding.AccessStats, cfg.NumTables)
	for t := range perTable {
		st := embedding.NewAccessStats(cfg.RowsPerTable)
		for _, b := range perTable[t] {
			if err := st.RecordBatch(b); err != nil {
				return nil, fmt.Errorf("serving: table %d: %w", t, err)
			}
		}
		out[t] = st
	}
	return out, nil
}
