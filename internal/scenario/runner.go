package scenario

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/serving"
	"repro/internal/workload"
)

// ShortScale is the time-compression factor short mode applies to a spec
// (duration, warmup, traffic schedule, drift cadence, timeline alike), so
// CI runs every checked-in scenario at half length with the same shape.
const ShortScale = 0.5

// DefaultRequestTimeout bounds each request when the spec doesn't.
const DefaultRequestTimeout = 5 * time.Second

// Options configures one run.
type Options struct {
	// Short compresses every time in the spec by ShortScale.
	Short bool
	// Logf, when set, receives progress lines (applied events, summary).
	Logf func(format string, args ...any)
	// Replanner, when set, replaces the default proportional-CDF replanner
	// for initial plans, mid-run deploys and repartition events — how
	// experiments plug the DP partitioner into the harness. It receives the
	// variant's model config (the DP's cost model needs its geometry and
	// batch size) along with the profiling window.
	Replanner func(cfg model.Config, window []*embedding.AccessStats) ([]int64, error)
}

// Run executes the scenario end to end: build the initial model mix into a
// serving.MultiDeployment, export the frontend (predict + admin) over TCP,
// drive Poisson arrivals through the wire following the traffic shape,
// apply drift cadences and timeline events as their times come up, and
// collect the measurement-window metrics plus the control plane's final
// per-model status.
func Run(spec *Spec, opts Options) (*Result, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if opts.Short {
		spec = spec.Scale(ShortScale)
	}
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	r := &runner{spec: spec, logf: logf, byName: map[string]*variant{}, replan: opts.Replanner}
	if r.replan == nil {
		r.replan = defaultReplan
	}
	for i := range spec.Models {
		v, err := newVariant(&spec.Models[i], spec.Seed)
		if err != nil {
			return nil, err
		}
		v.replan = r.replan
		r.variants = append(r.variants, v)
		r.byName[v.spec.Name] = v
	}

	// Initial mix: every non-deferred model, built behind one frontend.
	var specs []serving.ModelSpec
	for _, v := range r.variants {
		if v.spec.Deferred {
			continue
		}
		ms, err := v.servingSpec()
		if err != nil {
			return nil, err
		}
		specs = append(specs, ms)
		v.active = true
	}
	md, err := serving.BuildMulti(specs...)
	if err != nil {
		return nil, err
	}
	defer md.Close()
	r.md = md
	for _, name := range md.Models() {
		ld, _ := md.Deployment(name)
		ld.StartProfile()
	}

	// All traffic and lifecycle control rides the exported TCP endpoint,
	// like a fleet client's would.
	addr, err := md.ExportPredict("Frontend")
	if err != nil {
		return nil, err
	}
	frontend, err := serving.DialPredict(addr, "Frontend")
	if err != nil {
		return nil, err
	}
	defer frontend.Close()
	admin, err := serving.DialAdmin(addr, "Frontend")
	if err != nil {
		return nil, err
	}
	defer admin.Close()
	r.frontend, r.admin = frontend, admin

	// An autoscale block runs the frontend's queue-depth control loop over
	// every served model's live shard pools. It starts when the drive loop
	// starts (so scale events are timestamped against run start) and reads
	// the served set on every tick, so no event has to rewire it.
	if a := spec.Autoscale; a != nil {
		r.scaler = &serving.LiveAutoscaler{
			Frontend: md, Interval: a.Interval.D(),
			Queue: a.queuePolicy(), MaxReplicas: a.MaxReplicas,
			OnScale: r.onScale,
		}
	}

	if err := r.drive(); err != nil {
		return nil, err
	}
	return r.result()
}

// variant is one model's client-side state: geometry, drifting sampler,
// query generator and traffic share.
type variant struct {
	spec   *ModelSpec
	cfg    model.Config
	drift  *workload.DriftingSampler
	gen    *workload.QueryGenerator
	weight float64
	active bool
	replan func(model.Config, []*embedding.AccessStats) ([]int64, error)
	// inflight tracks this variant's issued-but-unfinished requests so an
	// undeploy event can drain them before unregistering the name.
	inflight sync.WaitGroup
	// replicasAdded/Removed tally the autoscaler's actions on the
	// variant's pools.
	replicasAdded   atomic.Int64
	replicasRemoved atomic.Int64

	driftFired  bool          // one-shot Drift.At applied
	nextDriftAt time.Duration // next Drift.Every firing
}

// newVariant lowers a declarative model spec onto the workload layer.
func newVariant(ms *ModelSpec, runSeed uint64) (*variant, error) {
	rows := ms.Rows
	if rows == 0 {
		rows = 12_000
	}
	tables := ms.Tables
	if tables == 0 {
		tables = 2
	}
	cfg := model.RM1().WithRows(rows).WithName(ms.Name)
	cfg.NumTables = tables
	if ms.BatchSize > 0 {
		cfg.BatchSize = ms.BatchSize
	}
	if ms.Pooling > 0 {
		cfg.Pooling = ms.Pooling
	}
	if ms.Locality > 0 {
		cfg.LocalityP = ms.Locality
	}

	var (
		sampler workload.Sampler
		mapping workload.IDMapping
		err     error
	)
	if ms.Trace != "" {
		// Replayed traces are recorded in physical-row space, so they
		// compose with the identity mapping.
		sampler, err = newTraceSampler(ms.Trace, cfg.RowsPerTable)
		if err != nil {
			return nil, fmt.Errorf("scenario: model %q trace: %w", ms.Name, err)
		}
		mapping = workload.IdentityMapping(cfg.RowsPerTable)
	} else {
		sampler, err = workload.NewPowerLawSampler(cfg.RowsPerTable, cfg.LocalityP, 0.9)
		if err != nil {
			return nil, err
		}
		mapping = workload.NewShuffledMapping(cfg.RowsPerTable, 3)
	}
	drift, err := workload.NewDriftingSampler(sampler)
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewQueryGenerator(drift, mapping, cfg.BatchSize, cfg.Pooling, ms.Seed^(runSeed*0x9e3779b9))
	if err != nil {
		return nil, err
	}
	v := &variant{spec: ms, cfg: cfg, drift: drift, gen: gen, weight: ms.Weight}
	if v.weight == 0 {
		v.weight = 1
	}
	if d := ms.Drift; d != nil && d.Every > 0 {
		v.nextDriftAt = d.Every.D()
	}
	return v, nil
}

// window profiles the variant's current traffic shape offline, exactly as
// a production profiling window would be collected pre-deployment.
func (v *variant) window() ([]*embedding.AccessStats, error) {
	queries := v.spec.WindowQueries
	if queries == 0 {
		queries = 100
	}
	perTable := make([][]*embedding.Batch, v.cfg.NumTables)
	for t := range perTable {
		for q := 0; q < queries; q++ {
			perTable[t] = append(perTable[t], v.gen.Next())
		}
	}
	return serving.CollectStats(v.cfg, perTable)
}

// defaultReplan cuts a profiling window's CDF at 70%/95% coverage — the
// same stand-in for the DP partitioner the liveserving example and admin
// CLI use at scaled-down geometry. Options.Replanner overrides it.
func defaultReplan(_ model.Config, window []*embedding.AccessStats) ([]int64, error) {
	return embedding.NewCDF(window[0]).ProportionalCuts(0.70, 0.95), nil
}

// buildOptions lowers the spec's transport/replicas/batching block.
func (v *variant) buildOptions() serving.BuildOptions {
	transport := serving.TransportTCP
	if v.spec.Transport == "local" {
		transport = serving.TransportLocal
	}
	bo := serving.BuildOptions{
		Transport:     transport,
		Replicas:      v.spec.Replicas,
		RowCacheBytes: v.spec.RowCacheBytes,
	}
	if b := v.spec.Batching; b != nil {
		bo.Batching = &serving.BatcherOptions{MaxBatch: b.MaxBatch, MaxDelay: b.MaxDelay.D()}
	}
	return bo
}

// servingSpec builds the variant's full serving.ModelSpec (model weights,
// profiling window, initial plan).
func (v *variant) servingSpec() (serving.ModelSpec, error) {
	m, err := model.New(v.cfg, v.spec.Seed)
	if err != nil {
		return serving.ModelSpec{}, err
	}
	window, err := v.window()
	if err != nil {
		return serving.ModelSpec{}, err
	}
	boundaries, err := v.replan(v.cfg, window)
	if err != nil {
		return serving.ModelSpec{}, err
	}
	return serving.ModelSpec{
		Name: v.spec.Name, Model: m, Stats: window,
		Boundaries: boundaries, Options: v.buildOptions(),
	}, nil
}

// request builds one predict request addressed to the variant. Must run on
// the arrival loop: generators are not concurrency-safe.
func (v *variant) request() *serving.PredictRequest {
	req := &serving.PredictRequest{
		Model:     v.spec.Name,
		BatchSize: v.cfg.BatchSize,
		DenseDim:  v.cfg.DenseInputDim,
		Dense:     make([]float32, v.cfg.BatchSize*v.cfg.DenseInputDim),
	}
	for t := 0; t < v.cfg.NumTables; t++ {
		b := v.gen.Next()
		req.Tables = append(req.Tables, serving.TableBatch{Indices: b.Indices, Offsets: b.Offsets})
	}
	return req
}

// runner holds one run's live state.
type runner struct {
	spec     *Spec
	logf     func(string, ...any)
	variants []*variant
	byName   map[string]*variant
	md       *serving.MultiDeployment
	frontend *serving.RPCPredictClient
	admin    *serving.AdminClient
	replan   func(model.Config, []*embedding.AccessStats) ([]int64, error)
	// scaler is the frontend's queue-depth autoscaler (nil without an
	// Autoscale block).
	scaler *serving.LiveAutoscaler

	collector *collector
	// start anchors event timestamps; written once before any autoscaler
	// loop starts. eventsMu guards events: the arrival loop and the
	// autoscaler OnScale callbacks both append.
	start    time.Time
	eventsMu sync.Mutex
	events   []EventRecord
}

// onScale is the autoscaler callback: tally the variant's scale action and
// put it on the event log like any timeline event (called from the
// control-loop goroutine).
func (r *runner) onScale(mdl string, table, shard, from, to int) {
	v := r.byName[mdl]
	if v == nil {
		return
	}
	verb := "out"
	if to > from {
		v.replicasAdded.Add(1)
	} else {
		v.replicasRemoved.Add(1)
		verb = "in"
	}
	r.record(time.Since(r.start), ActionScale, mdl,
		fmt.Sprintf("t%d/s%d scaled %s %d -> %d replicas on queue depth", table, shard, verb, from, to))
}

// drive runs the arrival loop: precompute the Poisson schedule, then for
// each arrival apply due drift and timeline events on the loop thread,
// build the request there too (generators are single-threaded), and issue
// it from its own goroutine like a real client.
func (r *runner) drive() error {
	spec := r.spec
	total := spec.Duration.D()
	pattern, err := spec.Traffic.pattern(total)
	if err != nil {
		return err
	}
	// The whole arrival schedule is precomputed from the seed, so a
	// fixed-seed run offers an identical request sequence every time.
	var schedule []time.Duration
	arrivals := workload.NewPoissonArrivals(pattern, spec.Seed)
	for {
		at, ok := arrivals.Next()
		if !ok {
			break
		}
		schedule = append(schedule, at)
	}
	pick := workload.NewRNG(spec.Seed + 0x5ca1ab1e)

	timeout := spec.RequestTimeout.D()
	if timeout == 0 {
		timeout = DefaultRequestTimeout
	}
	r.collector = newCollector(spec, total)
	timeline := spec.sortedTimeline()
	nextEvent := 0

	start := time.Now()
	r.start = start
	if r.scaler != nil {
		r.scaler.Start()
		defer r.scaler.Stop()
	}
	var wg sync.WaitGroup
	for _, at := range schedule {
		time.Sleep(time.Until(start.Add(at)))
		for nextEvent < len(timeline) && timeline[nextEvent].At.D() <= at {
			if err := r.apply(&timeline[nextEvent]); err != nil {
				wg.Wait()
				return err
			}
			nextEvent++
		}
		r.applyDrift(at)

		v := r.pickModel(pick)
		if v == nil {
			continue // nothing deployed right now
		}
		req := v.request()
		sample := r.collector.dispatch(v.spec.Name, at)
		wg.Add(1)
		v.inflight.Add(1)
		go func() {
			defer wg.Done()
			defer v.inflight.Done()
			//lint:escape ctxflow each open-loop query is an independent client with its own deadline root
			ctx, cancel := context.WithTimeout(context.Background(), timeout)
			defer cancel()
			var reply serving.PredictReply
			issued := time.Now()
			err := r.frontend.Predict(ctx, req, &reply)
			r.collector.complete(sample, time.Since(issued), err)
		}()
	}
	// Apply any events scheduled after the last arrival so deterministic
	// event logs don't depend on arrival tail behavior.
	for nextEvent < len(timeline) {
		at := timeline[nextEvent].At.D()
		time.Sleep(time.Until(start.Add(at)))
		if err := r.apply(&timeline[nextEvent]); err != nil {
			wg.Wait()
			return err
		}
		nextEvent++
	}
	wg.Wait()
	r.collector.finish(r.snapshotEpochs())
	return nil
}

// pickModel draws a deployed model with probability proportional to
// weight. The draw sequence is deterministic for a fixed seed.
func (r *runner) pickModel(rng *workload.RNG) *variant {
	var totalW float64
	for _, v := range r.variants {
		if v.active {
			totalW += v.weight
		}
	}
	if totalW == 0 {
		return nil
	}
	x := rng.Float64() * totalW
	for _, v := range r.variants {
		if !v.active {
			continue
		}
		if x < v.weight {
			return v
		}
		x -= v.weight
	}
	for i := len(r.variants) - 1; i >= 0; i-- {
		if r.variants[i].active {
			return r.variants[i]
		}
	}
	return nil
}

// applyDrift fires due drift cadences (Drift.At one-shots and Drift.Every
// repeats) for every variant.
func (r *runner) applyDrift(at time.Duration) {
	for _, v := range r.variants {
		d := v.spec.Drift
		if d == nil {
			continue
		}
		fraction := d.Fraction
		if fraction == 0 {
			fraction = 0.5
		}
		if d.At > 0 && !v.driftFired && at >= d.At.D() {
			v.driftFired = true
			shift := v.drift.Advance(int64(fraction * float64(v.cfg.RowsPerTable)))
			r.record(at, ActionDrift, v.spec.Name, fmt.Sprintf("hot set shifted to %+d rows", shift))
		}
		for d.Every > 0 && at >= v.nextDriftAt {
			shift := v.drift.Advance(int64(fraction * float64(v.cfg.RowsPerTable)))
			r.record(v.nextDriftAt, ActionDrift, v.spec.Name, fmt.Sprintf("hot set shifted to %+d rows", shift))
			v.nextDriftAt += d.Every.D()
		}
	}
}

// record appends one applied event to the run log. Safe for concurrent
// use: the arrival loop and the autoscaler callbacks both record.
func (r *runner) record(at time.Duration, action, mdl, detail string) {
	r.recordEpoch(at, action, mdl, detail, -1)
}

// recordEpoch is record with an epoch annotation (deploy/repartition).
func (r *runner) recordEpoch(at time.Duration, action, mdl, detail string, epoch int64) {
	r.eventsMu.Lock()
	r.events = append(r.events, EventRecord{At: at, Action: action, Model: mdl, Detail: detail, Epoch: epoch})
	r.eventsMu.Unlock()
	r.logf("%8v  %s %s: %s", at.Round(time.Millisecond), action, mdl, detail)
}

// pool resolves a timeline event's (model, table, shard) to the live
// replica pool serving it in the model's current epoch.
func (r *runner) pool(e *Event) (*serving.ReplicaPool, error) {
	ld, ok := r.md.Deployment(e.Model)
	if !ok {
		return nil, fmt.Errorf("scenario: %s: model %q is not deployed", e.Action, e.Model)
	}
	rt := ld.Table()
	if rt == nil {
		return nil, fmt.Errorf("scenario: %s: model %q has no live epoch", e.Action, e.Model)
	}
	if e.Table >= len(rt.Pools) {
		return nil, fmt.Errorf("scenario: %s: model %q has %d tables, no table %d", e.Action, e.Model, len(rt.Pools), e.Table)
	}
	if e.Shard >= len(rt.Pools[e.Table]) {
		return nil, fmt.Errorf("scenario: %s: model %q table %d has %d shards, no shard %d",
			e.Action, e.Model, e.Table, len(rt.Pools[e.Table]), e.Shard)
	}
	return rt.Pools[e.Table][e.Shard], nil
}

// apply executes one timeline event.
func (r *runner) apply(e *Event) error {
	at := e.At.D()
	switch e.Action {
	case ActionPhase:
		epochs := r.snapshotEpochs()
		r.collector.cutPhase(e.Label, at, epochs)
		r.record(at, ActionPhase, "", fmt.Sprintf("phase %q begins", e.Label))
		return nil

	case ActionKillReplica:
		pool, err := r.pool(e)
		if err != nil {
			return err
		}
		if !pool.KillReplica(e.Replica) {
			return fmt.Errorf("scenario: kill-replica: model %q t%d/s%d has no replica %d (size %d)",
				e.Model, e.Table, e.Shard, e.Replica, pool.Size())
		}
		r.record(at, e.Action, e.Model,
			fmt.Sprintf("t%d/s%d replica %d down, %d/%d live", e.Table, e.Shard, e.Replica, pool.Live(), pool.Size()))
		return nil

	case ActionReviveReplica:
		pool, err := r.pool(e)
		if err != nil {
			return err
		}
		if !pool.ReviveReplica(e.Replica) {
			return fmt.Errorf("scenario: revive-replica: model %q t%d/s%d has no replica %d (size %d)",
				e.Model, e.Table, e.Shard, e.Replica, pool.Size())
		}
		r.record(at, e.Action, e.Model,
			fmt.Sprintf("t%d/s%d replica %d back, %d/%d live", e.Table, e.Shard, e.Replica, pool.Live(), pool.Size()))
		return nil

	case ActionSlowShard:
		pool, err := r.pool(e)
		if err != nil {
			return err
		}
		pool.InjectDelay(e.Delay.D())
		r.record(at, e.Action, e.Model, fmt.Sprintf("t%d/s%d gathers now stall %v", e.Table, e.Shard, e.Delay.D()))
		return nil

	case ActionDeploy:
		v := r.byName[e.Model]
		ms, err := v.servingSpec()
		if err != nil {
			return err
		}
		counts := make([][]int64, len(ms.Stats))
		for t, st := range ms.Stats {
			counts[t] = st.Counts
		}
		var reply serving.AdminDeployReply
		//lint:escape ctxflow timeline events fire from the scenario clock, not from a request; each is its own root
		err = r.admin.Deploy(context.Background(), &serving.AdminDeployRequest{
			Name: v.spec.Name, Config: v.cfg, Seed: v.spec.Seed,
			Counts: counts, Boundaries: ms.Boundaries, Options: ms.Options,
		}, &reply)
		if err != nil {
			return fmt.Errorf("scenario: deploy %q: %w", e.Model, err)
		}
		ld, ok := r.md.Deployment(v.spec.Name)
		if !ok {
			return fmt.Errorf("scenario: deploy %q: not served after the deploy", e.Model)
		}
		ld.StartProfile()
		v.active = true
		r.recordEpoch(at, e.Action, e.Model, fmt.Sprintf("deployed live: epoch %d, %d shards", reply.Epoch, reply.Shards), reply.Epoch)
		return nil

	case ActionUndeploy:
		v := r.byName[e.Model]
		// Out of the rotation first, then drained: new arrivals stop
		// addressing the name, the variant's in-flight requests complete
		// (bounded by the request timeout), and only then does the
		// control plane unregister it. The autoscaler lets go of the
		// variant's pools on its next tick.
		v.active = false
		v.inflight.Wait()
		//lint:escape ctxflow timeline events fire from the scenario clock, not from a request; each is its own root
		if _, err := r.admin.Undeploy(context.Background(), e.Model); err != nil {
			return fmt.Errorf("scenario: undeploy %q: %w", e.Model, err)
		}
		r.record(at, e.Action, e.Model, "drained and unregistered")
		return nil

	case ActionDrift:
		v := r.byName[e.Model]
		fraction := e.Fraction
		if fraction == 0 {
			fraction = 0.5
		}
		shift := v.drift.Advance(int64(fraction * float64(v.cfg.RowsPerTable)))
		r.record(at, e.Action, e.Model, fmt.Sprintf("hot set shifted to %+d rows", shift))
		return nil

	case ActionRepartition:
		v := r.byName[e.Model]
		ld, ok := r.md.Deployment(e.Model)
		if !ok {
			return fmt.Errorf("scenario: repartition %q: not deployed", e.Model)
		}
		//lint:escape ctxflow timeline events fire from the scenario clock, not from a request; each is its own root
		boundaries, err := ld.Replan(context.Background(), func(window []*embedding.AccessStats) ([]int64, error) {
			return r.replan(v.cfg, window)
		})
		if err != nil {
			return fmt.Errorf("scenario: repartition %q: %w", e.Model, err)
		}
		epoch := ld.Epoch()
		r.recordEpoch(at, e.Action, e.Model, fmt.Sprintf("zero-downtime swap to epoch %d, boundaries %v", epoch, boundaries), epoch)
		return nil
	}
	return fmt.Errorf("scenario: unknown action %q", e.Action)
}

// snapshotEpochs captures every deployed model's (epoch, shards, utility
// skew) — phase rows carry these so experiments can assert plan-swap
// progress per phase.
func (r *runner) snapshotEpochs() map[string]EpochInfo {
	out := map[string]EpochInfo{}
	for _, name := range r.md.Models() {
		ld, ok := r.md.Deployment(name)
		if !ok {
			continue
		}
		info := EpochInfo{Epoch: -1}
		if rt := ld.Table(); rt != nil {
			info = EpochInfo{Epoch: rt.Epoch, Shards: rt.NumShards(0), UtilitySkew: rt.UtilitySkew()}
		}
		out[name] = info
	}
	return out
}

// result assembles the measurement into a Result, folding in the control
// plane's final per-model status over the admin API.
func (r *runner) result() (*Result, error) {
	//lint:escape ctxflow the end-of-run status sweep outlives every scenario deadline by design
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	status, err := r.admin.Status(ctx, "")
	if err != nil {
		return nil, err
	}
	byModel := map[string]serving.ModelStatus{}
	for _, st := range status {
		byModel[st.Model] = st
	}

	res := &Result{
		Name:     r.spec.Name,
		Duration: r.spec.Duration.D(),
		Warmup:   r.spec.Warmup.D(),
		Events:   r.events,
	}
	res.Total = r.collector.total.summarize()
	res.Phases = r.collector.phaseResults()
	names := make([]string, 0, len(r.collector.perModel))
	for name := range r.collector.perModel {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mr := ModelResult{Model: name, Metrics: r.collector.perModel[name].summarize()}
		if st, ok := byModel[name]; ok {
			mr.Deployed = true
			mr.Status = st
		}
		if v := r.byName[name]; v != nil {
			mr.ReplicasAdded = v.replicasAdded.Load()
			mr.ReplicasRemoved = v.replicasRemoved.Load()
		}
		res.Models = append(res.Models, mr)
	}
	return res, nil
}
