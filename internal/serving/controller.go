package serving

import (
	"context"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/embedding"
)

// This file is the serving control plane: the Controller owns runtime
// model lifecycle for a MultiDeployment. The data plane (multimodel.go)
// only ever reads immutable model snapshots; every mutation of the served
// set — deploying a new variant into the running frontend, draining a
// retired one out — goes through the Controller, which serializes
// lifecycle operations and keeps the autoscaler's per-variant loops in
// step with the models that actually exist. The Controller is exposed over
// the RPC frontend as the versioned admin service (admin.go), so a fleet
// operator can deploy, drain and inspect variants over the wire with no
// restart.

// AutoscalerBinding wires a Controller to a LiveAutoscaler so variant
// lifecycle and control loops stay in lock step: Deploy starts the new
// variant's repartition loop (and its replica-scaling entries), Undeploy
// stops them and forgets the variant's policy state, so a reused name
// starts from a clean slate.
type AutoscalerBinding struct {
	// Autoscaler receives one ModelRepartition per deployed variant.
	Autoscaler *LiveAutoscaler
	// Policy is the shared staleness policy (state is per model inside).
	Policy *cluster.RepartitionPolicy
	// Replan maps a variant's fresh profiling window to new boundaries.
	Replan func(model string, stats []*embedding.AccessStats) ([]int64, error)
	// Shards, when set, builds the replica-scaling entries for a variant's
	// current epoch; invoked at deploy and again after every swap so the
	// scaling loop always points at the epochs actually serving.
	Shards func(model string, ld *LiveDeployment) []*AutoscaledShard
	// OnRepartition, when set, observes every triggered swap.
	OnRepartition func(model string, retired int64, err error)
}

// Controller is the lifecycle control plane of one MultiDeployment:
// Deploy lazily builds and publishes a new variant into the running
// frontend (build → warm → publish, no restart), Undeploy drains a variant
// out of it (unpublish → flush → unregister → drain → release), and
// Status snapshots every served variant. Lifecycle operations are
// serialized with each other but never block the request path — data-plane
// reads are atomic snapshot loads throughout.
type Controller struct {
	md      *MultiDeployment
	binding *AutoscalerBinding // guarded by md.mutateMu
}

// ModelStatus is one variant's control-plane snapshot.
type ModelStatus struct {
	// Model is the canonical variant name.
	Model string
	// Epoch is the variant's current plan epoch; Swaps counts its
	// published plan swaps.
	Epoch int64
	Swaps int64
	// Shards is the shard count of the current epoch's plan.
	Shards int
	// Served counts dense dispatches routed through the current epoch.
	Served int64
	// OfferedQPS is the variant's offered load at the frontend (sliding
	// window; see MultiDeployment.OfferedQPS).
	OfferedQPS float64
	// UtilitySkew is the current epoch's Fig. 14 utility spread — the
	// staleness signal the repartition policy watches.
	UtilitySkew float64
	// Counters is the variant's lifetime plan-construction tally,
	// including the plan cache's occupancy (CachedSortedBytes is the
	// bytes of cached sorted tables this variant pins).
	Counters BuildCounters
	// Queues is the per-shard pull-queue pressure of the current epoch
	// (one entry per replica pool) — the signal the queue-depth
	// autoscaler scales on, surfaced so operators can see a hot shard
	// building backlog before it sheds. Added fields ride the admin API's
	// JSON bodies without a version bump (absent on old peers).
	Queues []ShardQueueStatus
}

// ShardQueueStatus is one shard's pull-queue snapshot inside ModelStatus.
type ShardQueueStatus struct {
	// Table and Shard locate the pool in the current epoch's plan.
	Table, Shard int
	// Replicas/Live/Workers describe who is pulling; Depth/Capacity the
	// bounded queue; DepthEWMA/ServiceEWMA the smoothed autoscaling
	// signals; Enqueued/Rejected the lifetime admission counters.
	Replicas, Live, Workers int
	Depth, Capacity         int
	DepthEWMA               float64
	ServiceEWMA             time.Duration
	Enqueued, Rejected      int64
}

// Bind attaches an autoscaler binding and wires every currently served
// variant into it: each gets a repartition loop (its profiling window is
// opened if needed) and, when the binding builds them, replica-scaling
// entries. Subsequent Deploys wire new variants automatically; Undeploy
// unwires them. Pass nil to detach (existing loops are removed).
func (c *Controller) Bind(b *AutoscalerBinding) {
	c.md.mutateMu.Lock()
	defer c.md.mutateMu.Unlock()
	if old := c.binding; old != nil && old.Autoscaler != nil {
		// Detach, don't retire: the models stay live, so their policy
		// state (firing times, cheap-swap flags) must survive the rebind.
		for _, name := range c.md.snapshot().names {
			c.unwireLocked(old, name, false)
		}
	}
	c.binding = b
	if b == nil || b.Autoscaler == nil {
		return
	}
	s := c.md.snapshot()
	for _, name := range s.names {
		c.wireLocked(name, s.deployments[name])
	}
}

// wireLocked starts the variant's control loops (caller holds mutateMu).
func (c *Controller) wireLocked(name string, ld *LiveDeployment) {
	b := c.binding
	if b == nil || b.Autoscaler == nil || b.Policy == nil || b.Replan == nil {
		return
	}
	mr := &ModelRepartition{
		Model:      name,
		Deployment: ld,
		Policy:     b.Policy,
		Replan: func(stats []*embedding.AccessStats) ([]int64, error) {
			return b.Replan(name, stats)
		},
		OnRepartition: func(model string, retired int64, err error) {
			if err == nil && b.Shards != nil {
				b.Autoscaler.SetModelShards(model, b.Shards(model, ld)...)
			}
			if b.OnRepartition != nil {
				b.OnRepartition(model, retired, err)
			}
		},
	}
	b.Autoscaler.AddRepartition(mr)
	if b.Shards != nil {
		b.Autoscaler.SetModelShards(name, b.Shards(name, ld)...)
	}
	ld.StartProfileIfIdle()
}

// unwireLocked stops the variant's control loops; with retire set it also
// forgets the variant's policy state so a reused name never inherits a
// retired model's firing history. Rebinding a live model passes retire
// false — its throttle state must survive the binding swap. Caller holds
// mutateMu.
func (c *Controller) unwireLocked(b *AutoscalerBinding, name string, retire bool) {
	if b == nil || b.Autoscaler == nil {
		return
	}
	b.Autoscaler.RemoveRepartition(name)
	b.Autoscaler.RemoveModelShards(name)
	if retire && b.Policy != nil {
		b.Policy.Forget(name)
	}
}

// Deploy builds a new variant and publishes it into the running frontend:
// the spec's tables are preprocessed and sharded, the fresh shards are
// pre-warmed from the spec's profiling window (build → warm, exactly the
// epoch lifecycle's first two states), the variant's epoch-0 plan is
// registered with the shared Router, and finally the data-plane snapshot
// swaps — from that instant the frontend dispatches to the new name. No
// other variant is touched and no request is ever blocked. A name
// currently serving is rejected; a name freed by Undeploy is reusable.
func (c *Controller) Deploy(ctx context.Context, spec ModelSpec) error {
	if err := deployExpired(ctx); err != nil {
		return fmt.Errorf("serving: deploy %q: %w", spec.Name, err)
	}
	name := canonicalModel(spec.Name)
	c.md.mutateMu.Lock()
	defer c.md.mutateMu.Unlock()
	if _, dup := c.md.snapshot().deployments[name]; dup {
		return fmt.Errorf("serving: model %q already deployed", name)
	}
	ld, err := buildModelDeployment(c.md.Router, name, spec.Model, spec.Stats, spec.Boundaries, spec.Options)
	if err != nil {
		return fmt.Errorf("serving: deploying model %q: %w", name, err)
	}
	// The deadline is honored at the build boundary: a deploy whose ctx
	// expired while building is torn down, never published, and its name
	// stays free — so a client that timed out can safely retry.
	if err := deployExpired(ctx); err != nil {
		//lint:escape ctxflow teardown of the half-built deployment must not inherit the already-expired deploy ctx
		_ = ld.Shutdown(context.Background())
		return fmt.Errorf("serving: deploying model %q: %w", name, err)
	}
	if err := c.md.publishModel(name, ld); err != nil {
		ld.Close()
		return err
	}
	c.wireLocked(name, ld)
	return nil
}

// deployExpired reports ctx's error, or DeadlineExceeded once its deadline
// has passed by the clock: ctx.Err() alone lags the deadline by a timer
// hop, long enough for a late build to be published.
func deployExpired(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
		return context.DeadlineExceeded
	}
	return nil
}

// Undeploy drains a variant out of the running frontend: the data-plane
// snapshot swaps first (new requests for the name fail immediately and its
// offered-QPS meter is dropped), the variant's repartition loop stops and
// its policy state is forgotten, then the deployment shuts down —
// batcher flushed, model unregistered from the router (the name becomes
// reusable), final epoch drained within ctx, final utilities frozen, and
// the plan cache cleared so no cached shard unit outlives the model. Every
// other variant keeps serving uninterrupted throughout.
func (c *Controller) Undeploy(ctx context.Context, mdl string) error {
	name := canonicalModel(mdl)
	c.md.mutateMu.Lock()
	defer c.md.mutateMu.Unlock()
	ld, err := c.md.unpublishModel(name)
	if err != nil {
		return err
	}
	c.unwireLocked(c.binding, name, true)
	if err := ld.Shutdown(ctx); err != nil {
		return fmt.Errorf("serving: undeploy %q: %w", name, err)
	}
	return nil
}

// Status snapshots every served variant in registration order.
func (c *Controller) Status() []ModelStatus {
	s := c.md.snapshot()
	out := make([]ModelStatus, 0, len(s.names))
	for _, name := range s.names {
		if st, ok := c.modelStatus(s, name); ok {
			out = append(out, st)
		}
	}
	return out
}

// ModelStatus snapshots one variant (ok is false for an unknown or
// retired model).
func (c *Controller) ModelStatus(mdl string) (ModelStatus, bool) {
	return c.modelStatus(c.md.snapshot(), canonicalModel(mdl))
}

func (c *Controller) modelStatus(s *modelSet, name string) (ModelStatus, bool) {
	ld, ok := s.deployments[name]
	if !ok {
		return ModelStatus{}, false
	}
	st := ModelStatus{Model: name, Epoch: -1, Counters: ld.BuildCounters(),
		Swaps: c.md.Router.SwapsFor(name)}
	if m := s.meters[name]; m != nil {
		st.OfferedQPS = m.Rate()
	}
	if rt := ld.Table(); rt != nil {
		st.Epoch = rt.Epoch
		st.Shards = rt.NumShards(0)
		st.Served = rt.Served.Value()
		st.UtilitySkew = rt.UtilitySkew()
		for t, pools := range rt.Pools {
			for sh, pool := range pools {
				if pool == nil {
					continue
				}
				q := pool.QueueStats()
				st.Queues = append(st.Queues, ShardQueueStatus{
					Table: t, Shard: sh,
					Replicas: q.Replicas, Live: q.LiveReplicas, Workers: q.Workers,
					Depth: q.Depth, Capacity: q.Capacity,
					DepthEWMA: q.DepthEWMA, ServiceEWMA: q.ServiceEWMA,
					Enqueued: q.Enqueued, Rejected: q.Rejected,
				})
			}
		}
	}
	return st, true
}
