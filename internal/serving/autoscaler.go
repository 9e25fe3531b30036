package serving

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/embedding"
)

// This file is the live control loop of one frontend: LiveAutoscaler
// watches a MultiDeployment and, every tick, reads what it serves — the
// served models and each one's current epoch — so deploys, undeploys and
// plan swaps need no rewiring. Two policies drive it, both pure functions
// of a snapshot: QueuePolicy adds and removes copies of a shard inside
// the current epoch from pull-queue pressure, and RepartitionPolicy moves
// the rows themselves via a plan swap when the epoch's utility skew says
// the plan has gone stale.

// QueuePolicy is the queue-depth autoscaling policy: scale a shard's
// replica set from its pull-queue pressure. The decision is a pure
// function of a QueueStats snapshot (see Decide), so the policy is
// property-testable without a live deployment.
type QueuePolicy struct {
	// HighDepth scales out when the per-replica depth EWMA exceeds it.
	HighDepth float64
	// LowDepth scales in when the per-replica depth EWMA falls below it
	// (and more than one replica remains). LowDepth < HighDepth is the
	// hysteresis band that prevents add/remove flapping.
	LowDepth float64
	// Cooldown is the minimum time between scale decisions for one shard.
	Cooldown time.Duration
}

// Validate rejects a policy whose thresholds cannot behave (no hysteresis
// band, negative times).
func (p *QueuePolicy) Validate() error {
	if p.HighDepth <= 0 {
		return fmt.Errorf("serving: queue policy: high depth must be positive")
	}
	if p.LowDepth < 0 || p.LowDepth >= p.HighDepth {
		return fmt.Errorf("serving: queue policy: low depth %.2f must be in [0, high depth %.2f)", p.LowDepth, p.HighDepth)
	}
	if p.Cooldown < 0 {
		return fmt.Errorf("serving: queue policy: cooldown must not be negative")
	}
	return nil
}

// Decide returns the replica delta (-1, 0 or +1) for one control tick:
// +1 when the per-replica depth EWMA is above HighDepth, -1 when it is
// below LowDepth with replicas to spare, 0 inside the hysteresis band or
// within Cooldown of the last scale action. Monotone in the depth signal.
func (p *QueuePolicy) Decide(st QueueStats, lastScale, now time.Time) int {
	if p == nil || p.HighDepth <= 0 {
		return 0
	}
	if p.Cooldown > 0 && now.Sub(lastScale) < p.Cooldown {
		return 0
	}
	replicas := st.Replicas
	if replicas < 1 {
		replicas = 1
	}
	perReplica := st.DepthEWMA / float64(replicas)
	switch {
	case perReplica > p.HighDepth:
		return 1
	case st.Replicas > 1 && perReplica < p.LowDepth:
		return -1
	}
	return 0
}

// RepartitionPolicy decides when a live deployment's partition plan has
// gone stale and should be re-planned from a fresh profiling window
// (Sec. IV-B's re-profiling loop). Where QueuePolicy adjusts replica
// counts within a plan, this policy decides when the plan itself must be
// swapped. The signal is the per-shard memory-utility profile of Fig. 14:
// a hotness-aligned plan is strongly skewed — the small hot shard
// saturates its rows while the big cold shard stays barely touched — so
// when traffic hotness drifts away from the boundaries the plan was cut
// for, accesses spread out and the utility profile flattens. The trigger
// fires when the observed skew (max - min utility across a table's
// shards) falls below MinSkew.
type RepartitionPolicy struct {
	// MinSkew is the smallest healthy utility spread (in (0, 1)); an
	// epoch whose skew has flattened below it is considered stale.
	MinSkew float64
	// MinRequests is the warm-up: the epoch must have served at least
	// this many requests before its utility profile is meaningful. The
	// unit is dense-shard dispatches — with dynamic batching enabled, a
	// fused batch of several client requests counts once, so size the
	// warm-up against the expected fusion factor.
	MinRequests int64
	// MinInterval suppresses re-triggering the same deployment while its
	// fresh plan warms up.
	MinInterval time.Duration
}

// Decide reports whether an epoch with this utility skew and served count
// should be re-planned at now, given when its deployment last fired
// (the zero time means never).
func (p *RepartitionPolicy) Decide(skew float64, served int64, lastFire, now time.Time) bool {
	if served < p.MinRequests || skew >= p.MinSkew {
		return false
	}
	return lastFire.IsZero() || now.Sub(lastFire) >= p.MinInterval
}

// LiveAutoscaler is the control loop of one frontend — an in-process
// stand-in for the Kubernetes HPA controller plus the paper's re-profiling
// loop. Every Interval it walks the models Frontend serves: every shard
// pool of each model's current epoch gets one Queue decision (a new
// replica serves the same sorted row range, in-process), then each model
// gets one Repartition decision on its own epoch's utility skew. Cooldown
// and firing times are kept per pool and per deployment, and anything no
// longer served is dropped on the next tick, so models deployed, swapped
// or undeployed while the loop runs need no call to it, and a redeployed
// name starts clean.
type LiveAutoscaler struct {
	// Frontend is the deployment whose served models the loop watches.
	Frontend *MultiDeployment
	// Interval is the control tick (default 1 s).
	Interval time.Duration
	// Queue scales every shard pool on its pull-queue pressure (nil: no
	// replica scaling); MaxReplicas caps each pool (0 = unlimited).
	Queue       *QueuePolicy
	MaxReplicas int
	// Repartition, with Replan, is the skew trigger (nil: no plan swaps).
	// While it is set the loop keeps a profiling window open on every
	// served model; Replan maps a model's window to new boundaries.
	Repartition *RepartitionPolicy
	Replan      func(model string, stats []*embedding.AccessStats) ([]int64, error)
	// OnScale and OnRepartition, when set, observe every replica
	// add/remove and every triggered swap (the retired epoch, and the
	// swap's error). They run on the control goroutine; keep them fast.
	OnScale       func(model string, table, shard, from, to int)
	OnRepartition func(model string, retired int64, err error)

	// lastScale and lastFire are the loop's only state, owned by tick and
	// rebuilt each tick from what is served.
	lastScale map[*ReplicaPool]time.Time
	lastFire  map[*LiveDeployment]time.Time

	stop chan struct{}
	wg   sync.WaitGroup
}

// Start launches the control loop.
func (a *LiveAutoscaler) Start() {
	if a.Interval <= 0 {
		a.Interval = time.Second
	}
	a.stop = make(chan struct{})
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		ticker := time.NewTicker(a.Interval)
		defer ticker.Stop()
		for {
			select {
			case <-a.stop:
				return
			case now := <-ticker.C:
				a.tick(now)
			}
		}
	}()
}

// Stop halts the loop and waits for it to exit (idempotent).
func (a *LiveAutoscaler) Stop() {
	if a.stop == nil {
		return
	}
	close(a.stop)
	a.wg.Wait()
	a.stop = nil
}

// tick runs one control period at now over the frontend's current model
// set. The state maps are rebuilt from what was walked, which is how a
// retired deployment's pools and firing time leave the loop.
func (a *LiveAutoscaler) tick(now time.Time) {
	s := a.Frontend.snapshot()
	lastScale := make(map[*ReplicaPool]time.Time, len(a.lastScale))
	lastFire := make(map[*LiveDeployment]time.Time, len(s.names))
	for _, name := range s.names {
		ld := s.deployments[name]
		rt := ld.Table()
		if rt == nil {
			continue // undeployed since the snapshot
		}
		if a.Queue != nil {
			for t, pools := range rt.Pools {
				for sh, pool := range pools {
					lo, hi := int64(0), rt.Boundaries[t][sh]
					if sh > 0 {
						lo = rt.Boundaries[t][sh-1]
					}
					spawn := func() (GatherClient, error) {
						return NewEmbeddingShard(t, sh, rt.Pre.Sorted[t], lo, hi)
					}
					lastScale[pool] = a.scale(name, t, sh, pool, spawn, a.lastScale[pool], now)
				}
			}
		}
		if a.Repartition != nil && a.Replan != nil {
			ld.StartProfileIfIdle()
			lastFire[ld] = a.lastFire[ld]
			if a.Repartition.Decide(rt.UtilitySkew(), rt.Served.Value(), lastFire[ld], now) {
				lastFire[ld] = now
				//lint:escape ctxflow the swap runs on the loop's own detached goroutine, not under any request
				_, err := ld.Replan(context.Background(), func(stats []*embedding.AccessStats) ([]int64, error) {
					return a.Replan(name, stats)
				})
				if a.OnRepartition != nil {
					a.OnRepartition(name, rt.Epoch, err)
				}
			}
		}
	}
	a.lastScale, a.lastFire = lastScale, lastFire
}

// scale runs one Queue decision on a pool that last scaled at last, and
// returns when it last scaled after this decision.
func (a *LiveAutoscaler) scale(model string, t, s int, pool *ReplicaPool, spawn func() (GatherClient, error), last, now time.Time) time.Time {
	st := pool.QueueStats()
	to := st.Replicas
	switch a.Queue.Decide(st, last, now) {
	case 1:
		if a.MaxReplicas > 0 && st.Replicas >= a.MaxReplicas {
			return last
		}
		c, err := spawn()
		if err != nil {
			return last
		}
		pool.Add(c)
		to++
	case -1:
		if pool.Remove() == nil {
			return last
		}
		to--
	default:
		return last
	}
	if a.OnScale != nil {
		a.OnScale(model, t, s, st.Replicas, to)
	}
	return now
}
