package cluster

import (
	"fmt"
	"math"
	"time"
)

// MetricKind selects the HPA target style.
type MetricKind string

// The two HPA target styles ElasticRec configures (Sec. IV-D).
const (
	// MetricQPSPerReplica scales so each replica carries at most Target
	// queries/sec — the throughput-centric target used for sparse
	// embedding shards, with Target set to the shard's stress-tested
	// QPSmax.
	MetricQPSPerReplica MetricKind = "qps-per-replica"
	// MetricLatency scales to keep the observed tail latency below
	// Target seconds — the latency-centric target used for dense
	// shards, with Target = 65% of the SLA.
	MetricLatency MetricKind = "latency"
)

// HPAPolicy configures one autoscaler.
type HPAPolicy struct {
	Deployment string
	Kind       MetricKind
	// Target is queries/sec/replica (QPS kind) or seconds (latency kind).
	Target float64
	// MinReplicas/MaxReplicas bound the scaling range.
	MinReplicas, MaxReplicas int
	// Tolerance suppresses scaling when the metric ratio is within
	// 1 +/- Tolerance (Kubernetes defaults to 0.1).
	Tolerance float64
	// QPSGuard (latency kind only, optional) is the per-replica capacity
	// estimate: scale-down is vetoed when it would push per-replica load
	// above 85% of this guard. A latency target alone under-provisions —
	// queueing latency stays low until the knee and then explodes — so
	// production latency SLOs are paired with a utilization floor.
	QPSGuard float64
	// ScaleDownStabilization delays scale-downs until the lower demand
	// has persisted (Kubernetes defaults to 5 minutes; the paper's
	// 30-minute experiment uses a shorter window).
	ScaleDownStabilization time.Duration
}

// Validate checks policy invariants.
func (p HPAPolicy) Validate() error {
	if p.Deployment == "" {
		return fmt.Errorf("cluster: HPA policy needs a deployment")
	}
	if p.Kind != MetricQPSPerReplica && p.Kind != MetricLatency {
		return fmt.Errorf("cluster: unknown HPA metric kind %q", p.Kind)
	}
	if p.Target <= 0 {
		return fmt.Errorf("cluster: HPA target must be positive, got %v", p.Target)
	}
	if p.MinReplicas < 1 {
		return fmt.Errorf("cluster: MinReplicas must be >= 1, got %d", p.MinReplicas)
	}
	if p.MaxReplicas > 0 && p.MaxReplicas < p.MinReplicas {
		return fmt.Errorf("cluster: MaxReplicas %d < MinReplicas %d", p.MaxReplicas, p.MinReplicas)
	}
	if p.Tolerance < 0 {
		return fmt.Errorf("cluster: negative tolerance %v", p.Tolerance)
	}
	return nil
}

// MetricSample is one control-loop observation for a deployment.
type MetricSample struct {
	// OfferedQPS is the aggregate load directed at the deployment.
	OfferedQPS float64
	// LatencySeconds is the observed tail latency of the deployment.
	LatencySeconds float64
}

// HPA is one autoscaler instance bound to a cluster deployment. Evaluate
// implements the Kubernetes HPA algorithm:
//
//	desired = ceil(currentReplicas * currentMetric / target)
//
// with tolerance dead-banding and scale-down stabilization.
type HPA struct {
	Policy HPAPolicy

	lowSince   time.Duration // when the metric first allowed scale-down
	lowPending bool
	lowestWant int // smallest desired count seen during the low window
}

// NewHPA validates the policy and creates the controller.
func NewHPA(policy HPAPolicy) (*HPA, error) {
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	if policy.Tolerance == 0 {
		policy.Tolerance = 0.1
	}
	return &HPA{Policy: policy}, nil
}

// Evaluate runs one control-loop iteration at virtual time now and scales
// the deployment through the cluster. It returns the desired replica
// count after the iteration.
func (h *HPA) Evaluate(c *Cluster, sample MetricSample, now time.Duration) (int, error) {
	d, ok := c.Deployment(h.Policy.Deployment)
	if !ok {
		return 0, fmt.Errorf("cluster: HPA references unknown deployment %q", h.Policy.Deployment)
	}
	current, _ := d.Replicas()
	if current == 0 {
		current = 1
	}

	var ratio float64
	switch h.Policy.Kind {
	case MetricQPSPerReplica:
		perReplica := sample.OfferedQPS / float64(current)
		ratio = perReplica / h.Policy.Target
	case MetricLatency:
		ratio = sample.LatencySeconds / h.Policy.Target
	}

	desired := current
	if math.Abs(ratio-1) > h.Policy.Tolerance {
		desired = int(math.Ceil(float64(current) * ratio))
	}
	// Latency is not proportional to replica count (queueing is convex):
	// the multiplicative rule would scale down straight into saturation.
	// Latency-driven deployments therefore shed at most one replica per
	// control period, and never past the utilization guard.
	if h.Policy.Kind == MetricLatency && desired < current {
		if desired < current-1 {
			desired = current - 1
		}
		if h.Policy.QPSGuard > 0 && desired > 0 &&
			sample.OfferedQPS/float64(desired) > 0.85*h.Policy.QPSGuard {
			desired = current
		}
	}
	// Scale-up rate limit (Kubernetes' default scale-up policy: at most
	// double, or add 4 pods, per control period — whichever is greater).
	// Without it a saturated latency metric compounds into a runaway.
	if up := max(current*2, current+4); desired > up {
		desired = up
	}
	if desired < h.Policy.MinReplicas {
		desired = h.Policy.MinReplicas
	}
	if h.Policy.MaxReplicas > 0 && desired > h.Policy.MaxReplicas {
		desired = h.Policy.MaxReplicas
	}

	switch {
	case desired > current:
		h.lowPending = false
		if err := c.Scale(d.Name, desired, now); err != nil {
			return current, err
		}
		return desired, nil
	case desired < current:
		// Stabilization: only scale down after the demand has stayed low
		// for the configured window, to the highest desired count seen.
		if !h.lowPending {
			h.lowPending = true
			h.lowSince = now
			h.lowestWant = desired
		}
		if desired > h.lowestWant {
			h.lowestWant = desired
		}
		if now-h.lowSince >= h.Policy.ScaleDownStabilization {
			h.lowPending = false
			if err := c.Scale(d.Name, h.lowestWant, now); err != nil {
				return current, err
			}
			return h.lowestWant, nil
		}
		return current, nil
	default:
		h.lowPending = false
		return current, nil
	}
}
