package deploy

import (
	"fmt"
	"math"
	"time"

	"repro/internal/perfmodel"
)

// This file is the Kubernetes model behind Figs. 15, 18 and 19 (Sec. IV-D):
// a plan's pods packed best-fit onto auto-provisioned nodes of one spec,
// each pod Ready once its shard's cold start has elapsed, and the
// Horizontal Pod Autoscaler step that resizes one shard's deployment.
// Deployment d is the replica set of plan.Shards[d].

// ResourceSpec is a pod resource request or a node's capacity.
type ResourceSpec struct {
	CPUMilli int64 // millicores
	MemBytes int64
	GPUs     int
}

func (r ResourceSpec) add(o ResourceSpec) ResourceSpec {
	return ResourceSpec{r.CPUMilli + o.CPUMilli, r.MemBytes + o.MemBytes, r.GPUs + o.GPUs}
}

func (r ResourceSpec) sub(o ResourceSpec) ResourceSpec {
	return ResourceSpec{r.CPUMilli - o.CPUMilli, r.MemBytes - o.MemBytes, r.GPUs - o.GPUs}
}

// fits reports whether the request r fits within free capacity.
func (r ResourceSpec) fits(free ResourceSpec) bool {
	return r.CPUMilli <= free.CPUMilli && r.MemBytes <= free.MemBytes && r.GPUs <= free.GPUs
}

// Fleet is a plan scheduled onto nodes that are provisioned, all with the
// same capacity, whenever no node has room for a pod.
type Fleet struct {
	shards   []ShardSpec
	capacity ResourceSpec
	nodes    []node
	pods     [][]pod // pods[d] is deployment d's replicas, oldest first
}

type node struct {
	free ResourceSpec
	pods int
}

type pod struct {
	node    int
	readyAt time.Duration
	ready   bool
}

// Materialize schedules every shard's replicas at time 0 onto a fresh
// fleet of nodes of the given spec — the packing whose node count is the
// server count of Figs. 15 and 18, and the starting state of Fig. 19.
func (p *Plan) Materialize(spec perfmodel.NodeSpec) (*Fleet, error) {
	f := &Fleet{
		shards:   p.Shards,
		capacity: ResourceSpec{CPUMilli: int64(spec.Cores) * 1000, MemBytes: spec.MemBytes, GPUs: spec.GPUs},
		pods:     make([][]pod, len(p.Shards)),
	}
	for d := range p.Shards {
		if err := f.Scale(d, p.Shards[d].Replicas, 0); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Scale sets deployment d to replicas pods at time now. A new pod goes to
// the node with the least free memory that still fits it (best fit, ties
// to the oldest node, which keeps server counts tight the way the
// Kubernetes scheduler's default scoring approximates), or to a new node
// when none does, and is Ready ColdStart after now. Scale-downs remove the
// newest pods first: they are the least likely to be Ready.
func (f *Fleet) Scale(d, replicas int, now time.Duration) error {
	if replicas < 0 {
		return fmt.Errorf("deploy: negative replica count %d", replicas)
	}
	s := &f.shards[d]
	for len(f.pods[d]) < replicas {
		best := -1
		for n, nd := range f.nodes {
			if s.Resources.fits(nd.free) && (best < 0 || nd.free.MemBytes < f.nodes[best].free.MemBytes) {
				best = n
			}
		}
		if best < 0 {
			if !s.Resources.fits(f.capacity) {
				return fmt.Errorf("deploy: %s pod (%+v) exceeds the node (%+v)", s.Name, s.Resources, f.capacity)
			}
			best = len(f.nodes)
			f.nodes = append(f.nodes, node{free: f.capacity})
		}
		f.nodes[best].free = f.nodes[best].free.sub(s.Resources)
		f.nodes[best].pods++
		f.pods[d] = append(f.pods[d], pod{node: best, readyAt: now + s.ColdStart})
	}
	for len(f.pods[d]) > replicas {
		last := f.pods[d][len(f.pods[d])-1]
		f.pods[d] = f.pods[d][:len(f.pods[d])-1]
		f.nodes[last.node].free = f.nodes[last.node].free.add(s.Resources)
		f.nodes[last.node].pods--
	}
	return nil
}

// Tick marks Ready every pod whose cold start has elapsed by now.
func (f *Fleet) Tick(now time.Duration) {
	for _, pods := range f.pods {
		for i := range pods {
			if now >= pods[i].readyAt {
				pods[i].ready = true
			}
		}
	}
}

// Replicas returns deployment d's scheduled and Ready pod counts.
func (f *Fleet) Replicas(d int) (desired, ready int) {
	for _, p := range f.pods[d] {
		if p.ready {
			ready++
		}
	}
	return len(f.pods[d]), ready
}

// NodesInUse returns the number of nodes hosting at least one pod — after
// Materialize, the server counts of Figs. 15 and 18.
func (f *Fleet) NodesInUse() int {
	n := 0
	for _, nd := range f.nodes {
		if nd.pods > 0 {
			n++
		}
	}
	return n
}

// AllocatedMemBytes sums the memory reserved by all scheduled pods.
func (f *Fleet) AllocatedMemBytes() int64 {
	var total int64
	for _, nd := range f.nodes {
		total += f.capacity.MemBytes - nd.free.MemBytes
	}
	return total
}

// MetricKind selects the HPA target style.
type MetricKind string

// The two HPA target styles ElasticRec configures (Sec. IV-D).
const (
	// MetricQPSPerReplica scales so each replica carries at most Target
	// queries/sec — the throughput-centric target used for sparse
	// embedding shards, with Target set below the shard's stress-tested
	// QPSmax.
	MetricQPSPerReplica MetricKind = "qps-per-replica"
	// MetricLatency scales to keep the observed tail latency below
	// Target seconds — the latency-centric target used for dense
	// shards, with Target = 65% of the SLA.
	MetricLatency MetricKind = "latency"
)

// HPAPolicy configures one autoscaler.
type HPAPolicy struct {
	Kind MetricKind
	// Target is queries/sec/replica (QPS kind) or seconds (latency kind).
	Target float64
	// MinReplicas/MaxReplicas bound the scaling range (MaxReplicas 0 =
	// unbounded).
	MinReplicas, MaxReplicas int
	// Tolerance suppresses scaling when the metric ratio is within
	// 1 +/- Tolerance; 0 takes Kubernetes' default of 0.1.
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

// MetricSample is one control-loop observation for a deployment.
type MetricSample struct {
	// OfferedQPS is the aggregate load directed at the deployment.
	OfferedQPS float64
	// LatencySeconds is the observed tail latency of the deployment.
	LatencySeconds float64
}

// HPA is one Horizontal Pod Autoscaler. Evaluate implements the
// Kubernetes HPA algorithm:
//
//	desired = ceil(currentReplicas * currentMetric / target)
//
// with tolerance dead-banding and scale-down stabilization.
type HPA struct {
	Policy HPAPolicy

	lowSince   time.Duration // when the metric first allowed scale-down
	lowPending bool
	downTo     int // highest desired count seen during the low window
}

// Evaluate runs one control-loop iteration for fleet deployment d at time
// now, scales it, and returns its desired replica count afterwards.
func (h *HPA) Evaluate(f *Fleet, d int, sample MetricSample, now time.Duration) (int, error) {
	current, _ := f.Replicas(d)
	if current == 0 {
		current = 1
	}

	var ratio float64
	switch h.Policy.Kind {
	case MetricQPSPerReplica:
		ratio = sample.OfferedQPS / float64(current) / h.Policy.Target
	case MetricLatency:
		ratio = sample.LatencySeconds / h.Policy.Target
	}

	tolerance := h.Policy.Tolerance
	if tolerance == 0 {
		tolerance = 0.1
	}
	desired := current
	if math.Abs(ratio-1) > tolerance {
		desired = int(math.Ceil(float64(current) * ratio))
	}
	// Latency is not proportional to replica count (queueing is convex):
	// the multiplicative rule would scale down straight into saturation.
	// Latency-driven deployments therefore shed at most one replica per
	// control period, and never past the utilization guard.
	if h.Policy.Kind == MetricLatency && desired < current {
		desired = max(desired, current-1)
		if h.Policy.QPSGuard > 0 && desired > 0 &&
			sample.OfferedQPS/float64(desired) > 0.85*h.Policy.QPSGuard {
			desired = current
		}
	}
	// Scale-up rate limit (Kubernetes' default scale-up policy: at most
	// double, or add 4 pods, per control period — whichever is greater).
	// Without it a saturated latency metric compounds into a runaway.
	desired = min(desired, max(current*2, current+4))
	desired = max(desired, h.Policy.MinReplicas)
	if h.Policy.MaxReplicas > 0 {
		desired = min(desired, h.Policy.MaxReplicas)
	}

	switch {
	case desired > current:
		h.lowPending = false
		if err := f.Scale(d, desired, now); err != nil {
			return current, err
		}
		return desired, nil
	case desired < current:
		// Stabilization: only scale down after the demand has stayed low
		// for the configured window, to the highest desired count seen.
		if !h.lowPending {
			h.lowPending = true
			h.lowSince = now
			h.downTo = desired
		}
		h.downTo = max(h.downTo, desired)
		if now-h.lowSince >= h.Policy.ScaleDownStabilization {
			h.lowPending = false
			if err := f.Scale(d, h.downTo, now); err != nil {
				return current, err
			}
			return h.downTo, nil
		}
		return current, nil
	default:
		h.lowPending = false
		return current, nil
	}
}
