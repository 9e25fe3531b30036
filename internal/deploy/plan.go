// Package deploy turns a model, a hardware profile and a target QPS into a
// concrete deployment: container (shard) specs with resource requests,
// replica counts, HPA policies and cold-start estimates. It implements the
// three resource-allocation policies the paper compares: ElasticRec's
// fine-grained shard allocation, the model-wise baseline, and model-wise
// augmented with a GPU-side embedding cache (Sec. VI-E) — and, in
// fleet.go, the Kubernetes model that schedules and autoscales a plan
// (best-fit pods on auto-provisioned nodes, cold starts, HPA).
package deploy

import (
	"math"
	"time"

	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/perfmodel"
)

// Policy names a resource-allocation strategy.
type Policy string

// The compared policies.
const (
	PolicyElastic        Policy = "elasticrec"
	PolicyModelWise      Policy = "model-wise"
	PolicyModelWiseCache Policy = "model-wise-cache"
)

// ShardKind classifies a container type.
type ShardKind string

// Shard kinds.
const (
	// KindDense is ElasticRec's dense DNN shard (bottom MLP, feature
	// interaction, top MLP).
	KindDense ShardKind = "dense"
	// KindEmbedding is one ElasticRec embedding shard.
	KindEmbedding ShardKind = "embedding"
	// KindMonolith is a model-wise replica holding the entire model.
	KindMonolith ShardKind = "monolith"
)

// ShardSpec describes one deployable container type.
type ShardSpec struct {
	Name string
	Kind ShardKind
	// Table and Shard index the embedding shard within its table's plan
	// (-1 for dense/monolith).
	Table, Shard int
	// RowLo, RowHi delimit the sorted-table rows an embedding shard
	// holds (0 for dense/monolith).
	RowLo, RowHi int64
	// ParamBytes is the shard's parameter footprint.
	ParamBytes int64
	// MemBytes is ParamBytes plus the per-container minimum allocation.
	MemBytes int64
	// Resources is the pod resource request.
	Resources ResourceSpec
	// QPSPerReplica is the per-replica sustainable throughput: the
	// stress-tested QPSmax for sparse shards, the modelled throughput
	// for dense/monolith.
	QPSPerReplica float64
	// NSPerInput is the expected vectors gathered per input (embedding
	// shards only).
	NSPerInput float64
	// Replicas is the count provisioned to meet the plan's target QPS.
	Replicas int
	// ColdStart is a new replica's time-to-ready.
	ColdStart time.Duration
	// HPA is the autoscaling policy bound to the shard.
	HPA HPAPolicy
}

// TotalMemBytes returns MemBytes across the provisioned replicas.
func (s *ShardSpec) TotalMemBytes() int64 { return int64(s.Replicas) * s.MemBytes }

// Plan is a complete deployment plan for one model under one policy.
type Plan struct {
	Policy    Policy
	Model     model.Config
	Platform  perfmodel.Platform
	TargetQPS float64
	// TablePlan is the per-table partitioning (tables are identically
	// distributed, so one plan is shared by all tables). Single full
	// shard under model-wise.
	TablePlan partition.Plan
	Shards    []ShardSpec
	// AvgLatency is the modelled end-to-end query latency.
	AvgLatency time.Duration
}

// TotalMemoryBytes is the fleet-wide memory allocation (Figs. 13, 16, 20).
func (p *Plan) TotalMemoryBytes() int64 {
	var total int64
	for i := range p.Shards {
		total += p.Shards[i].TotalMemBytes()
	}
	return total
}

// TotalReplicas counts pods across all shard types.
func (p *Plan) TotalReplicas() int {
	n := 0
	for i := range p.Shards {
		n += p.Shards[i].Replicas
	}
	return n
}

// EmbeddingShards returns the embedding shard specs.
func (p *Plan) EmbeddingShards() []*ShardSpec { return p.shardsOf(KindEmbedding) }

func (p *Plan) shardsOf(kinds ...ShardKind) []*ShardSpec {
	var out []*ShardSpec
	for i := range p.Shards {
		for _, k := range kinds {
			if p.Shards[i].Kind == k {
				out = append(out, &p.Shards[i])
			}
		}
	}
	return out
}

func ceilDiv(target, qps float64) int {
	if qps <= 0 {
		return math.MaxInt32
	}
	n := int(math.Ceil(target / qps))
	if n < 1 {
		n = 1
	}
	return n
}
