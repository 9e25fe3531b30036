// Package partition implements the paper's core contribution: the
// utility-based embedding-table partitioning machinery. Algorithm 1 (the
// profiling-based deployment-cost estimator) lives in this file; Algorithm
// 2 (the dynamic-programming partitioner) in algorithm2.go; the baseline
// partitioning policies used for ablations in alternatives.go.
//
// All shard ranges in this package are expressed over the hotness-sorted
// table as 0-based half-open row intervals [lo, hi). The paper's 1-based
// inclusive [startID, endID] maps to lo = startID-1, hi = endID.
package partition

import (
	"fmt"
	"math"

	"repro/internal/perfmodel"
)

// CDF is the cumulative access-frequency distribution over a
// hotness-sorted table: At(j) is the fraction of all gathers landing in
// sorted rows [0, j). Both embedding.CDF (empirical) and
// workload.AnalyticCDF (closed-form) satisfy it.
type CDF interface {
	Rows() int64
	At(j int64) float64
	RangeProbability(k, j int64) float64
}

// CostModel evaluates Algorithm 1: the expected memory consumption of
// deploying one embedding shard, given the access CDF, the per-table
// pooling factor, a QPS regression and the target traffic constant.
type CostModel struct {
	// CDF is the access distribution over the sorted table.
	CDF CDF
	// PoolingPerInput is n_t: the average number of vectors gathered
	// from the whole table per input (line 8).
	PoolingPerInput float64
	// BatchSize is the number of inputs per query; the QPS regression
	// was profiled at this batch size.
	BatchSize int
	// VectorBytes is the size of one embedding vector (dim * 4).
	VectorBytes int64
	// MinMemAlloc is the per-container fixed memory (line 3).
	MinMemAlloc int64
	// TargetTraffic is the predefined traffic constant (line 9); the
	// paper uses 1000 queries/sec for the DP.
	TargetTraffic float64
	// QPS is the profiling-based regression QPS(x) (line 10).
	QPS perfmodel.QPSModel
}

// Validate checks the model is usable.
func (c *CostModel) Validate() error {
	if c.CDF == nil {
		return fmt.Errorf("partition: CostModel needs a CDF")
	}
	if c.QPS == nil {
		return fmt.Errorf("partition: CostModel needs a QPS regression")
	}
	if c.PoolingPerInput <= 0 {
		return fmt.Errorf("partition: PoolingPerInput must be positive, got %v", c.PoolingPerInput)
	}
	if c.BatchSize <= 0 {
		return fmt.Errorf("partition: BatchSize must be positive, got %d", c.BatchSize)
	}
	if c.VectorBytes <= 0 {
		return fmt.Errorf("partition: VectorBytes must be positive, got %d", c.VectorBytes)
	}
	if c.MinMemAlloc < 0 {
		return fmt.Errorf("partition: MinMemAlloc must be non-negative, got %d", c.MinMemAlloc)
	}
	if c.TargetTraffic <= 0 {
		return fmt.Errorf("partition: TargetTraffic must be positive, got %v", c.TargetTraffic)
	}
	return nil
}

// NS returns n_s for a shard spanning sorted rows [lo, hi): the expected
// number of vectors gathered from the shard per input, estimated as
// (CDF(hi) - CDF(lo)) * n_t (Algorithm 1 lines 11-12).
func (c *CostModel) NS(lo, hi int64) float64 {
	return c.CDF.RangeProbability(lo, hi) * c.PoolingPerInput
}

// EstimatedQPS returns the regression-estimated QPS of a shard spanning
// [lo, hi) (line 13).
func (c *CostModel) EstimatedQPS(lo, hi int64) float64 {
	return c.QPS.QPS(c.NS(lo, hi))
}

// Replicas returns the (fractional) number of replicas required to sustain
// TargetTraffic with the shard [lo, hi) (line 14). It is floored at 1: any
// deployed shard needs at least one replica.
func (c *CostModel) Replicas(lo, hi int64) float64 {
	qps := c.EstimatedQPS(lo, hi)
	if qps <= 0 {
		return math.Inf(1)
	}
	r := c.TargetTraffic / qps
	if r < 1 {
		return 1
	}
	return r
}

// Capacity returns the parameter bytes of a shard spanning [lo, hi)
// (line 17-18: (j - k + 1) * vector size).
func (c *CostModel) Capacity(lo, hi int64) int64 {
	if hi <= lo {
		return 0
	}
	return (hi - lo) * c.VectorBytes
}

// Cost returns the expected memory consumption (bytes) of deploying the
// shard [lo, hi): replicas * (capacity + min_mem_alloc) (lines 2-4).
func (c *CostModel) Cost(lo, hi int64) float64 {
	return c.Replicas(lo, hi) * float64(c.Capacity(lo, hi)+c.MinMemAlloc)
}

// CostFunc adapts the model to the partitioner's cost-callback interface.
func (c *CostModel) CostFunc() CostFunc { return c.Cost }

// ShardEstimate is the per-shard output of evaluating a plan under the
// cost model — the quantities the deployment module turns into container
// specs and HPA policies.
type ShardEstimate struct {
	// Lo, Hi delimit the shard's sorted-row range [Lo, Hi).
	Lo, Hi int64
	// NS is the expected vectors gathered from the shard per input.
	NS float64
	// QPS is the regression-estimated per-replica throughput (the
	// QPSmax HPA threshold for this shard, Sec. IV-D).
	QPS float64
	// Replicas is the fractional replica demand at TargetTraffic.
	Replicas float64
	// CapacityBytes is the shard's parameter footprint.
	CapacityBytes int64
	// MemoryBytes is Replicas * (CapacityBytes + MinMemAlloc).
	MemoryBytes float64
}

// Evaluate expands a plan into per-shard estimates.
func (c *CostModel) Evaluate(p Plan) ([]ShardEstimate, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	out := make([]ShardEstimate, 0, p.NumShards())
	for i := 0; i < p.NumShards(); i++ {
		lo, hi := p.ShardRange(i)
		e := ShardEstimate{
			Lo:            lo,
			Hi:            hi,
			NS:            c.NS(lo, hi),
			QPS:           c.EstimatedQPS(lo, hi),
			Replicas:      c.Replicas(lo, hi),
			CapacityBytes: c.Capacity(lo, hi),
		}
		e.MemoryBytes = e.Replicas * float64(e.CapacityBytes+c.MinMemAlloc)
		out = append(out, e)
	}
	return out, nil
}
