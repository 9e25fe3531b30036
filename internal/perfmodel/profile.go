// Package perfmodel is the analytic stand-in for the paper's physical
// testbed (Sec. V-A): an 11-node dual-socket Xeon 6242 cluster (CPU-only)
// and a 20-node GKE n1-standard-32 + NVIDIA T4 cluster (CPU-GPU). It
// provides per-query latency estimates for dense MLP execution, monolithic
// embedding-layer execution, partitioned embedding-shard execution, RPC
// transfer, and pod cold-start — everything the deployment planners and the
// discrete-event simulation need.
//
// Constants are calibrated once (see DESIGN.md "Calibration notes") so the
// paper's relative behaviour holds: the dense/sparse QPS mismatch of
// Fig. 5, the ~67%/19% dense latency shares of Fig. 3(b), the reciprocal
// gather-QPS curve of Fig. 9, and the model-wise replica counts of Fig. 14.
package perfmodel

import (
	"fmt"
	"time"

	"repro/internal/model"
)

// Platform selects between the paper's two system architectures.
type Platform string

// The two platforms evaluated in Sec. VI.
const (
	CPUOnly Platform = "cpu-only"
	CPUGPU  Platform = "cpu-gpu"
)

// NodeSpec describes one physical server of the cluster.
type NodeSpec struct {
	Name     string
	Cores    int   // logical cores available for pods
	MemBytes int64 // DRAM capacity
	GPUs     int   // discrete accelerators
	// NetBytesPerSec is the NIC bandwidth available to RPC traffic.
	NetBytesPerSec float64
}

// Profile is a calibrated hardware profile for one platform.
type Profile struct {
	Platform Platform
	Node     NodeSpec

	// Dense executor (CPU path): per-query latency is
	// DenseOverhead + FLOPs/DenseRate.
	DenseOverhead time.Duration
	DenseRate     float64 // effective FLOP/s of a dense-shard container

	// Dense executor (GPU path, CPU-GPU platform only).
	GPUDenseOverhead time.Duration // PCIe transfer + kernel launch
	GPUDenseRate     float64       // effective FLOP/s on the accelerator

	// Embedding gather: each row gather costs
	// PerLookupFixed + rowBytes/RowGatherBW (random-access DRAM reads
	// through the framework's EmbeddingBag path).
	PerLookupFixed time.Duration
	RowGatherBW    float64 // bytes/sec streamed per gather pipeline

	// ShardOverhead is the fixed per-query cost of one embedding-shard
	// container (request handling, bucket reassembly).
	ShardOverhead time.Duration
	// MonoSparseOverhead is the fixed per-query cost of the monolithic
	// embedding layer (all tables dispatched in parallel across cores).
	MonoSparseOverhead time.Duration
	// EffMemBW is the node-level effective memory bandwidth shared by
	// concurrent per-table gather pipelines; it adds a contention term
	// proportional to the total bytes a query reads.
	EffMemBW float64

	// RPC: one call costs RPCBase + bytes/Node.NetBytesPerSec; a dense
	// shard contacting S embedding shards additionally pays
	// FanoutPerShard per contacted shard (bucketization, serialisation,
	// connection multiplexing).
	RPCBase        time.Duration
	FanoutPerShard time.Duration

	// MinMemAlloc is the minimally required memory of any container
	// (code, buffers — Algorithm 1 line 3).
	MinMemAlloc int64

	// Cold start: a new pod becomes ready after ColdStartBase +
	// parameterBytes/ModelLoadBW (image pull amortised, parameter load
	// dominated by storage bandwidth).
	ColdStartBase time.Duration
	ModelLoadBW   float64 // bytes/sec parameter loading
}

// CPUOnlyProfile models one compute node of the paper's CPU-only cluster:
// dual-socket Xeon 6242 (64 logical cores), 384 GB DRAM, 10 Gbps network.
func CPUOnlyProfile() *Profile {
	return &Profile{
		Platform: CPUOnly,
		Node: NodeSpec{
			Name:           "xeon6242-dual",
			Cores:          64,
			MemBytes:       384 << 30,
			GPUs:           0,
			NetBytesPerSec: 10e9 / 8,
		},
		DenseOverhead:      35 * time.Millisecond,
		DenseRate:          0.8e9,
		GPUDenseOverhead:   0,
		GPUDenseRate:       0,
		PerLookupFixed:     1 * time.Microsecond,
		RowGatherBW:        32e6,
		ShardOverhead:      2 * time.Millisecond,
		MonoSparseOverhead: 10 * time.Millisecond,
		EffMemBW:           1.5e9,
		RPCBase:            1 * time.Millisecond,
		FanoutPerShard:     1 * time.Millisecond,
		MinMemAlloc:        512 << 20,
		ColdStartBase:      8 * time.Second,
		ModelLoadBW:        1 << 30,
	}
}

// CPUGPUProfile models one node of the paper's GKE cluster:
// n1-standard-32 (32 vCPU, 120 GB) with one NVIDIA T4, 32 Gbps network.
func CPUGPUProfile() *Profile {
	return &Profile{
		Platform: CPUGPU,
		Node: NodeSpec{
			Name:           "n1-standard-32-t4",
			Cores:          32,
			MemBytes:       120 << 30,
			GPUs:           1,
			NetBytesPerSec: 32e9 / 8,
		},
		DenseOverhead:      35 * time.Millisecond,
		DenseRate:          0.8e9,
		GPUDenseOverhead:   4 * time.Millisecond,
		GPUDenseRate:       30e9,
		PerLookupFixed:     1 * time.Microsecond,
		RowGatherBW:        32e6,
		ShardOverhead:      2 * time.Millisecond,
		MonoSparseOverhead: 10 * time.Millisecond,
		EffMemBW:           1.5e9,
		RPCBase:            800 * time.Microsecond,
		FanoutPerShard:     1 * time.Millisecond,
		MinMemAlloc:        512 << 20,
		ColdStartBase:      8 * time.Second,
		ModelLoadBW:        1 << 30,
	}
}

// ProfileFor returns the default profile for a platform.
func ProfileFor(p Platform) (*Profile, error) {
	switch p {
	case CPUOnly:
		return CPUOnlyProfile(), nil
	case CPUGPU:
		return CPUGPUProfile(), nil
	default:
		return nil, fmt.Errorf("perfmodel: unknown platform %q", p)
	}
}

// PerLookup returns the cost of gathering one embedding row of the given
// dimension (Fig. 9's dimension sensitivity: larger rows stream more bytes
// per gather).
func (p *Profile) PerLookup(dim int) time.Duration {
	bytes := float64(dim * 4)
	return p.PerLookupFixed + time.Duration(bytes/p.RowGatherBW*float64(time.Second))
}

// DenseLatency returns the per-query latency of the dense DNN layers for
// cfg on this platform (GPU path when available — Sec. IV-A: CPU-GPU
// systems service dense shards with GPU-centric containers).
func (p *Profile) DenseLatency(cfg model.Config) time.Duration {
	flops := float64(cfg.DenseFLOPsPerQuery())
	if p.Platform == CPUGPU && p.GPUDenseRate > 0 {
		return p.GPUDenseOverhead + time.Duration(flops/p.GPUDenseRate*float64(time.Second))
	}
	return p.DenseOverhead + time.Duration(flops/p.DenseRate*float64(time.Second))
}

// DenseQPS returns the sustainable throughput of one dense-shard replica.
func (p *Profile) DenseQPS(cfg model.Config) float64 {
	return float64(time.Second) / float64(p.DenseLatency(cfg))
}

// MonoSparseLatency returns the per-query latency of the full embedding
// layer inside a monolithic server: per-table gather pipelines run in
// parallel across cores (the per-table term), plus a node-bandwidth
// contention term over the total bytes read.
func (p *Profile) MonoSparseLatency(cfg model.Config) time.Duration {
	perTableLookups := float64(cfg.BatchSize) * float64(cfg.Pooling)
	gather := time.Duration(perTableLookups * float64(p.PerLookup(cfg.EmbeddingDim)))
	contention := time.Duration(float64(cfg.SparseBytesReadPerQuery()) / p.EffMemBW * float64(time.Second))
	return p.MonoSparseOverhead + gather + contention
}

// MonoSparseQPS returns the sustainable embedding-layer throughput of one
// monolithic replica.
func (p *Profile) MonoSparseQPS(cfg model.Config) float64 {
	return float64(time.Second) / float64(p.MonoSparseLatency(cfg))
}

// ShardLatency returns the per-query latency of one embedding-shard
// container that gathers nsPerInput vectors per input (n_s in Algorithm 1)
// of the given dimension, for queries of batchSize inputs.
func (p *Profile) ShardLatency(batchSize int, nsPerInput float64, dim int) time.Duration {
	lookups := float64(batchSize) * nsPerInput
	gather := time.Duration(lookups * float64(p.PerLookup(dim)))
	bytes := lookups * float64(dim*4)
	contention := time.Duration(bytes / p.EffMemBW * float64(time.Second))
	return p.ShardOverhead + gather + contention
}

// ShardQPS returns the sustainable throughput of one embedding-shard
// replica gathering nsPerInput vectors per input.
func (p *Profile) ShardQPS(batchSize int, nsPerInput float64, dim int) float64 {
	return float64(time.Second) / float64(p.ShardLatency(batchSize, nsPerInput, dim))
}

// RPCLatency returns the cost of one RPC carrying payload bytes.
func (p *Profile) RPCLatency(payloadBytes int64) time.Duration {
	return p.RPCBase + time.Duration(float64(payloadBytes)/p.Node.NetBytesPerSec*float64(time.Second))
}

// ElasticLatency returns the end-to-end latency of a sharded query: dense
// compute plus the slowest embedding shard (fan-out is concurrent) plus
// request/response RPCs and the per-shard fan-out cost, with
// contactedShards the number of embedding shards the dense shard calls and
// maxShardLatency their slowest per-query latency.
func (p *Profile) ElasticLatency(cfg model.Config, contactedShards int, maxShardLatency time.Duration) time.Duration {
	// Request: index/offset arrays; response: pooled vectors.
	reqBytes := int64(cfg.BatchSize) * int64(cfg.Pooling) * 8
	respBytes := int64(cfg.BatchSize) * int64(cfg.EmbeddingDim) * 4
	rpc := p.RPCLatency(reqBytes) + p.RPCLatency(respBytes)
	fanout := time.Duration(contactedShards) * p.FanoutPerShard
	return p.DenseLatency(cfg) + maxShardLatency + rpc + fanout
}

// ColdStart returns how long a new pod takes to become ready given its
// parameter footprint (Sec. VI-D: model-wise replicas respond slowly
// because loading the full parameters takes long).
func (p *Profile) ColdStart(paramBytes int64) time.Duration {
	return p.ColdStartBase + time.Duration(float64(paramBytes)/p.ModelLoadBW*float64(time.Second))
}
