package deploy

import (
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/perfmodel"
	"repro/internal/workload"
)

// Planner builds deployment plans. Zero-value knobs take the documented
// defaults so callers usually only set Profile.
type Planner struct {
	// Profile is the target hardware (required).
	Profile *perfmodel.Profile
	// CDF overrides the access distribution; nil derives the analytic
	// power-law CDF from the model's LocalityP with DefaultExponent.
	CDF partition.CDF
	// Partitioner configures Algorithm 2 (zero value = defaults).
	Partitioner partition.Partitioner
	// DPTargetTraffic is Algorithm 1's traffic constant (paper: 1000).
	DPTargetTraffic float64
	// SLA is the tail-latency agreement (paper: 400 ms); dense-shard HPA
	// targets 65% of it.
	SLA time.Duration
	// ForceShards forces the per-table shard count instead of letting
	// the DP choose (the Fig. 12d manual sweep); 0 = optimal.
	ForceShards int
}

// Defaults mirroring Sec. IV-B and Sec. V-C.
const (
	// DefaultDPTargetTraffic is the DP's traffic constant.
	DefaultDPTargetTraffic = 1000.0
	// DefaultSLA is the industry tail-latency target the paper adopts.
	DefaultSLA = 400 * time.Millisecond
	// DefaultExponent is the intra-segment power-law decay used when
	// deriving an analytic CDF from LocalityP.
	DefaultExponent = 0.9
	// HPALatencyFraction sets dense HPA targets at 65% of SLA.
	HPALatencyFraction = 0.65
	// HPAQPSHeadroom scales the throughput-centric HPA target below the
	// stress-tested QPSmax so shards scale out before saturating (running
	// a queueing stage at 100% of its measured maximum leaves no room for
	// burst absorption and pins the tail latency at the SLA).
	HPAQPSHeadroom = 0.85
)

func (pl *Planner) dpTarget() float64 {
	if pl.DPTargetTraffic <= 0 {
		return DefaultDPTargetTraffic
	}
	return pl.DPTargetTraffic
}

func (pl *Planner) sla() time.Duration {
	if pl.SLA <= 0 {
		return DefaultSLA
	}
	return pl.SLA
}

func (pl *Planner) cdfFor(cfg model.Config) (partition.CDF, error) {
	if pl.CDF != nil {
		return pl.CDF, nil
	}
	s, err := workload.NewPowerLawSampler(cfg.RowsPerTable, cfg.LocalityP, DefaultExponent)
	if err != nil {
		return nil, fmt.Errorf("deploy: deriving CDF: %w", err)
	}
	return s.Analytic(), nil
}

// CostModel assembles the Algorithm 1 estimator for cfg: it runs the
// profiling sweep, fits the QPS regression and wires the CDF. Exposed so
// experiments (Fig. 12) can evaluate partitioning costs directly.
func (pl *Planner) CostModel(cfg model.Config) (*partition.CostModel, error) {
	if err := pl.check(cfg); err != nil {
		return nil, err
	}
	cdf, err := pl.cdfFor(cfg)
	if err != nil {
		return nil, err
	}
	return pl.costModel(cfg, cdf)
}

// check rejects a model or planner no plan can be built for.
func (pl *Planner) check(cfg model.Config) error {
	if pl.Profile == nil {
		return fmt.Errorf("deploy: planner needs a hardware profile")
	}
	return cfg.Validate()
}

// costModel is Algorithm 1's estimator for one of cfg's tables whose
// accesses follow cdf.
func (pl *Planner) costModel(cfg model.Config, cdf partition.CDF) (*partition.CostModel, error) {
	qps, err := pl.Profile.BuildQPSModel(cfg.BatchSize, cfg.EmbeddingDim, cfg.Pooling)
	if err != nil {
		return nil, fmt.Errorf("deploy: QPS regression: %w", err)
	}
	cm := &partition.CostModel{
		CDF:             cdf,
		PoolingPerInput: float64(cfg.Pooling),
		BatchSize:       cfg.BatchSize,
		VectorBytes:     int64(cfg.EmbeddingDim) * 4,
		MinMemAlloc:     pl.Profile.MinMemAlloc,
		TargetTraffic:   pl.dpTarget(),
		QPS:             qps,
	}
	if err := cm.Validate(); err != nil {
		return nil, err
	}
	return cm, nil
}

// PartitionTable runs Algorithm 2 for one of cfg's tables and returns the
// chosen plan (identical for all tables, which are i.i.d. in the paper's
// workloads; Sec. VI-A: "ElasticRec applies its table partitioning
// algorithm separately for each individual table").
func (pl *Planner) PartitionTable(cfg model.Config) (partition.Plan, *partition.CostModel, error) {
	cm, err := pl.CostModel(cfg)
	if err != nil {
		return partition.Plan{}, nil, err
	}
	plan, err := pl.partition(cfg, cm)
	return plan, cm, err
}

// partition runs Algorithm 2 over one table under cm, or the fixed-count
// split when ForceShards is set.
func (pl *Planner) partition(cfg model.Config, cm *partition.CostModel) (partition.Plan, error) {
	if pl.ForceShards > 0 {
		return pl.Partitioner.PartitionFixedShards(cfg.RowsPerTable, pl.ForceShards, cm.CostFunc())
	}
	return pl.Partitioner.Partition(cfg.RowsPerTable, cm.CostFunc())
}

// denseResources sizes the dense shard's pod request: GPU-centric on
// CPU-GPU platforms; on CPU-only, the core request grows with the model's
// dense compute intensity (heavier MLPs keep more cores busy per query).
func (pl *Planner) denseResources(cfg model.Config) ResourceSpec {
	p := pl.Profile
	mem := cfg.DenseBytes() + p.MinMemAlloc
	if p.Platform == perfmodel.CPUGPU {
		return ResourceSpec{CPUMilli: 8000, MemBytes: mem, GPUs: 1}
	}
	cores := min(int64(12+6*(cfg.DenseFLOPsPerQuery()/40_000_000)), int64(p.Node.Cores))
	return ResourceSpec{CPUMilli: cores * 1000, MemBytes: mem}
}

// monolithResources sizes a model-wise replica: it owns the node's
// execution resources (the whole model is one serving process using all
// cores, plus the GPU on CPU-GPU nodes), which is why model-wise scaling
// is server-granular.
func (pl *Planner) monolithResources(cfg model.Config) ResourceSpec {
	p := pl.Profile
	mem := cfg.DenseBytes() + cfg.SparseBytes() + p.MinMemAlloc
	cores := int64(p.Node.Cores) * 1000 * 3 / 4
	return ResourceSpec{CPUMilli: cores, MemBytes: mem, GPUs: p.Node.GPUs}
}

// embeddingResources sizes one embedding-shard pod: a half-core
// CPU-centric container holding its row range (gathers are memory-bound,
// not compute-bound).
func (pl *Planner) embeddingResources(paramBytes int64) ResourceSpec {
	return ResourceSpec{CPUMilli: 500, MemBytes: paramBytes + pl.Profile.MinMemAlloc}
}

// PlanElastic builds the ElasticRec deployment: one dense shard type plus
// the DP-chosen embedding shards per table, each independently replicated
// to meet targetQPS. Every table shares one partitioning.
func (pl *Planner) PlanElastic(cfg model.Config, targetQPS float64) (*Plan, error) {
	if targetQPS <= 0 {
		return nil, fmt.Errorf("deploy: target QPS must be positive, got %v", targetQPS)
	}
	tablePlan, cm, err := pl.PartitionTable(cfg)
	if err != nil {
		return nil, err
	}
	tables := make([]tablePart, cfg.NumTables)
	for t := range tables {
		tables[t] = tablePart{tablePlan, cm}
	}
	return pl.elasticPlan(cfg, targetQPS, tables)
}

// tablePart is one table's partitioning and the cost model it was chosen
// under.
type tablePart struct {
	plan partition.Plan
	cm   *partition.CostModel
}

// elasticPlan builds an ElasticRec plan from each table's partitioning:
// the dense shard, then table t's embedding shards from tables[t], each
// shard's replicas, HPA and cold start sized from its Algorithm 1
// estimate.
func (pl *Planner) elasticPlan(cfg model.Config, targetQPS float64, tables []tablePart) (*Plan, error) {
	p := pl.Profile
	denseQPS := p.DenseQPS(cfg)
	plan := &Plan{
		Policy:    PolicyElastic,
		Model:     cfg,
		Platform:  p.Platform,
		TargetQPS: targetQPS,
		TablePlan: tables[0].plan,
		Shards: []ShardSpec{{
			Name:          fmt.Sprintf("%s-dense", cfg.Name),
			Kind:          KindDense,
			Table:         -1,
			Shard:         -1,
			ParamBytes:    cfg.DenseBytes(),
			MemBytes:      cfg.DenseBytes() + p.MinMemAlloc,
			Resources:     pl.denseResources(cfg),
			QPSPerReplica: denseQPS,
			Replicas:      ceilDiv(targetQPS, denseQPS),
			ColdStart:     p.ColdStart(cfg.DenseBytes()),
			HPA: HPAPolicy{
				Kind:        MetricLatency,
				Target:      pl.sla().Seconds() * HPALatencyFraction,
				MinReplicas: 1,
				QPSGuard:    denseQPS,
			},
		}},
	}

	var maxShardLat time.Duration
	contacted := 0
	for t, tp := range tables {
		ests, err := tp.cm.Evaluate(tp.plan)
		if err != nil {
			return nil, fmt.Errorf("deploy: evaluating table %d: %w", t, err)
		}
		contacted += len(ests)
		for s, e := range ests {
			maxShardLat = max(maxShardLat, p.ShardLatency(cfg.BatchSize, e.NS, cfg.EmbeddingDim))
			plan.Shards = append(plan.Shards, ShardSpec{
				Name:          fmt.Sprintf("%s-t%d-s%d", cfg.Name, t, s),
				Kind:          KindEmbedding,
				Table:         t,
				Shard:         s,
				RowLo:         e.Lo,
				RowHi:         e.Hi,
				ParamBytes:    e.CapacityBytes,
				MemBytes:      e.CapacityBytes + p.MinMemAlloc,
				Resources:     pl.embeddingResources(e.CapacityBytes),
				QPSPerReplica: e.QPS,
				NSPerInput:    e.NS,
				Replicas:      ceilDiv(targetQPS, e.QPS),
				ColdStart:     p.ColdStart(e.CapacityBytes),
				HPA: HPAPolicy{
					Kind:        MetricQPSPerReplica,
					Target:      e.QPS * HPAQPSHeadroom, // below stress-tested QPSmax
					MinReplicas: 1,
					Tolerance:   0.05,
				},
			})
		}
	}
	plan.AvgLatency = p.ElasticLatency(cfg, contacted, maxShardLat)
	return plan, nil
}

// PlanModelWise builds the baseline: one monolithic container type
// replicated until the pipeline's bottleneck stage sustains targetQPS.
func (pl *Planner) PlanModelWise(cfg model.Config, targetQPS float64) (*Plan, error) {
	return pl.planMonolithic(cfg, targetQPS, PolicyModelWise, 1.0)
}

// GPUCacheLatencyScale is the Sec. VI-E conservative model: a GPU-resident
// embedding cache capturing 90% of gathers cuts the embedding layer's
// average latency by 47%.
const GPUCacheLatencyScale = 0.53

// PlanModelWiseCache builds the model-wise + GPU embedding cache baseline
// (CPU-GPU platforms only): sparse-stage latency is scaled by
// GPUCacheLatencyScale, raising per-replica QPS and thus lowering the
// replica count, while each replica still allocates the full tables in
// CPU memory.
func (pl *Planner) PlanModelWiseCache(cfg model.Config, targetQPS float64) (*Plan, error) {
	if pl.Profile != nil && pl.Profile.Platform != perfmodel.CPUGPU {
		return nil, fmt.Errorf("deploy: GPU embedding cache requires the CPU-GPU platform")
	}
	return pl.planMonolithic(cfg, targetQPS, PolicyModelWiseCache, GPUCacheLatencyScale)
}

func (pl *Planner) planMonolithic(cfg model.Config, targetQPS float64, policy Policy, sparseLatScale float64) (*Plan, error) {
	if err := pl.check(cfg); err != nil {
		return nil, err
	}
	if targetQPS <= 0 {
		return nil, fmt.Errorf("deploy: target QPS must be positive, got %v", targetQPS)
	}
	p := pl.Profile
	sparseLat := time.Duration(float64(p.MonoSparseLatency(cfg)) * sparseLatScale)
	denseLat := p.DenseLatency(cfg)
	sparseQPS := float64(time.Second) / float64(sparseLat)
	denseQPS := float64(time.Second) / float64(denseLat)
	qps := sparseQPS
	if denseQPS < qps {
		qps = denseQPS
	}
	paramBytes := cfg.DenseBytes() + cfg.SparseBytes()
	spec := ShardSpec{
		Name:          fmt.Sprintf("%s-%s", cfg.Name, policy),
		Kind:          KindMonolith,
		Table:         -1,
		Shard:         -1,
		RowHi:         cfg.RowsPerTable,
		ParamBytes:    paramBytes,
		MemBytes:      paramBytes + p.MinMemAlloc,
		Resources:     pl.monolithResources(cfg),
		QPSPerReplica: qps,
		Replicas:      ceilDiv(targetQPS, qps),
		ColdStart:     p.ColdStart(paramBytes),
		HPA: HPAPolicy{
			Kind:        MetricQPSPerReplica,
			Target:      qps * HPAQPSHeadroom,
			MinReplicas: 1,
		},
	}
	return &Plan{
		Policy:     policy,
		Model:      cfg,
		Platform:   p.Platform,
		TargetQPS:  targetQPS,
		TablePlan:  partition.SingleShard(cfg.RowsPerTable),
		Shards:     []ShardSpec{spec},
		AvgLatency: denseLat + sparseLat,
	}, nil
}

// Plan dispatches on policy.
func (pl *Planner) Plan(policy Policy, cfg model.Config, targetQPS float64) (*Plan, error) {
	switch policy {
	case PolicyElastic:
		return pl.PlanElastic(cfg, targetQPS)
	case PolicyModelWise:
		return pl.PlanModelWise(cfg, targetQPS)
	case PolicyModelWiseCache:
		return pl.PlanModelWiseCache(cfg, targetQPS)
	default:
		return nil, fmt.Errorf("deploy: unknown policy %q", policy)
	}
}
