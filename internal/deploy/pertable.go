package deploy

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/partition"
)

// The paper's workloads use i.i.d. tables, so PlanElastic partitions once
// and reuses the plan. Production models have heterogeneous tables — some
// near-uniform, some hot — so this file adds per-table planning: each
// table gets its own CDF, its own Algorithm 2 run and its own shard specs,
// exactly as Sec. VI-A describes ("ElasticRec applies its table
// partitioning algorithm separately for each individual table").

// PlanElasticPerTable builds an ElasticRec plan where table t is
// partitioned against cdfs[t]. len(cdfs) must equal cfg.NumTables and each
// CDF must cover cfg.RowsPerTable rows.
func (pl *Planner) PlanElasticPerTable(cfg model.Config, targetQPS float64, cdfs []partition.CDF) (*Plan, error) {
	if err := pl.check(cfg); err != nil {
		return nil, err
	}
	if targetQPS <= 0 {
		return nil, fmt.Errorf("deploy: target QPS must be positive, got %v", targetQPS)
	}
	if len(cdfs) != cfg.NumTables {
		return nil, fmt.Errorf("deploy: %d CDFs for %d tables", len(cdfs), cfg.NumTables)
	}
	tables := make([]tablePart, cfg.NumTables)
	for t, cdf := range cdfs {
		if cdf == nil {
			return nil, fmt.Errorf("deploy: nil CDF for table %d", t)
		}
		if cdf.Rows() != cfg.RowsPerTable {
			return nil, fmt.Errorf("deploy: table %d CDF covers %d rows, want %d",
				t, cdf.Rows(), cfg.RowsPerTable)
		}
		cm, err := pl.costModel(cfg, cdf)
		if err != nil {
			return nil, fmt.Errorf("deploy: table %d: %w", t, err)
		}
		tablePlan, err := pl.partition(cfg, cm)
		if err != nil {
			return nil, fmt.Errorf("deploy: partitioning table %d: %w", t, err)
		}
		tables[t] = tablePart{tablePlan, cm}
	}
	return pl.elasticPlan(cfg, targetQPS, tables)
}

// TableBoundaries extracts the per-table shard boundaries from a plan in
// the layout serving.BuildElastic-style consumers need: boundaries[t] is
// table t's ascending boundary list. Works for both homogeneous and
// per-table plans.
func (p *Plan) TableBoundaries() ([][]int64, error) {
	out := make([][]int64, p.Model.NumTables)
	for _, s := range p.EmbeddingShards() {
		if s.Table < 0 || s.Table >= len(out) {
			return nil, fmt.Errorf("deploy: shard %s references table %d", s.Name, s.Table)
		}
		out[s.Table] = append(out[s.Table], s.RowHi)
	}
	for t, b := range out {
		if p.Policy == PolicyElastic && len(b) == 0 {
			return nil, fmt.Errorf("deploy: table %d has no shards", t)
		}
		for i := 1; i < len(b); i++ {
			if b[i] <= b[i-1] {
				return nil, fmt.Errorf("deploy: table %d boundaries not increasing: %v", t, b)
			}
		}
	}
	return out, nil
}
