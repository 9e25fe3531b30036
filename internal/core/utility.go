package core

import (
	"fmt"

	"repro/internal/bucketize"
	"repro/internal/deploy"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/perfmodel"
	"repro/internal/workload"
)

// UtilityQueries is the measurement window of Figs. 14/17: memory utility
// is the fraction of a shard's embeddings touched while servicing the
// first 1,000 queries.
const UtilityQueries = 1000

// ShardUtility is one row of the Fig. 14/17 output.
type ShardUtility struct {
	Policy   deploy.Policy
	Shard    string // S1, S2, ...
	Rows     int64
	Utility  float64
	Replicas int
}

// MeasureUtility simulates the first UtilityQueries queries against table
// 0 (the paper reports the first table of each workload) and returns the
// per-shard memory utility and replica counts for both policies.
func MeasureUtility(platform perfmodel.Platform, cfg model.Config, seed uint64) ([]ShardUtility, error) {
	sys, err := NewSystem(platform)
	if err != nil {
		return nil, err
	}
	cmp, err := sys.Compare(cfg, DefaultTarget(platform))
	if err != nil {
		return nil, err
	}

	// Draw the sorted-space ranks the first 1,000 queries touch.
	sampler, err := workload.NewPowerLawSampler(cfg.RowsPerTable, cfg.LocalityP, deploy.DefaultExponent)
	if err != nil {
		return nil, err
	}
	rng := workload.NewRNG(seed)
	touched := metrics.NewUtilityTracker(cfg.RowsPerTable)
	perRow := make([]int64, 0, UtilityQueries*cfg.BatchSize*cfg.Pooling)
	for q := 0; q < UtilityQueries; q++ {
		for i := 0; i < cfg.BatchSize*cfg.Pooling; i++ {
			r := sampler.SampleRank(rng)
			touched.Touch(r)
			perRow = append(perRow, r)
		}
	}

	var out []ShardUtility
	// Model-wise: a single shard holding the entire table.
	out = append(out, ShardUtility{
		Policy:   deploy.PolicyModelWise,
		Shard:    "S1",
		Rows:     cfg.RowsPerTable,
		Utility:  touched.Utility(),
		Replicas: cmp.ModelWise.Shards[0].Replicas,
	})

	// ElasticRec: per-shard distinct counts over the same draw.
	plan := cmp.Elastic.TablePlan
	counts := make([]*metrics.UtilityTracker, plan.NumShards())
	for s := range counts {
		lo, hi := plan.ShardRange(s)
		counts[s] = metrics.NewUtilityTracker(hi - lo)
	}
	for _, r := range perRow {
		// SampleRank < RowsPerTable == the last boundary, so s is a valid
		// shard. The panic below on a row past it is a relied-on plan
		// invariant, not a missing clamp.
		s := bucketize.ShardOf(r, plan.Boundaries)
		lo, _ := plan.ShardRange(s)
		counts[s].Touch(r - lo)
	}
	// Replica counts from the plan's table-0 embedding shards.
	replicas := make(map[int]int)
	for _, spec := range cmp.Elastic.EmbeddingShards() {
		if spec.Table == 0 {
			replicas[spec.Shard] = spec.Replicas
		}
	}
	for s := 0; s < plan.NumShards(); s++ {
		lo, hi := plan.ShardRange(s)
		out = append(out, ShardUtility{
			Policy:   deploy.PolicyElastic,
			Shard:    fmt.Sprintf("S%d", s+1),
			Rows:     hi - lo,
			Utility:  counts[s].Utility(),
			Replicas: replicas[s],
		})
	}
	return out, nil
}

// utilityFigure is the shared body of Figs. 14 and 17.
func utilityFigure(platform perfmodel.Platform, title string) (*Table, error) {
	t := &Table{
		Title:  title,
		Header: []string{"model", "policy", "shard", "rows", "memory utility", "replicas"},
	}
	for _, cfg := range model.StateOfTheArt() {
		rows, err := MeasureUtility(platform, cfg, 7)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			t.Rows = append(t.Rows, []string{
				cfg.Name, string(r.Policy), r.Shard,
				fmt.Sprintf("%d", r.Rows), pct(r.Utility), fmt.Sprintf("%d", r.Replicas),
			})
		}
	}
	t.Notes = append(t.Notes,
		"utility = distinct embeddings touched in first 1,000 queries / shard rows (table 0); paper: model-wise averages ~6%, hotter shards show higher utility and more replicas")
	return t, nil
}

// Figure14 reproduces Fig. 14 (CPU-only memory utility and replicas).
func Figure14() (*Table, error) {
	return utilityFigure(perfmodel.CPUOnly, "Figure 14: memory utility and shard replicas (CPU-only @100 QPS)")
}

// Figure17 reproduces Fig. 17 (CPU-GPU memory utility and replicas).
func Figure17() (*Table, error) {
	return utilityFigure(perfmodel.CPUGPU, "Figure 17: memory utility and shard replicas (CPU-GPU @200 QPS)")
}
