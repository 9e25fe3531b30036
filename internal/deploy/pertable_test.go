package deploy

import (
	"reflect"
	"testing"

	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/perfmodel"
	"repro/internal/workload"
)

// heteroCDFs builds CDFs with different localities per table: hot tables
// first, near-uniform last.
func heteroCDFs(t *testing.T, cfg model.Config) []partition.CDF {
	t.Helper()
	cdfs := make([]partition.CDF, cfg.NumTables)
	for i := range cdfs {
		p := 0.95 - 0.8*float64(i)/float64(cfg.NumTables)
		s, err := workload.NewPowerLawSampler(cfg.RowsPerTable, p, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		cdfs[i] = s.Analytic()
	}
	return cdfs
}

func TestPlanElasticPerTable(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment: per-table paper-scale planning (~4s)")
	}
	pl := planner(t, perfmodel.CPUOnly)
	cfg := model.RM1()
	cdfs := heteroCDFs(t, cfg)
	plan, err := pl.PlanElasticPerTable(cfg, 100, cdfs)
	if err != nil {
		t.Fatal(err)
	}
	// Every table must be fully covered by its own shard set.
	boundaries, err := plan.TableBoundaries()
	if err != nil {
		t.Fatal(err)
	}
	if len(boundaries) != cfg.NumTables {
		t.Fatalf("tables = %d", len(boundaries))
	}
	shardCounts := map[int]int{}
	for tb, b := range boundaries {
		if b[len(b)-1] != cfg.RowsPerTable {
			t.Fatalf("table %d boundaries end at %d", tb, b[len(b)-1])
		}
		shardCounts[len(b)]++
	}
	// Heterogeneous localities should produce at least two distinct
	// per-table shard counts (hot tables split more aggressively).
	if len(shardCounts) < 2 {
		t.Fatalf("per-table plans are uniform (%v) despite heterogeneous CDFs", shardCounts)
	}
	// Still beats model-wise on memory.
	mw, err := pl.PlanModelWise(cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalMemoryBytes() >= mw.TotalMemoryBytes() {
		t.Fatal("per-table elastic plan must beat model-wise")
	}
}

// One CDF repeated for every table must give exactly the homogeneous plan:
// both planners build their shard specs the same way.
func TestPlanElasticPerTableMatchesHomogeneous(t *testing.T) {
	cfg := model.RM1()
	cfg.NumTables = 3
	s, err := workload.NewPowerLawSampler(cfg.RowsPerTable, cfg.LocalityP, DefaultExponent)
	if err != nil {
		t.Fatal(err)
	}
	cdf := s.Analytic()
	// A 32-group DP grid keeps the four partitionings cheap.
	grid := partition.Partitioner{Granularity: cfg.RowsPerTable / 32}
	pl := planner(t, perfmodel.CPUOnly)
	pl.Partitioner, pl.CDF = grid, cdf
	want, err := pl.PlanElastic(cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	if want.TablePlan.NumShards() < 2 {
		t.Fatalf("homogeneous plan has %d shard(s); the comparison needs a split table", want.TablePlan.NumShards())
	}
	perTable := planner(t, perfmodel.CPUOnly)
	perTable.Partitioner = grid
	got, err := perTable.PlanElasticPerTable(cfg, 100, []partition.CDF{cdf, cdf, cdf})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("per-table plan with one CDF differs from the homogeneous plan:\n got %+v\nwant %+v", got, want)
	}
}

func TestPlanElasticPerTableValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment: per-table paper-scale planning (~1s)")
	}
	pl := planner(t, perfmodel.CPUOnly)
	cfg := model.RM1()
	if _, err := pl.PlanElasticPerTable(cfg, 100, nil); err == nil {
		t.Fatal("want CDF arity error")
	}
	cdfs := heteroCDFs(t, cfg)
	cdfs[3] = nil
	if _, err := pl.PlanElasticPerTable(cfg, 100, cdfs); err == nil {
		t.Fatal("want nil-CDF error")
	}
	cdfs = heteroCDFs(t, cfg)
	small, err := workload.NewPowerLawSampler(10, 0.9, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	cdfs[0] = small.Analytic()
	if _, err := pl.PlanElasticPerTable(cfg, 100, cdfs); err == nil {
		t.Fatal("want row-count mismatch error")
	}
	if _, err := pl.PlanElasticPerTable(cfg, 0, heteroCDFs(t, cfg)); err == nil {
		t.Fatal("want target error")
	}
	empty := &Planner{}
	if _, err := empty.PlanElasticPerTable(cfg, 100, nil); err == nil {
		t.Fatal("want missing-profile error")
	}
}

func TestTableBoundariesFromHomogeneousPlan(t *testing.T) {
	pl := planner(t, perfmodel.CPUOnly)
	plan, err := pl.PlanElastic(model.RM1(), 100)
	if err != nil {
		t.Fatal(err)
	}
	boundaries, err := plan.TableBoundaries()
	if err != nil {
		t.Fatal(err)
	}
	for tb := range boundaries {
		if len(boundaries[tb]) != plan.TablePlan.NumShards() {
			t.Fatalf("table %d has %d boundaries, want %d",
				tb, len(boundaries[tb]), plan.TablePlan.NumShards())
		}
	}
}
