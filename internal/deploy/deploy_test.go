package deploy

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/model"
	"repro/internal/perfmodel"
)

func planner(t *testing.T, plat perfmodel.Platform) *Planner {
	t.Helper()
	prof, err := perfmodel.ProfileFor(plat)
	if err != nil {
		t.Fatal(err)
	}
	return &Planner{Profile: prof}
}

func TestPlanModelWiseStructure(t *testing.T) {
	pl := planner(t, perfmodel.CPUOnly)
	cfg := model.RM1()
	plan, err := pl.PlanModelWise(cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Policy != PolicyModelWise || len(plan.Shards) != 1 {
		t.Fatalf("plan = %+v", plan)
	}
	s := plan.Shards[0]
	if s.Kind != KindMonolith {
		t.Fatalf("kind = %v", s.Kind)
	}
	// Each replica holds the full model: 25.6 GB of tables + dense.
	if s.ParamBytes != cfg.DenseBytes()+cfg.SparseBytes() {
		t.Fatalf("ParamBytes = %d", s.ParamBytes)
	}
	// Replicas cover the target at the bottleneck QPS.
	bottleneck := min(pl.Profile.DenseQPS(cfg), pl.Profile.MonoSparseQPS(cfg))
	if float64(s.Replicas)*bottleneck < 100 {
		t.Fatalf("replicas %d at %v QPS cannot sustain 100", s.Replicas, bottleneck)
	}
	if float64(s.Replicas-1)*bottleneck >= 100 {
		t.Fatalf("replicas %d overprovisioned", s.Replicas)
	}
	// Plan-wide memory = replicas x (params + minmem).
	want := int64(s.Replicas) * (s.ParamBytes + pl.Profile.MinMemAlloc)
	if plan.TotalMemoryBytes() != want {
		t.Fatalf("TotalMemoryBytes = %d, want %d", plan.TotalMemoryBytes(), want)
	}
}

func TestPlanElasticStructure(t *testing.T) {
	pl := planner(t, perfmodel.CPUOnly)
	cfg := model.RM1()
	plan, err := pl.PlanElastic(cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Policy != PolicyElastic {
		t.Fatalf("policy = %v", plan.Policy)
	}
	dense := plan.shardsOf(KindDense, KindMonolith)
	if len(dense) != 1 || dense[0].Kind != KindDense {
		t.Fatalf("dense shards = %d", len(dense))
	}
	emb := plan.EmbeddingShards()
	wantShards := plan.TablePlan.NumShards() * cfg.NumTables
	if len(emb) != wantShards {
		t.Fatalf("embedding shards = %d, want %d", len(emb), wantShards)
	}
	// Every embedding shard covers a valid row range and the ranges of
	// one table tile [0, rows).
	covered := int64(0)
	for _, s := range emb {
		if s.Table == 0 {
			if s.RowLo != covered {
				t.Fatalf("shard rows not contiguous: lo=%d, covered=%d", s.RowLo, covered)
			}
			covered = s.RowHi
		}
		if s.Replicas < 1 || s.QPSPerReplica <= 0 {
			t.Fatalf("bad shard spec: %+v", s)
		}
		if s.HPA.Kind != cluster.MetricQPSPerReplica {
			t.Fatal("sparse shards must use the throughput HPA target")
		}
	}
	if covered != cfg.RowsPerTable {
		t.Fatalf("table 0 covered %d of %d rows", covered, cfg.RowsPerTable)
	}
	if dense[0].HPA.Kind != cluster.MetricLatency {
		t.Fatal("dense shard must use the latency HPA target")
	}
	if dense[0].HPA.Target != DefaultSLA.Seconds()*HPALatencyFraction {
		t.Fatalf("dense HPA target = %v", dense[0].HPA.Target)
	}
}

func TestElasticBeatsModelWiseMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment: paper-scale DP planning (~3s)")
	}
	for _, plat := range []perfmodel.Platform{perfmodel.CPUOnly, perfmodel.CPUGPU} {
		pl := planner(t, plat)
		target := 100.0
		if plat == perfmodel.CPUGPU {
			target = 200.0
		}
		for _, cfg := range model.StateOfTheArt() {
			mw, err := pl.PlanModelWise(cfg, target)
			if err != nil {
				t.Fatal(err)
			}
			er, err := pl.PlanElastic(cfg, target)
			if err != nil {
				t.Fatal(err)
			}
			ratio := float64(mw.TotalMemoryBytes()) / float64(er.TotalMemoryBytes())
			// Paper's reductions range 2.2x-8.1x; require at least 2x
			// and a sane upper bound.
			if ratio < 2.0 || ratio > 12 {
				t.Errorf("%s/%s: memory reduction %.2fx outside the paper's band", plat, cfg.Name, ratio)
			}
			srvMW, err := mw.ServersNeeded(pl.Profile.Node)
			if err != nil {
				t.Fatal(err)
			}
			srvER, err := er.ServersNeeded(pl.Profile.Node)
			if err != nil {
				t.Fatal(err)
			}
			if srvER > srvMW {
				t.Errorf("%s/%s: ElasticRec needs more servers (%d > %d)", plat, cfg.Name, srvER, srvMW)
			}
		}
	}
}

func TestPaperShardCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment: paper-scale DP planning (~1s)")
	}
	// Paper (CPU-only): RM1/RM2/RM3 partition into 4/3/3 shards. Our
	// calibration lands close; require the DP to pick a small multi-shard
	// count, not 1 and not the S_max ceiling.
	pl := planner(t, perfmodel.CPUOnly)
	for _, cfg := range model.StateOfTheArt() {
		plan, err := pl.PlanElastic(cfg, 100)
		if err != nil {
			t.Fatal(err)
		}
		n := plan.TablePlan.NumShards()
		if n < 2 || n > 8 {
			t.Errorf("%s: DP chose %d shards/table, expected 2..8", cfg.Name, n)
		}
	}
}

func TestHotShardsGetMoreReplicas(t *testing.T) {
	pl := planner(t, perfmodel.CPUOnly)
	plan, err := pl.PlanElastic(model.RM1(), 100)
	if err != nil {
		t.Fatal(err)
	}
	var reps []int
	for _, s := range plan.EmbeddingShards() {
		if s.Table == 0 {
			reps = append(reps, s.Replicas)
		}
	}
	for i := 1; i < len(reps); i++ {
		if reps[i] > reps[i-1] {
			t.Fatalf("replicas not monotone with hotness: %v", reps)
		}
	}
	if reps[0] <= reps[len(reps)-1] {
		t.Fatalf("hot shard must out-replicate cold: %v", reps)
	}
}

func TestGPUCacheBaseline(t *testing.T) {
	pl := planner(t, perfmodel.CPUGPU)
	cfg := model.RM1()
	mw, err := pl.PlanModelWise(cfg, 200)
	if err != nil {
		t.Fatal(err)
	}
	mwc, err := pl.PlanModelWiseCache(cfg, 200)
	if err != nil {
		t.Fatal(err)
	}
	er, err := pl.PlanElastic(cfg, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 20 ordering: MW >= MW(cache) >= ER.
	if mwc.TotalMemoryBytes() > mw.TotalMemoryBytes() {
		t.Fatal("cache baseline must not use more memory than model-wise")
	}
	if er.TotalMemoryBytes() > mwc.TotalMemoryBytes() {
		t.Fatal("ElasticRec must beat the cache baseline")
	}
	// Cache must speed the sparse stage (fewer or equal replicas).
	if mwc.Shards[0].Replicas > mw.Shards[0].Replicas {
		t.Fatal("cache baseline replica count must not grow")
	}
	// The cache baseline is CPU-GPU only.
	cpuPl := planner(t, perfmodel.CPUOnly)
	if _, err := cpuPl.PlanModelWiseCache(cfg, 100); err == nil {
		t.Fatal("want platform error on CPU-only")
	}
}

func TestPlanDispatchAndValidation(t *testing.T) {
	pl := planner(t, perfmodel.CPUOnly)
	cfg := model.RM1()
	for _, policy := range []Policy{PolicyElastic, PolicyModelWise} {
		p, err := pl.Plan(policy, cfg, 50)
		if err != nil {
			t.Fatal(err)
		}
		if p.Policy != policy {
			t.Fatalf("policy = %v", p.Policy)
		}
	}
	if _, err := pl.Plan("round-robin", cfg, 50); err == nil {
		t.Fatal("want unknown-policy error")
	}
	if _, err := pl.PlanElastic(cfg, 0); err == nil {
		t.Fatal("want target error")
	}
	if _, err := pl.PlanModelWise(cfg, -1); err == nil {
		t.Fatal("want target error")
	}
	bad := cfg
	bad.NumTables = 0
	if _, err := pl.PlanModelWise(bad, 100); err == nil {
		t.Fatal("want config error")
	}
	empty := &Planner{}
	if _, err := empty.PlanModelWise(cfg, 100); err == nil {
		t.Fatal("want missing-profile error")
	}
	if _, err := empty.CostModel(cfg); err == nil {
		t.Fatal("want missing-profile error")
	}
}

func TestForceShardsSweep(t *testing.T) {
	prof := perfmodel.CPUOnlyProfile()
	cfg := model.RM1()
	prev := int64(-1)
	memAt := map[int]int64{}
	for _, s := range []int{1, 2, 4, 8, 16} {
		pl := &Planner{Profile: prof, ForceShards: s}
		plan, err := pl.PlanElastic(cfg, 100)
		if err != nil {
			t.Fatal(err)
		}
		if plan.TablePlan.NumShards() != s {
			t.Fatalf("forced %d shards, got %d", s, plan.TablePlan.NumShards())
		}
		memAt[s] = plan.TotalMemoryBytes()
		prev = plan.TotalMemoryBytes()
		_ = prev
	}
	// Fig. 12d shape: memory at 4 shards well below 1 shard; the curve
	// plateaus (16 shards not dramatically better than 4).
	if memAt[4] >= memAt[1] {
		t.Fatalf("4-shard memory %d not below 1-shard %d", memAt[4], memAt[1])
	}
	if float64(memAt[16]) < 0.5*float64(memAt[4]) {
		t.Fatalf("no plateau: 16-shard %d vs 4-shard %d", memAt[16], memAt[4])
	}
}

func TestColdStartOrdering(t *testing.T) {
	pl := planner(t, perfmodel.CPUOnly)
	cfg := model.RM1()
	mw, _ := pl.PlanModelWise(cfg, 100)
	er, _ := pl.PlanElastic(cfg, 100)
	// A monolith replica loads 25.6 GB; every elastic shard loads less.
	for i := range er.Shards {
		if er.Shards[i].ColdStart >= mw.Shards[0].ColdStart {
			t.Fatalf("shard %s cold start %v >= monolith %v",
				er.Shards[i].Name, er.Shards[i].ColdStart, mw.Shards[0].ColdStart)
		}
	}
}

func TestElasticLatencyPenaltyWithinSLA(t *testing.T) {
	// Sec. VI-B: ElasticRec adds ~31 ms (8% of the 400 ms SLA) on
	// CPU-only; the penalty must exist but stay a small SLA fraction.
	pl := planner(t, perfmodel.CPUOnly)
	cfg := model.RM1()
	mw, _ := pl.PlanModelWise(cfg, 100)
	er, _ := pl.PlanElastic(cfg, 100)
	penalty := er.AvgLatency - mw.AvgLatency
	if penalty <= 0 {
		t.Fatalf("expected a communication penalty, got %v", penalty)
	}
	if penalty > DefaultSLA/4 {
		t.Fatalf("penalty %v exceeds 25%% of SLA", penalty)
	}
	if er.AvgLatency > DefaultSLA {
		t.Fatalf("elastic latency %v violates SLA", er.AvgLatency)
	}
}

func TestMaterialize(t *testing.T) {
	pl := planner(t, perfmodel.CPUOnly)
	plan, err := pl.PlanElastic(model.RM1(), 100)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := plan.Materialize(pl.Profile.Node, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Before any tick, pods are starting; after the longest cold start
	// every shard's deployment has all its replicas ready.
	cl.Tick(10 * time.Minute)
	for i := range plan.Shards {
		s := &plan.Shards[i]
		d, ok := cl.Deployment(s.Name)
		if !ok {
			t.Fatalf("%s: no deployment", s.Name)
		}
		desired, ready := d.Replicas()
		if desired != s.Replicas || ready != desired {
			t.Fatalf("%s: %d desired, %d ready after 10m, want %d", s.Name, desired, ready, s.Replicas)
		}
	}
}

func TestMonolithOnePerNode(t *testing.T) {
	// Model-wise replicas own the node's execution resources, so server
	// count equals replica count (the paper's server-granular scaling).
	pl := planner(t, perfmodel.CPUOnly)
	plan, err := pl.PlanModelWise(model.RM1(), 100)
	if err != nil {
		t.Fatal(err)
	}
	servers, err := plan.ServersNeeded(pl.Profile.Node)
	if err != nil {
		t.Fatal(err)
	}
	if servers != plan.Shards[0].Replicas {
		t.Fatalf("servers = %d, replicas = %d", servers, plan.Shards[0].Replicas)
	}
}

func TestCustomPlannerKnobs(t *testing.T) {
	prof := perfmodel.CPUOnlyProfile()
	pl := &Planner{
		Profile:         prof,
		DPTargetTraffic: 500,
		SLA:             200 * time.Millisecond,
	}
	plan, err := pl.PlanElastic(model.RM1(), 100)
	if err != nil {
		t.Fatal(err)
	}
	dense := plan.shardsOf(KindDense, KindMonolith)[0]
	if dense.HPA.Target != 0.2*HPALatencyFraction {
		t.Fatalf("custom SLA not honored: %v", dense.HPA.Target)
	}
}
