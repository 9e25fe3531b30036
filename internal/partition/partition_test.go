package partition

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/perfmodel"
	"repro/internal/workload"
)

// fig10Cost is the toy cost function from the paper's Fig. 10 example:
// COST(i, j) = (j - i + 1)^2 / i over 1-based inclusive [i, j], which in
// this package's 0-based half-open [lo, hi) convention is
// (hi - lo)^2 / (lo + 1).
func fig10Cost(lo, hi int64) float64 {
	return float64((hi-lo)*(hi-lo)) / float64(lo+1)
}

func TestFigure10Example(t *testing.T) {
	pt := &Partitioner{MaxShards: 3, Granularity: 1}
	plan, err := pt.PartitionFixedShards(5, 3, fig10Cost)
	if err != nil {
		t.Fatal(err)
	}
	// Paper: optimal plan [1, 3, 5] with Mem[3][5] = 4.
	want := []int64{1, 3, 5}
	if len(plan.Boundaries) != 3 {
		t.Fatalf("plan = %v", plan)
	}
	for i := range want {
		if plan.Boundaries[i] != want[i] {
			t.Fatalf("boundaries = %v, want %v", plan.Boundaries, want)
		}
	}
	if math.Abs(plan.Cost-4) > 1e-9 {
		t.Fatalf("cost = %v, want 4", plan.Cost)
	}
}

func TestFigure10Subproblems(t *testing.T) {
	// The memoized sub-problems quoted in Fig. 10: Mem[2][2]=1.5,
	// Mem[2][3]=3, Mem[2][4]=5.33.
	pt := &Partitioner{Granularity: 1}
	cases := []struct {
		rows int64
		want float64
	}{
		{2, 1.5},
		{3, 3},
		{4, 16.0 / 3},
	}
	for _, c := range cases {
		plan, err := pt.PartitionFixedShards(c.rows, 2, fig10Cost)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(plan.Cost-c.want) > 1e-9 {
			t.Fatalf("Mem[2][%d] = %v, want %v", c.rows, plan.Cost, c.want)
		}
	}
}

func TestPartitionValidation(t *testing.T) {
	pt := &Partitioner{}
	if _, err := pt.Partition(0, fig10Cost); err == nil {
		t.Fatal("want error for zero rows")
	}
	if _, err := pt.Partition(10, nil); err == nil {
		t.Fatal("want error for nil cost")
	}
	if _, err := pt.PartitionFixedShards(10, 0, fig10Cost); err == nil {
		t.Fatal("want error for zero shards")
	}
}

func TestPlanAccessors(t *testing.T) {
	p := Plan{Boundaries: []int64{3, 7, 10}}
	if p.NumShards() != 3 || p.Rows() != 10 {
		t.Fatalf("plan accessors: %+v", p)
	}
	lo, hi := p.ShardRange(0)
	if lo != 0 || hi != 3 {
		t.Fatalf("shard0 = [%d,%d)", lo, hi)
	}
	lo, hi = p.ShardRange(2)
	if lo != 7 || hi != 10 {
		t.Fatalf("shard2 = [%d,%d)", lo, hi)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Plan{Boundaries: []int64{3, 3}}
	if err := bad.Validate(); err == nil {
		t.Fatal("want error for non-increasing boundaries")
	}
	empty := Plan{}
	if err := empty.Validate(); err == nil {
		t.Fatal("want error for empty plan")
	}
	if (Plan{}).Rows() != 0 {
		t.Fatal("empty plan rows must be 0")
	}
}

// bruteForceBest exhaustively searches all partitions of rows into at most
// smax shards (exact per-row boundaries).
func bruteForceBest(rows int64, smax int, cost CostFunc) float64 {
	best := math.Inf(1)
	var rec func(lo int64, shardsLeft int, acc float64)
	rec = func(lo int64, shardsLeft int, acc float64) {
		if acc >= best {
			return
		}
		if lo == rows {
			if acc < best {
				best = acc
			}
			return
		}
		if shardsLeft == 0 {
			return
		}
		for hi := lo + 1; hi <= rows; hi++ {
			rec(hi, shardsLeft-1, acc+cost(lo, hi))
		}
	}
	rec(0, smax, 0)
	return best
}

// Property: the DP at granularity 1 matches exhaustive search on small
// random cost functions.
func TestDPOptimalityProperty(t *testing.T) {
	f := func(seed uint64, rowsRaw, smaxRaw uint8) bool {
		rows := int64(rowsRaw%8) + 2 // 2..9
		smax := int(smaxRaw%4) + 1   // 1..4
		rng := workload.NewRNG(seed)
		// Random positive cost per (lo, hi) pair, memoized for
		// determinism between DP and brute force.
		memo := map[[2]int64]float64{}
		cost := func(lo, hi int64) float64 {
			k := [2]int64{lo, hi}
			if v, ok := memo[k]; ok {
				return v
			}
			v := rng.Float64()*10 + 0.1
			memo[k] = v
			return v
		}
		pt := &Partitioner{MaxShards: smax, Granularity: 1}
		plan, err := pt.Partition(rows, cost)
		if err != nil {
			return false
		}
		want := bruteForceBest(rows, smax, cost)
		return math.Abs(plan.Cost-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanCostMatchesReportedCost(t *testing.T) {
	pt := &Partitioner{MaxShards: 4, Granularity: 1}
	plan, err := pt.Partition(8, fig10Cost)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := PlanCost(plan, fig10Cost)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum-plan.Cost) > 1e-9 {
		t.Fatalf("PlanCost = %v, DP cost = %v", sum, plan.Cost)
	}
}

func TestGranularityCoarsening(t *testing.T) {
	// With granularity 100 over 1000 rows, boundaries must be multiples
	// of 100 (or the final row count).
	pt := &Partitioner{MaxShards: 4, Granularity: 100}
	plan, err := pt.Partition(1000, func(lo, hi int64) float64 {
		return float64(hi-lo) + 50 // favors fewer-but-balanced shards
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range plan.Boundaries {
		if b%100 != 0 && b != 1000 {
			t.Fatalf("boundary %d not on granularity grid", b)
		}
	}
}

func TestFixedShardsMoreThanGroups(t *testing.T) {
	// Forcing more shards than default groups still works by refining
	// the granularity.
	pt := &Partitioner{Granularity: 4}
	plan, err := pt.PartitionFixedShards(8, 8, func(lo, hi int64) float64 { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumShards() != 8 {
		t.Fatalf("shards = %d, want 8", plan.NumShards())
	}
}

func TestSingleShardPlan(t *testing.T) {
	p := SingleShard(100)
	if p.NumShards() != 1 || p.Rows() != 100 {
		t.Fatalf("SingleShard = %+v", p)
	}
}

func TestEqualSize(t *testing.T) {
	p, err := EqualSize(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumShards() != 3 || p.Rows() != 10 {
		t.Fatalf("EqualSize = %+v", p)
	}
	if _, err := EqualSize(10, 0); err == nil {
		t.Fatal("want error for zero shards")
	}
	// More shards than rows clamps.
	p, err = EqualSize(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumShards() != 2 {
		t.Fatalf("clamped shards = %d", p.NumShards())
	}
}

func TestGreedyCoverage(t *testing.T) {
	s, err := workload.NewPowerLawSampler(10_000, 0.9, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	cdf := s.Analytic()
	p, err := GreedyCoverage(cdf, []float64{0.5, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Rows() != 10_000 {
		t.Fatalf("rows = %d", p.Rows())
	}
	// First boundary must cover ~50% of accesses.
	if got := cdf.At(p.Boundaries[0]); got < 0.5 || got > 0.52 {
		t.Fatalf("coverage at first cut = %v", got)
	}
	if _, err := GreedyCoverage(cdf, []float64{0.9, 0.5}); err == nil {
		t.Fatal("want error for non-increasing coverages")
	}
	if _, err := GreedyCoverage(cdf, []float64{1.5}); err == nil {
		t.Fatal("want error for coverage >= 1")
	}
}

// buildRM1CostModel assembles an Algorithm 1 cost model over a small table.
func buildRM1CostModel(t *testing.T, rows int64) *CostModel {
	t.Helper()
	prof := perfmodel.CPUOnlyProfile()
	qps, err := prof.BuildQPSModel(32, 32, 128)
	if err != nil {
		t.Fatal(err)
	}
	s, err := workload.NewPowerLawSampler(rows, 0.9, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	cm := &CostModel{
		CDF:             s.Analytic(),
		PoolingPerInput: 128,
		BatchSize:       32,
		VectorBytes:     128,
		MinMemAlloc:     512 << 20,
		TargetTraffic:   1000,
		QPS:             qps,
	}
	if err := cm.Validate(); err != nil {
		t.Fatal(err)
	}
	return cm
}

func TestCostModelAlgorithm1(t *testing.T) {
	cm := buildRM1CostModel(t, 100_000)
	// NS over the whole table equals the pooling factor.
	if ns := cm.NS(0, 100_000); math.Abs(ns-128) > 1e-9 {
		t.Fatalf("NS(full) = %v, want 128", ns)
	}
	// A hot prefix absorbs proportionally more gathers.
	hot := cm.NS(0, 10_000)
	cold := cm.NS(90_000, 100_000)
	if hot <= cold {
		t.Fatalf("hot ns %v <= cold ns %v", hot, cold)
	}
	// Replicas are at least 1 and grow with traffic share.
	if r := cm.Replicas(90_000, 100_000); r < 1 {
		t.Fatalf("cold replicas = %v, want >= 1", r)
	}
	if cm.Replicas(0, 10_000) <= cm.Replicas(90_000, 100_000) {
		t.Fatal("hot shard must need more replicas")
	}
	// Capacity is linear in rows.
	if cm.Capacity(0, 10) != 10*128 {
		t.Fatalf("Capacity = %d", cm.Capacity(0, 10))
	}
	if cm.Capacity(10, 10) != 0 {
		t.Fatal("empty range capacity must be 0")
	}
	// Cost = replicas * (capacity + minmem).
	lo, hi := int64(0), int64(10_000)
	want := cm.Replicas(lo, hi) * float64(cm.Capacity(lo, hi)+cm.MinMemAlloc)
	if got := cm.Cost(lo, hi); math.Abs(got-want) > 1e-6 {
		t.Fatalf("Cost = %v, want %v", got, want)
	}
}

func TestCostModelValidate(t *testing.T) {
	cm := buildRM1CostModel(t, 1000)
	bad := *cm
	bad.CDF = nil
	if bad.Validate() == nil {
		t.Fatal("want CDF error")
	}
	bad = *cm
	bad.QPS = nil
	if bad.Validate() == nil {
		t.Fatal("want QPS error")
	}
	bad = *cm
	bad.PoolingPerInput = 0
	if bad.Validate() == nil {
		t.Fatal("want pooling error")
	}
	bad = *cm
	bad.TargetTraffic = 0
	if bad.Validate() == nil {
		t.Fatal("want traffic error")
	}
	bad = *cm
	bad.VectorBytes = 0
	if bad.Validate() == nil {
		t.Fatal("want vector bytes error")
	}
	bad = *cm
	bad.MinMemAlloc = -1
	if bad.Validate() == nil {
		t.Fatal("want minmem error")
	}
	bad = *cm
	bad.BatchSize = 0
	if bad.Validate() == nil {
		t.Fatal("want batch error")
	}
}

func TestEvaluateAndPlanMemory(t *testing.T) {
	cm := buildRM1CostModel(t, 100_000)
	pt := &Partitioner{MaxShards: 8}
	plan, err := pt.Partition(100_000, cm.CostFunc())
	if err != nil {
		t.Fatal(err)
	}
	ests, err := cm.Evaluate(plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != plan.NumShards() {
		t.Fatalf("estimates = %d, shards = %d", len(ests), plan.NumShards())
	}
	var total float64
	var nsSum float64
	for _, e := range ests {
		if e.QPS <= 0 || e.Replicas < 1 || e.CapacityBytes <= 0 {
			t.Fatalf("bad estimate: %+v", e)
		}
		total += e.MemoryBytes
		nsSum += e.NS
	}
	// Shard NS values partition the pooling factor.
	if math.Abs(nsSum-128) > 1e-6 {
		t.Fatalf("sum of shard NS = %v, want 128", nsSum)
	}
	// The DP's reported cost equals the summed evaluated memory.
	if math.Abs(total-plan.Cost) > 1e-6 {
		t.Fatalf("plan cost %v != evaluated %v", plan.Cost, total)
	}
	if _, err := cm.Evaluate(Plan{}); err == nil {
		t.Fatal("want error for invalid plan")
	}
}

// The headline property of the paper's DP: it never loses to the
// alternative policies under its own cost model.
func TestDPBeatsAlternatives(t *testing.T) {
	cm := buildRM1CostModel(t, 200_000)
	pt := &Partitioner{MaxShards: 16}
	dp, err := pt.Partition(200_000, cm.CostFunc())
	if err != nil {
		t.Fatal(err)
	}
	single := SingleShard(200_000)
	singleCost, _ := PlanCost(single, cm.CostFunc())
	if dp.Cost > singleCost+1e-6 {
		t.Fatalf("DP %v worse than single shard %v", dp.Cost, singleCost)
	}
	for _, n := range []int{2, 4, 8} {
		eq, err := EqualSize(200_000, n)
		if err != nil {
			t.Fatal(err)
		}
		c, _ := PlanCost(eq, cm.CostFunc())
		if dp.Cost > c+1e-6 {
			t.Fatalf("DP %v worse than equal-size-%d %v", dp.Cost, n, c)
		}
	}
	greedy, err := GreedyCoverage(cm.CDF, []float64{0.5, 0.9, 0.99})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := PlanCost(greedy, cm.CostFunc())
	if dp.Cost > c+1e-6 {
		t.Fatalf("DP %v worse than greedy %v", dp.Cost, c)
	}
}

// Figure 12(d)'s shape: forcing more shards reduces cost up to the DP's
// chosen count, after which per-container overhead causes diminishing or
// negative returns.
func TestForcedShardSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment: forced-shard DP sweep (~4s)")
	}
	cm := buildRM1CostModel(t, 200_000)
	pt := &Partitioner{MaxShards: 16}
	opt, err := pt.Partition(200_000, cm.CostFunc())
	if err != nil {
		t.Fatal(err)
	}
	cost1, err := pt.PartitionFixedShards(200_000, 1, cm.CostFunc())
	if err != nil {
		t.Fatal(err)
	}
	if opt.Cost > cost1.Cost+1e-6 {
		t.Fatal("optimal plan must not lose to a single shard")
	}
	// The optimum over all counts equals the best fixed-count plan.
	best := math.Inf(1)
	for s := 1; s <= 16; s++ {
		p, err := pt.PartitionFixedShards(200_000, s, cm.CostFunc())
		if err != nil {
			t.Fatal(err)
		}
		if p.Cost < best {
			best = p.Cost
		}
	}
	if math.Abs(best-opt.Cost) > 1e-6 {
		t.Fatalf("optimal %v != best fixed %v", opt.Cost, best)
	}
}
