package deploy

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/model"
	"repro/internal/perfmodel"
)

func gbSpec(cpuMilli int64, memGB int64, gpus int) ResourceSpec {
	return ResourceSpec{CPUMilli: cpuMilli, MemBytes: memGB << 30, GPUs: gpus}
}

// fleetOf materializes one deployment per shard spec onto nodes of
// cores/memGB/gpus capacity.
func fleetOf(t *testing.T, cores int, memGB int64, gpus int, shards ...ShardSpec) *Fleet {
	t.Helper()
	f, err := (&Plan{Shards: shards}).Materialize(perfmodel.NodeSpec{Cores: cores, MemBytes: memGB << 30, GPUs: gpus})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestResourceSpecArithmetic(t *testing.T) {
	a := gbSpec(1000, 2, 1)
	b := gbSpec(500, 1, 0)
	sum := a.add(b)
	if sum.CPUMilli != 1500 || sum.MemBytes != 3<<30 || sum.GPUs != 1 {
		t.Fatalf("add = %+v", sum)
	}
	diff := a.sub(b)
	if diff.CPUMilli != 500 || diff.MemBytes != 1<<30 {
		t.Fatalf("sub = %+v", diff)
	}
	if !b.fits(a) {
		t.Fatal("b must fit in a")
	}
	if a.fits(b) {
		t.Fatal("a must not fit in b")
	}
}

func TestScaleAndColdStart(t *testing.T) {
	f := fleetOf(t, 8, 64, 0, ShardSpec{Resources: gbSpec(1000, 4, 0), ColdStart: 10 * time.Second, Replicas: 3})
	desired, ready := f.Replicas(0)
	if desired != 3 || ready != 0 {
		t.Fatalf("desired=%d ready=%d", desired, ready)
	}
	// Pods become ready after cold start.
	f.Tick(5 * time.Second)
	if _, ready := f.Replicas(0); ready != 0 {
		t.Fatal("pods ready before cold start")
	}
	f.Tick(10 * time.Second)
	if _, ready := f.Replicas(0); ready != 3 {
		t.Fatal("pods must be ready after cold start")
	}
	// Scale down removes pods and frees resources.
	if err := f.Scale(0, 1, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if desired, _ := f.Replicas(0); desired != 1 {
		t.Fatalf("desired after scale-down = %d", desired)
	}
	if got := f.AllocatedMemBytes(); got != 4<<30 {
		t.Fatalf("allocated = %d", got)
	}
	if err := f.Scale(0, -1, 0); err == nil {
		t.Fatal("want negative-replica error")
	}
}

func TestGPUScheduling(t *testing.T) {
	// One GPU per node: two GPU pods cannot share a node.
	f := fleetOf(t, 32, 120, 1, ShardSpec{Resources: gbSpec(8000, 4, 1), Replicas: 2})
	if got := f.NodesInUse(); got != 2 {
		t.Fatalf("NodesInUse = %d, want 2", got)
	}
}

func TestAutoProvisioning(t *testing.T) {
	f := fleetOf(t, 4, 16, 0,
		ShardSpec{Resources: gbSpec(3000, 8, 0), Replicas: 5},
		ShardSpec{Name: "big", Resources: gbSpec(8000, 1, 0)})
	// Each node fits one 3-core pod (4 cores total): 5 nodes.
	if got := f.NodesInUse(); got != 5 {
		t.Fatalf("NodesInUse = %d, want 5", got)
	}
	// A pod larger than the node must fail.
	if err := f.Scale(1, 1, 0); err == nil {
		t.Fatal("want node-exceeded error")
	}
}

func TestBinPackingPrefersTightFit(t *testing.T) {
	// The 4-core pod fits next to the 6-core pod on the same node.
	f := fleetOf(t, 10, 100, 0,
		ShardSpec{Resources: gbSpec(6000, 10, 0), Replicas: 1},
		ShardSpec{Resources: gbSpec(4000, 10, 0), Replicas: 1})
	if got := f.NodesInUse(); got != 1 {
		t.Fatalf("NodesInUse = %d, want 1 (pack together)", got)
	}
}

// The HPA policies every planner emits are ones Evaluate can run: a known
// metric kind, a positive target and a non-empty, ordered replica range.
func TestPlannersEmitValidHPAs(t *testing.T) {
	cfg := model.RM1()
	cfg.RowsPerTable = 20_000
	pl := planner(t, perfmodel.CPUGPU)
	for _, policy := range []Policy{PolicyElastic, PolicyModelWise, PolicyModelWiseCache} {
		plan, err := pl.Plan(policy, cfg, 100)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range plan.Shards {
			h := s.HPA
			if h.Kind != MetricQPSPerReplica && h.Kind != MetricLatency {
				t.Errorf("%s: unknown HPA metric kind %q", s.Name, h.Kind)
			}
			if h.Target <= 0 {
				t.Errorf("%s: HPA target %v, want > 0", s.Name, h.Target)
			}
			if h.MinReplicas < 1 {
				t.Errorf("%s: MinReplicas %d, want >= 1", s.Name, h.MinReplicas)
			}
			if h.MaxReplicas > 0 && h.MaxReplicas < h.MinReplicas {
				t.Errorf("%s: MaxReplicas %d < MinReplicas %d", s.Name, h.MaxReplicas, h.MinReplicas)
			}
			if h.Tolerance < 0 {
				t.Errorf("%s: negative tolerance %v", s.Name, h.Tolerance)
			}
		}
	}
}

// hpaFleet is one deployment of replicas small pods on a roomy node spec.
func hpaFleet(t *testing.T, replicas int) *Fleet {
	t.Helper()
	return fleetOf(t, 64, 384, 0, ShardSpec{Resources: gbSpec(100, 1, 0), Replicas: replicas})
}

func newTestHPA(t *testing.T, kind MetricKind, target float64) (*Fleet, *HPA) {
	t.Helper()
	return hpaFleet(t, 2), &HPA{Policy: HPAPolicy{Kind: kind, Target: target, MinReplicas: 1, MaxReplicas: 64}}
}

func TestHPAScalesUpOnQPS(t *testing.T) {
	f, h := newTestHPA(t, MetricQPSPerReplica, 10)
	// 2 replicas at 50 QPS = 25/replica vs target 10: want ceil(2*2.5)=5,
	// but the rate limit allows at most max(2*2, 2+4)=6, so 5 stands.
	got, err := h.Evaluate(f, 0, MetricSample{OfferedQPS: 50}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("desired = %d, want 5", got)
	}
}

func TestHPARateLimitsScaleUp(t *testing.T) {
	f, h := newTestHPA(t, MetricQPSPerReplica, 1)
	// Demand implies 100 replicas, but one step allows max(4, 6)=6.
	got, err := h.Evaluate(f, 0, MetricSample{OfferedQPS: 100}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 6 {
		t.Fatalf("desired = %d, want rate-limited 6", got)
	}
}

func TestHPAToleranceDeadBand(t *testing.T) {
	f, h := newTestHPA(t, MetricQPSPerReplica, 10)
	// 2 replicas at 21 QPS = 10.5/replica: ratio 1.05 within 0.1 band.
	got, err := h.Evaluate(f, 0, MetricSample{OfferedQPS: 21}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("desired = %d, want unchanged 2", got)
	}
}

func TestHPAScaleDownStabilization(t *testing.T) {
	f := hpaFleet(t, 8)
	h := &HPA{Policy: HPAPolicy{
		Kind: MetricQPSPerReplica, Target: 10,
		MinReplicas: 1, ScaleDownStabilization: time.Minute,
	}}
	// Demand only needs 2 replicas, but stabilization holds 8.
	got, _ := h.Evaluate(f, 0, MetricSample{OfferedQPS: 20}, 0)
	if got != 8 {
		t.Fatalf("scale-down before stabilization: %d", got)
	}
	got, _ = h.Evaluate(f, 0, MetricSample{OfferedQPS: 20}, 30*time.Second)
	if got != 8 {
		t.Fatalf("scale-down mid-window: %d", got)
	}
	got, _ = h.Evaluate(f, 0, MetricSample{OfferedQPS: 20}, 61*time.Second)
	if got != 2 {
		t.Fatalf("scale-down after window: %d, want 2", got)
	}
}

func TestHPAScaleDownWindowTracksHighestDemand(t *testing.T) {
	f := hpaFleet(t, 8)
	h := &HPA{Policy: HPAPolicy{
		Kind: MetricQPSPerReplica, Target: 10,
		MinReplicas: 1, ScaleDownStabilization: time.Minute,
	}}
	_, _ = h.Evaluate(f, 0, MetricSample{OfferedQPS: 20}, 0)              // wants 2
	_, _ = h.Evaluate(f, 0, MetricSample{OfferedQPS: 50}, 30*time.Second) // wants 5
	got, _ := h.Evaluate(f, 0, MetricSample{OfferedQPS: 20}, 61*time.Second)
	if got != 5 {
		t.Fatalf("stabilized scale-down = %d, want highest demand 5", got)
	}
}

func TestHPALatencyScaleUp(t *testing.T) {
	f, h := newTestHPA(t, MetricLatency, 0.26)
	got, err := h.Evaluate(f, 0, MetricSample{LatencySeconds: 0.52}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 4 { // ceil(2 * 2.0) = 4
		t.Fatalf("desired = %d, want 4", got)
	}
}

func TestHPALatencyScaleDownOneStep(t *testing.T) {
	f := hpaFleet(t, 8)
	h := &HPA{Policy: HPAPolicy{Kind: MetricLatency, Target: 0.26, MinReplicas: 1}}
	// Very low latency implies a tiny desired count, but latency-kind
	// deployments shed only one replica per period.
	got, _ := h.Evaluate(f, 0, MetricSample{LatencySeconds: 0.01}, 0)
	if got != 7 {
		t.Fatalf("desired = %d, want 7 (one-step shed)", got)
	}
}

func TestHPALatencyQPSGuardVetoesScaleDown(t *testing.T) {
	f := hpaFleet(t, 4)
	h := &HPA{Policy: HPAPolicy{Kind: MetricLatency, Target: 0.26, MinReplicas: 1, QPSGuard: 25}}
	// 4 replicas at 80 QPS: shedding to 3 gives 26.7/replica > 0.85*25,
	// so the guard vetoes.
	got, _ := h.Evaluate(f, 0, MetricSample{OfferedQPS: 80, LatencySeconds: 0.01}, 0)
	if got != 4 {
		t.Fatalf("desired = %d, want guard veto at 4", got)
	}
	// At 20 QPS the shed is safe.
	got, _ = h.Evaluate(f, 0, MetricSample{OfferedQPS: 20, LatencySeconds: 0.01}, 0)
	if got != 3 {
		t.Fatalf("desired = %d, want 3", got)
	}
}

func TestHPARespectsMinMax(t *testing.T) {
	f := hpaFleet(t, 2)
	h := &HPA{Policy: HPAPolicy{Kind: MetricQPSPerReplica, Target: 10, MinReplicas: 2, MaxReplicas: 3}}
	got, _ := h.Evaluate(f, 0, MetricSample{OfferedQPS: 1000}, 0)
	if got != 3 {
		t.Fatalf("desired = %d, want max 3", got)
	}
	got, _ = h.Evaluate(f, 0, MetricSample{OfferedQPS: 0}, time.Hour)
	if got != 2 {
		t.Fatalf("desired = %d, want min 2", got)
	}
}

// Property: no scheduling sequence may overcommit a node — allocations
// stay within capacity for every node at every step.
func TestSchedulingNeverOvercommitsProperty(t *testing.T) {
	spec := perfmodel.NodeSpec{Cores: 8, MemBytes: 32 << 30, GPUs: 1}
	capacity := gbSpec(8000, 32, 1)
	f := func(seed uint64, nPods uint8) bool {
		rng := seed
		next := func(mod int64) int64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			return int64(rng % uint64(mod))
		}
		shards := make([]ShardSpec, int(nPods%24)+1)
		for i := range shards {
			shards[i] = ShardSpec{Replicas: 1, Resources: ResourceSpec{
				CPUMilli: next(8000) + 1,
				MemBytes: (next(32) + 1) << 30,
				GPUs:     int(next(2)),
			}}
		}
		fl, err := (&Plan{Shards: shards}).Materialize(spec)
		if err != nil {
			return false
		}
		for _, n := range fl.nodes {
			alloc := capacity.sub(n.free)
			if !alloc.fits(capacity) || alloc.CPUMilli < 0 || alloc.MemBytes < 0 || alloc.GPUs < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: scaling a deployment up then back down restores the fleet's
// allocated memory exactly (no resource leaks).
func TestScaleUpDownConservesResourcesProperty(t *testing.T) {
	f := func(upRaw uint8) bool {
		base := 2
		fl, err := (&Plan{Shards: []ShardSpec{{Resources: gbSpec(500, 2, 0), Replicas: base}}}).
			Materialize(perfmodel.NodeSpec{Cores: 64, MemBytes: 384 << 30})
		if err != nil {
			return false
		}
		before := fl.AllocatedMemBytes()
		if err := fl.Scale(0, base+int(upRaw%20), 0); err != nil {
			return false
		}
		if err := fl.Scale(0, base, 0); err != nil {
			return false
		}
		return fl.AllocatedMemBytes() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
