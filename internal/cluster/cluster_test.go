package cluster

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"
)

func gbSpec(cpuMilli int64, memGB int64, gpus int) ResourceSpec {
	return ResourceSpec{CPUMilli: cpuMilli, MemBytes: memGB << 30, GPUs: gpus}
}

func TestResourceSpecArithmetic(t *testing.T) {
	a := gbSpec(1000, 2, 1)
	b := gbSpec(500, 1, 0)
	sum := a.Add(b)
	if sum.CPUMilli != 1500 || sum.MemBytes != 3<<30 || sum.GPUs != 1 {
		t.Fatalf("Add = %+v", sum)
	}
	diff := a.Sub(b)
	if diff.CPUMilli != 500 || diff.MemBytes != 1<<30 {
		t.Fatalf("Sub = %+v", diff)
	}
	if !b.Fits(a) {
		t.Fatal("b must fit in a")
	}
	if a.Fits(b) {
		t.Fatal("a must not fit in b")
	}
	if (ResourceSpec{CPUMilli: -1}).Validate() == nil {
		t.Fatal("want validation error")
	}
	if a.String() == "" {
		t.Fatal("String must render")
	}
}

func TestNodePlaceRelease(t *testing.T) {
	n := NewNode("n1", gbSpec(4000, 8, 0))
	p := &Pod{Name: "p1", Resources: gbSpec(1000, 2, 0)}
	n.place(p)
	if n.PodCount() != 1 || p.Node != "n1" {
		t.Fatal("place bookkeeping broken")
	}
	free := n.Free()
	if free.CPUMilli != 3000 || free.MemBytes != 6<<30 {
		t.Fatalf("Free = %+v", free)
	}
	n.release(p)
	if n.PodCount() != 0 || n.Allocated().CPUMilli != 0 {
		t.Fatal("release bookkeeping broken")
	}
	// Releasing twice is harmless.
	n.release(p)
	if n.Allocated().CPUMilli != 0 {
		t.Fatal("double release corrupted accounting")
	}
}

func TestCreateDeploymentAndScale(t *testing.T) {
	c := New(NewNode("n1", gbSpec(8000, 64, 0)))
	d, err := c.CreateDeployment("web", gbSpec(1000, 4, 0), 10*time.Second, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	desired, ready := d.Replicas()
	if desired != 3 || ready != 0 {
		t.Fatalf("desired=%d ready=%d", desired, ready)
	}
	// Pods become ready after cold start.
	c.Tick(5 * time.Second)
	if _, ready := d.Replicas(); ready != 0 {
		t.Fatal("pods ready before cold start")
	}
	c.Tick(10 * time.Second)
	if _, ready := d.Replicas(); ready != 3 {
		t.Fatal("pods must be ready after cold start")
	}
	// Scale down removes pods and frees resources.
	if err := c.Scale("web", 1, 20*time.Second); err != nil {
		t.Fatal(err)
	}
	if desired, _ := d.Replicas(); desired != 1 {
		t.Fatalf("desired after scale-down = %d", desired)
	}
	if got := c.AllocatedMemBytes(); got != 4<<30 {
		t.Fatalf("allocated = %d", got)
	}
	if err := c.Scale("nope", 1, 0); err == nil {
		t.Fatal("want unknown-deployment error")
	}
	if err := c.Scale("web", -1, 0); err == nil {
		t.Fatal("want negative-replica error")
	}
	if _, err := c.CreateDeployment("web", gbSpec(1, 1, 0), 0, 1, 0); err == nil {
		t.Fatal("want duplicate-deployment error")
	}
}

func TestSchedulingRespectsCapacity(t *testing.T) {
	c := New(NewNode("n1", gbSpec(2000, 4, 0)))
	if _, err := c.CreateDeployment("a", gbSpec(1000, 2, 0), 0, 2, 0); err != nil {
		t.Fatal(err)
	}
	// Node is full: a third pod must fail on a fixed cluster.
	if err := c.Scale("a", 3, 0); err == nil {
		t.Fatal("want scheduling failure on full node")
	}
}

func TestGPUScheduling(t *testing.T) {
	c := New(NewNode("g1", gbSpec(32000, 120, 1)))
	if _, err := c.CreateDeployment("dense", gbSpec(8000, 4, 1), 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	// Second GPU pod cannot fit (one GPU per node).
	if err := c.Scale("dense", 2, 0); err == nil {
		t.Fatal("want GPU exhaustion error")
	}
}

func TestAutoProvisioning(t *testing.T) {
	c := NewAutoProvisioned(gbSpec(4000, 16, 0))
	if _, err := c.CreateDeployment("a", gbSpec(3000, 8, 0), 0, 5, 0); err != nil {
		t.Fatal(err)
	}
	// Each node fits one 3-core pod (4 cores total): 5 nodes.
	if got := c.NodesInUse(); got != 5 {
		t.Fatalf("NodesInUse = %d, want 5", got)
	}
	// A pod larger than the template must fail.
	if _, err := c.CreateDeployment("big", gbSpec(8000, 1, 0), 0, 1, 0); err == nil {
		t.Fatal("want template-exceeded error")
	}
}

func TestBinPackingPrefersTightFit(t *testing.T) {
	c := NewAutoProvisioned(gbSpec(10000, 100, 0))
	if _, err := c.CreateDeployment("a", gbSpec(6000, 10, 0), 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	// 4-core pod fits next to the 6-core pod on the same node.
	if _, err := c.CreateDeployment("b", gbSpec(4000, 10, 0), 0, 1, 0); err != nil {
		t.Fatal(err)
	}
	if got := c.NodesInUse(); got != 1 {
		t.Fatalf("NodesInUse = %d, want 1 (pack together)", got)
	}
}

func TestDeploymentsListing(t *testing.T) {
	c := NewAutoProvisioned(gbSpec(64000, 384, 0))
	_, _ = c.CreateDeployment("b", gbSpec(100, 1, 0), 0, 1, 0)
	_, _ = c.CreateDeployment("a", gbSpec(100, 1, 0), 0, 1, 0)
	if _, ok := c.Deployment("a"); !ok {
		t.Fatal("lookup failed")
	}
	if _, ok := c.Deployment("zz"); ok {
		t.Fatal("phantom deployment")
	}
}

// --- HPA tests ---

func TestHPAPolicyValidation(t *testing.T) {
	good := HPAPolicy{Deployment: "d", Kind: MetricQPSPerReplica, Target: 10, MinReplicas: 1}
	if _, err := NewHPA(good); err != nil {
		t.Fatal(err)
	}
	cases := []HPAPolicy{
		{Kind: MetricQPSPerReplica, Target: 10, MinReplicas: 1},                           // no deployment
		{Deployment: "d", Kind: "cpu", Target: 10, MinReplicas: 1},                        // bad kind
		{Deployment: "d", Kind: MetricLatency, Target: 0, MinReplicas: 1},                 // bad target
		{Deployment: "d", Kind: MetricLatency, Target: 1, MinReplicas: 0},                 // bad min
		{Deployment: "d", Kind: MetricLatency, Target: 1, MinReplicas: 5, MaxReplicas: 2}, // max < min
		{Deployment: "d", Kind: MetricLatency, Target: 1, MinReplicas: 1, Tolerance: -1},  // bad tolerance
	}
	for i, p := range cases {
		if _, err := NewHPA(p); err == nil {
			t.Errorf("case %d: want validation error", i)
		}
	}
}

func newTestHPA(t *testing.T, kind MetricKind, target float64) (*Cluster, *HPA) {
	t.Helper()
	c := NewAutoProvisioned(gbSpec(64000, 384, 0))
	if _, err := c.CreateDeployment("d", gbSpec(100, 1, 0), 0, 2, 0); err != nil {
		t.Fatal(err)
	}
	h, err := NewHPA(HPAPolicy{
		Deployment: "d", Kind: kind, Target: target,
		MinReplicas: 1, MaxReplicas: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, h
}

func TestHPAScalesUpOnQPS(t *testing.T) {
	c, h := newTestHPA(t, MetricQPSPerReplica, 10)
	// 2 replicas at 50 QPS = 25/replica vs target 10: want ceil(2*2.5)=5,
	// but the rate limit allows at most max(2*2, 2+4)=6, so 5 stands.
	got, err := h.Evaluate(c, MetricSample{OfferedQPS: 50}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 5 {
		t.Fatalf("desired = %d, want 5", got)
	}
}

func TestHPARateLimitsScaleUp(t *testing.T) {
	c, h := newTestHPA(t, MetricQPSPerReplica, 1)
	// Demand implies 100 replicas, but one step allows max(4, 6)=6.
	got, err := h.Evaluate(c, MetricSample{OfferedQPS: 100}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 6 {
		t.Fatalf("desired = %d, want rate-limited 6", got)
	}
}

func TestHPAToleranceDeadBand(t *testing.T) {
	c, h := newTestHPA(t, MetricQPSPerReplica, 10)
	// 2 replicas at 21 QPS = 10.5/replica: ratio 1.05 within 0.1 band.
	got, err := h.Evaluate(c, MetricSample{OfferedQPS: 21}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 2 {
		t.Fatalf("desired = %d, want unchanged 2", got)
	}
}

func TestHPAScaleDownStabilization(t *testing.T) {
	c := NewAutoProvisioned(gbSpec(64000, 384, 0))
	if _, err := c.CreateDeployment("d", gbSpec(100, 1, 0), 0, 8, 0); err != nil {
		t.Fatal(err)
	}
	h, err := NewHPA(HPAPolicy{
		Deployment: "d", Kind: MetricQPSPerReplica, Target: 10,
		MinReplicas: 1, ScaleDownStabilization: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Demand only needs 2 replicas, but stabilization holds 8.
	got, _ := h.Evaluate(c, MetricSample{OfferedQPS: 20}, 0)
	if got != 8 {
		t.Fatalf("scale-down before stabilization: %d", got)
	}
	got, _ = h.Evaluate(c, MetricSample{OfferedQPS: 20}, 30*time.Second)
	if got != 8 {
		t.Fatalf("scale-down mid-window: %d", got)
	}
	got, _ = h.Evaluate(c, MetricSample{OfferedQPS: 20}, 61*time.Second)
	if got != 2 {
		t.Fatalf("scale-down after window: %d, want 2", got)
	}
}

func TestHPAScaleDownWindowTracksHighestDemand(t *testing.T) {
	c := NewAutoProvisioned(gbSpec(64000, 384, 0))
	_, _ = c.CreateDeployment("d", gbSpec(100, 1, 0), 0, 8, 0)
	h, _ := NewHPA(HPAPolicy{
		Deployment: "d", Kind: MetricQPSPerReplica, Target: 10,
		MinReplicas: 1, ScaleDownStabilization: time.Minute,
	})
	_, _ = h.Evaluate(c, MetricSample{OfferedQPS: 20}, 0)              // wants 2
	_, _ = h.Evaluate(c, MetricSample{OfferedQPS: 50}, 30*time.Second) // wants 5
	got, _ := h.Evaluate(c, MetricSample{OfferedQPS: 20}, 61*time.Second)
	if got != 5 {
		t.Fatalf("stabilized scale-down = %d, want highest demand 5", got)
	}
}

func TestHPALatencyScaleUp(t *testing.T) {
	c, h := newTestHPA(t, MetricLatency, 0.26)
	got, err := h.Evaluate(c, MetricSample{LatencySeconds: 0.52}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 4 { // ceil(2 * 2.0) = 4
		t.Fatalf("desired = %d, want 4", got)
	}
}

func TestHPALatencyScaleDownOneStep(t *testing.T) {
	c := NewAutoProvisioned(gbSpec(64000, 384, 0))
	_, _ = c.CreateDeployment("d", gbSpec(100, 1, 0), 0, 8, 0)
	h, _ := NewHPA(HPAPolicy{
		Deployment: "d", Kind: MetricLatency, Target: 0.26, MinReplicas: 1,
	})
	// Very low latency implies a tiny desired count, but latency-kind
	// deployments shed only one replica per period.
	got, _ := h.Evaluate(c, MetricSample{LatencySeconds: 0.01}, 0)
	if got != 7 {
		t.Fatalf("desired = %d, want 7 (one-step shed)", got)
	}
}

func TestHPALatencyQPSGuardVetoesScaleDown(t *testing.T) {
	c := NewAutoProvisioned(gbSpec(64000, 384, 0))
	_, _ = c.CreateDeployment("d", gbSpec(100, 1, 0), 0, 4, 0)
	h, _ := NewHPA(HPAPolicy{
		Deployment: "d", Kind: MetricLatency, Target: 0.26, MinReplicas: 1,
		QPSGuard: 25,
	})
	// 4 replicas at 80 QPS: shedding to 3 gives 26.7/replica > 0.85*25,
	// so the guard vetoes.
	got, _ := h.Evaluate(c, MetricSample{OfferedQPS: 80, LatencySeconds: 0.01}, 0)
	if got != 4 {
		t.Fatalf("desired = %d, want guard veto at 4", got)
	}
	// At 20 QPS the shed is safe.
	got, _ = h.Evaluate(c, MetricSample{OfferedQPS: 20, LatencySeconds: 0.01}, 0)
	if got != 3 {
		t.Fatalf("desired = %d, want 3", got)
	}
}

func TestHPAUnknownDeployment(t *testing.T) {
	c := NewAutoProvisioned(gbSpec(1000, 8, 0))
	h, _ := NewHPA(HPAPolicy{Deployment: "ghost", Kind: MetricQPSPerReplica, Target: 1, MinReplicas: 1})
	if _, err := h.Evaluate(c, MetricSample{}, 0); err == nil {
		t.Fatal("want unknown-deployment error")
	}
}

func TestHPARespectsMinMax(t *testing.T) {
	c := NewAutoProvisioned(gbSpec(64000, 384, 0))
	_, _ = c.CreateDeployment("d", gbSpec(100, 1, 0), 0, 2, 0)
	h, _ := NewHPA(HPAPolicy{
		Deployment: "d", Kind: MetricQPSPerReplica, Target: 10,
		MinReplicas: 2, MaxReplicas: 3,
	})
	got, _ := h.Evaluate(c, MetricSample{OfferedQPS: 1000}, 0)
	if got != 3 {
		t.Fatalf("desired = %d, want max 3", got)
	}
	got, _ = h.Evaluate(c, MetricSample{OfferedQPS: 0}, time.Hour)
	if got != 2 {
		t.Fatalf("desired = %d, want min 2", got)
	}
}

// Property: no scheduling sequence may overcommit a node — allocations
// stay within capacity for every node at every step.
func TestSchedulingNeverOvercommitsProperty(t *testing.T) {
	f := func(seed uint64, nPods uint8) bool {
		rng := seed
		next := func(mod int64) int64 {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			v := int64(rng % uint64(mod))
			if v < 0 {
				v = -v
			}
			return v
		}
		c := NewAutoProvisioned(gbSpec(8000, 32, 1))
		pods := int(nPods%24) + 1
		for i := 0; i < pods; i++ {
			res := ResourceSpec{
				CPUMilli: next(8000) + 1,
				MemBytes: (next(32) + 1) << 30,
				GPUs:     int(next(2)),
			}
			name := fmt.Sprintf("d%d", i)
			if _, err := c.CreateDeployment(name, res, 0, 1, 0); err != nil {
				return false
			}
		}
		for _, n := range c.nodes {
			alloc := n.Allocated()
			if alloc.CPUMilli > n.Capacity.CPUMilli ||
				alloc.MemBytes > n.Capacity.MemBytes ||
				alloc.GPUs > n.Capacity.GPUs {
				return false
			}
			if alloc.CPUMilli < 0 || alloc.MemBytes < 0 || alloc.GPUs < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: scaling a deployment up then back down restores the cluster's
// allocated memory exactly (no resource leaks).
func TestScaleUpDownConservesResourcesProperty(t *testing.T) {
	f := func(upRaw, downRaw uint8) bool {
		c := NewAutoProvisioned(gbSpec(64000, 384, 0))
		base := 2
		if _, err := c.CreateDeployment("d", gbSpec(500, 2, 0), 0, base, 0); err != nil {
			return false
		}
		before := c.AllocatedMemBytes()
		up := base + int(upRaw%20)
		if err := c.Scale("d", up, 0); err != nil {
			return false
		}
		if err := c.Scale("d", base, 0); err != nil {
			return false
		}
		return c.AllocatedMemBytes() == before
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
