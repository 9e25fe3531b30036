package serving

import (
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/embedding"
)

// This file checks the frontend control loop against a live
// MultiDeployment: it finds what is served on every tick (a model deployed
// after Start, the fresh pools of a swapped epoch), keeps firing state per
// deployment so models swap on independent cadences, lets go of whatever
// was undeployed, and leaves open profiling windows alone.

// samePlan is a Replan that keeps the named model's current boundaries:
// the swap still happens, on the fresh window.
func samePlan(md *MultiDeployment) func(string, []*embedding.AccessStats) ([]int64, error) {
	return func(name string, _ []*embedding.AccessStats) ([]int64, error) {
		ld, ok := md.Deployment(name)
		if !ok {
			return nil, fmt.Errorf("no model %q", name)
		}
		return ld.Boundaries(), nil
	}
}

// serveFixture sends reqs[name][from:to] through the frontend.
func serveFixture(t *testing.T, md *MultiDeployment, reqs map[string][]*PredictRequest, name string, from, to int) {
	t.Helper()
	for _, req := range reqs[name][from:to] {
		var reply PredictReply
		if err := md.Predict(bg, req, &reply); err != nil {
			t.Fatal(err)
		}
	}
}

// epochPools lists every shard pool of the deployment's current epoch.
func epochPools(ld *LiveDeployment) []*ReplicaPool {
	var out []*ReplicaPool
	for _, row := range ld.Table().Pools {
		out = append(out, row...)
	}
	return out
}

func TestRepartitionPolicyTrigger(t *testing.T) {
	p := &RepartitionPolicy{MinSkew: 0.5, MinRequests: 100, MinInterval: time.Minute}
	now := time.Unix(1000, 0)
	var never time.Time
	// Healthy skew (strongly concentrated utility) never fires.
	if p.Decide(0.8, 500, never, now) {
		t.Fatal("healthy skew fired")
	}
	// A flattened profile fires only after the warm-up request count.
	if p.Decide(0.1, 50, never, now) {
		t.Fatal("fired during warm-up")
	}
	if !p.Decide(0.1, 500, never, now) {
		t.Fatal("stale epoch did not fire")
	}
	// Re-firing is suppressed inside MinInterval, allowed after it.
	if p.Decide(0.1, 500, now, now.Add(30*time.Second)) {
		t.Fatal("re-fired inside MinInterval")
	}
	if !p.Decide(0.1, 500, now, now.Add(2*time.Minute)) {
		t.Fatal("did not re-fire after MinInterval")
	}
}

// TestLiveAutoscalerIndependentCadence runs the skew trigger over two
// served models off one shared policy and checks model A's firing does
// not consume model B's interval (and vice versa): firing times are kept
// per deployment.
func TestLiveAutoscalerIndependentCadence(t *testing.T) {
	md, _, reqs := multiFixture(t, BuildOptions{}, BuildOptions{})
	fired := map[string]int{}
	as := &LiveAutoscaler{
		Frontend: md,
		// Every epoch is stale (skew < 2); the one-dispatch warm-up is
		// what keeps an unserved model quiet.
		Repartition: &RepartitionPolicy{MinSkew: 2, MinRequests: 1, MinInterval: time.Hour},
		Replan:      samePlan(md),
		OnRepartition: func(name string, _ int64, err error) {
			if err != nil {
				t.Errorf("repartition %s: %v", name, err)
			}
			fired[name]++
		},
	}
	for _, name := range []string{"a", "b"} {
		ld, _ := md.Deployment(name)
		ld.StartProfile()
	}
	now := time.Now()
	serveFixture(t, md, reqs, "a", 0, 4)
	as.tick(now)
	if fired["a"] != 1 || fired["b"] != 0 {
		t.Fatalf("fired %v, want model a only", fired)
	}
	serveFixture(t, md, reqs, "a", 4, 8)
	serveFixture(t, md, reqs, "b", 0, 4)
	as.tick(now.Add(time.Minute))
	if fired["a"] != 1 {
		t.Fatal("model a re-fired inside its interval")
	}
	// A's firing must not have consumed B's interval.
	if fired["b"] != 1 {
		t.Fatal("model b was throttled by model a's firing")
	}
	// After A's interval elapses, A may fire again.
	serveFixture(t, md, reqs, "a", 8, 12)
	as.tick(now.Add(2 * time.Hour))
	if fired["a"] != 2 {
		t.Fatal("model a did not recover after its interval")
	}
}

// TestLiveAutoscalerScalesModelDeployedAfterStart deploys a model over the
// admin API while the loop runs and checks its pools are scaled with no
// call other than the deploy: the loop finds the model on its own.
func TestLiveAutoscalerScalesModelDeployedAfterStart(t *testing.T) {
	md, _, _ := multiFixture(t, BuildOptions{}, BuildOptions{})
	addr, err := md.ExportPredict("Frontend")
	if err != nil {
		t.Fatal(err)
	}
	admin, err := DialAdmin(addr, "Frontend")
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()

	var mu sync.Mutex
	scaled := map[string]int{}
	as := &LiveAutoscaler{
		Frontend:    md,
		Interval:    5 * time.Millisecond,
		Queue:       &QueuePolicy{HighDepth: 1, LowDepth: 0.5},
		MaxReplicas: 2,
		OnScale: func(name string, _, _, from, to int) {
			mu.Lock()
			scaled[name] += to - from
			mu.Unlock()
		},
	}
	as.Start()
	defer as.Stop()

	cfgC := lifecycleCfgC()
	_, statsC, _ := buildFixture(t, cfgC)
	counts := make([][]int64, len(statsC))
	for tb, st := range statsC {
		counts[tb] = st.Counts
	}
	var reply AdminDeployReply
	if err := admin.Deploy(bg, &AdminDeployRequest{
		Name: "c", Config: cfgC, Seed: 123,
		Counts: counts, Boundaries: []int64{100, 400, cfgC.RowsPerTable},
	}, &reply); err != nil {
		t.Fatal(err)
	}
	ldC, _ := md.Deployment("c")
	pools := epochPools(ldC)
	for _, pool := range pools {
		pool.noteDepth(10) // a backlog no single replica can answer
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		grown := 0
		for _, pool := range pools {
			if pool.Size() == 2 {
				grown++
			}
		}
		if grown == len(pools) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of c's %d pools scaled out within 10 s", grown, len(pools))
		}
		time.Sleep(5 * time.Millisecond)
	}
	as.Stop()
	if scaled["c"] != len(pools) || scaled["a"] != 0 || scaled["b"] != 0 {
		t.Fatalf("scale actions %v, want +%d on c only", scaled, len(pools))
	}
}

// TestLiveAutoscalerForgetsUndeployedModel checks that the tick after an
// undeploy holds no state for the retired deployment or its pools, and
// that a redeploy of the same name fires at once instead of inheriting the
// retired model's firing time.
func TestLiveAutoscalerForgetsUndeployedModel(t *testing.T) {
	md, _, _ := multiFixture(t, BuildOptions{}, BuildOptions{})
	ctrl := md.Controller()
	cfgC := lifecycleCfgC()
	mC, statsC, _ := buildFixture(t, cfgC)
	deployC := func() *LiveDeployment {
		t.Helper()
		if err := ctrl.Deploy(bg, ModelSpec{
			Name: "c", Model: mC, Stats: statsC,
			Boundaries: []int64{100, 400, cfgC.RowsPerTable},
		}); err != nil {
			t.Fatal(err)
		}
		ld, _ := md.Deployment("c")
		return ld
	}
	fired := map[string]int{}
	as := &LiveAutoscaler{
		Frontend:    md,
		Queue:       &QueuePolicy{HighDepth: 1, LowDepth: 0.5},
		Repartition: &RepartitionPolicy{MinSkew: 2, MinInterval: time.Hour},
		Replan:      samePlan(md),
		OnRepartition: func(name string, _ int64, err error) {
			if err != nil {
				t.Errorf("repartition %s: %v", name, err)
			}
			fired[name]++
		},
	}

	ldC := deployC()
	now := time.Now()
	as.tick(now)
	if fired["c"] != 1 {
		t.Fatalf("c fired %d times on its first tick, want 1", fired["c"])
	}
	as.tick(now.Add(time.Minute))
	if fired["c"] != 1 {
		t.Fatal("c re-fired inside its interval")
	}
	poolsC := epochPools(ldC)
	if _, ok := as.lastFire[ldC]; !ok {
		t.Fatal("the loop holds no firing state for a served model")
	}
	for _, pool := range poolsC {
		if _, ok := as.lastScale[pool]; !ok {
			t.Fatal("the loop holds no scaling state for a served pool")
		}
	}

	if err := ctrl.Undeploy(bg, "c"); err != nil {
		t.Fatal(err)
	}
	as.tick(now.Add(2 * time.Minute))
	if _, ok := as.lastFire[ldC]; ok {
		t.Fatal("the loop still holds the retired deployment")
	}
	for i, pool := range poolsC {
		if _, ok := as.lastScale[pool]; ok {
			t.Fatalf("the loop still holds the retired deployment's pool %d", i)
		}
	}

	deployC()
	as.tick(now.Add(3 * time.Minute))
	if fired["c"] != 2 {
		t.Fatal("a redeployed name inherited the retired model's firing time")
	}
}

// TestLiveAutoscalerScalesSwappedEpochPools checks that after a
// skew-triggered swap the next tick scales the new epoch's fresh pools.
func TestLiveAutoscalerScalesSwappedEpochPools(t *testing.T) {
	md, _, reqs := multiFixture(t, BuildOptions{}, BuildOptions{})
	ldA, _ := md.Deployment("a")
	cfgA := liveConfig()
	var swapped []string
	as := &LiveAutoscaler{
		Frontend:    md,
		Queue:       &QueuePolicy{HighDepth: 1, LowDepth: 0.5},
		MaxReplicas: 2,
		// Only a serves, so only a fires; its new plan moves every cut,
		// so every pool of the new epoch is fresh.
		Repartition: &RepartitionPolicy{MinSkew: 2, MinRequests: 1, MinInterval: time.Hour},
		Replan: func(string, []*embedding.AccessStats) ([]int64, error) {
			return []int64{80, 300, cfgA.RowsPerTable}, nil
		},
		OnRepartition: func(name string, _ int64, err error) {
			if err != nil {
				t.Errorf("repartition %s: %v", name, err)
			}
			swapped = append(swapped, name)
		},
	}
	old := map[*ReplicaPool]bool{}
	for _, pool := range epochPools(ldA) {
		old[pool] = true
	}
	ldA.StartProfile()
	serveFixture(t, md, reqs, "a", 0, 8)
	now := time.Now()
	as.tick(now)
	if len(swapped) != 1 || ldA.Epoch() != 1 {
		t.Fatalf("swaps %v, epoch %d; want a swapped to epoch 1", swapped, ldA.Epoch())
	}
	var fresh []*ReplicaPool
	for _, pool := range epochPools(ldA) {
		if !old[pool] {
			fresh = append(fresh, pool)
			pool.noteDepth(10)
		}
	}
	if len(fresh) == 0 {
		t.Fatal("the swap built no fresh pools")
	}
	as.tick(now.Add(time.Second))
	for i, pool := range fresh {
		if pool.Size() != 2 {
			t.Fatalf("fresh pool %d has %d replicas after the tick, want 2", i, pool.Size())
		}
	}
}

// TestLiveAutoscalerKeepsOpenProfileWindows checks that a loop started
// over live models keeps the profiling windows they already have open —
// the accumulated profile survives — and opens one on a model without.
func TestLiveAutoscalerKeepsOpenProfileWindows(t *testing.T) {
	md, _, reqs := multiFixture(t, BuildOptions{}, BuildOptions{})
	ldA, _ := md.Deployment("a")
	ldB, _ := md.Deployment("b")
	ldA.StartProfile()
	serveFixture(t, md, reqs, "a", 0, 4)

	as := &LiveAutoscaler{
		Frontend: md,
		Interval: time.Millisecond,
		// Never fires: only the window handling is under test.
		Repartition: &RepartitionPolicy{MinSkew: 0.5, MinRequests: math.MaxInt64, MinInterval: time.Hour},
		Replan: func(string, []*embedding.AccessStats) ([]int64, error) {
			return nil, fmt.Errorf("not triggered in this test")
		},
	}
	as.Start()
	deadline := time.Now().Add(10 * time.Second)
	for ldB.profile.Load() == nil {
		if time.Now().After(deadline) {
			as.Stop()
			t.Fatal("the loop did not open a profiling window on a model without one")
		}
		time.Sleep(time.Millisecond)
	}
	as.Stop()
	stats := ldA.SnapshotProfile()
	if stats == nil {
		t.Fatal("the loop closed an open profiling window")
	}
	var total int64
	for _, st := range stats {
		total += st.Total
	}
	if total == 0 {
		t.Fatal("the loop discarded the accumulated profile")
	}
}
