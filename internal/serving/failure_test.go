package serving

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/embedding"
)

// flakyClient fails the first failures calls, then delegates. Calls is
// atomic because a pull pool's workers may drive one replica concurrently.
type flakyClient struct {
	failures int64
	calls    atomic.Int64
	inner    GatherClient
}

func (f *flakyClient) Gather(ctx context.Context, req *GatherRequest, reply *GatherReply) error {
	if n := f.calls.Add(1); n <= f.failures {
		return fmt.Errorf("flaky: injected failure %d", n)
	}
	return f.inner.Gather(ctx, req, reply)
}

// corruptingClient scribbles partial fields into the reply, then fails —
// the shape of a replica dying mid-serialization.
type corruptingClient struct{ calls atomic.Int64 }

func (c *corruptingClient) Gather(ctx context.Context, req *GatherRequest, reply *GatherReply) error {
	c.calls.Add(1)
	reply.BatchSize = 999
	reply.Dim = 999
	reply.Pooled = []float32{1e9, 1e9}
	return fmt.Errorf("corrupting: died mid-reply")
}

func TestReplicaPoolFailsOverToHealthyReplica(t *testing.T) {
	tab, err := embedding.NewRandomTable("t", 100, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := NewEmbeddingShard(0, 0, tab, 0, 100)
	if err != nil {
		t.Fatal(err)
	}
	dead := &flakyClient{failures: 1 << 30, inner: healthy}
	pool := NewReplicaPool(dead, healthy)
	defer pool.Close()
	req := &GatherRequest{Indices: []int64{1, 2}, Offsets: []int32{0}}
	// Every call must succeed despite the dead replica in rotation.
	for i := 0; i < 10; i++ {
		var reply GatherReply
		if err := pool.Gather(bg, req, &reply); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}

// appendingClient appends its pooled answer instead of assigning it —
// legitimate under the pool contract (every attempt starts from a zeroed
// reply), and exactly the behavior that exposes a missing reset: leaked
// garbage from a failed attempt shows up as extra elements.
type appendingClient struct{}

func (appendingClient) Gather(ctx context.Context, req *GatherRequest, reply *GatherReply) error {
	reply.BatchSize = 1
	reply.Dim = 4
	reply.Pooled = append(reply.Pooled, 0.5, 0.5, 0.5, 0.5)
	return nil
}

// TestReplicaPoolFailoverResetsReply is the regression test for the
// reply-reuse bug: a failed replica that leaves partial fields behind must
// not contaminate the reply a later healthy replica fills in.
func TestReplicaPoolFailoverResetsReply(t *testing.T) {
	corrupt := &corruptingClient{}
	pool := NewReplicaPool(corrupt, appendingClient{})
	defer pool.Close()
	req := &GatherRequest{Indices: []int64{1}, Offsets: []int32{0}}
	// Pull model: whichever idle worker claims a task serves it, so drive
	// a concurrent burst — the backlog forces every worker (the corrupting
	// replica's included) to pull, and each failed attempt must fail over
	// with a reset reply.
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var reply GatherReply
			if err := pool.Gather(bg, req, &reply); err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			if reply.BatchSize != 1 || reply.Dim != 4 || len(reply.Pooled) != 4 {
				t.Errorf("call %d: corrupted attempt leaked through failover: %+v", i, reply)
			}
		}()
	}
	wg.Wait()
	if corrupt.calls.Load() == 0 {
		t.Fatal("the corrupting replica's workers never pulled a gather")
	}
}

func TestReplicaPoolAllReplicasDown(t *testing.T) {
	dead1 := &flakyClient{failures: 1 << 30}
	dead2 := &flakyClient{failures: 1 << 30}
	pool := NewReplicaPool(dead1, dead2)
	defer pool.Close()
	var reply GatherReply
	err := pool.Gather(bg, &GatherRequest{Indices: []int64{0}, Offsets: []int32{0}}, &reply)
	if err == nil {
		t.Fatal("want error when every replica fails")
	}
	if !strings.Contains(err.Error(), "all 2 replicas failed") {
		t.Fatalf("error %q lacks failover context", err)
	}
}

func TestReplicaPoolTransientFailureRecovers(t *testing.T) {
	tab, _ := embedding.NewRandomTable("t", 100, 4, 1)
	healthy, _ := NewEmbeddingShard(0, 0, tab, 0, 100)
	flaky := &flakyClient{failures: 2, inner: healthy}
	pool := NewReplicaPool(flaky)
	defer pool.Close()
	req := &GatherRequest{Indices: []int64{1}, Offsets: []int32{0}}
	var reply GatherReply
	// Single replica: first calls fail outright (no other replica).
	if err := pool.Gather(bg, req, &reply); err == nil {
		t.Fatal("want failure during the flaky window")
	}
	if err := pool.Gather(bg, req, &reply); err == nil {
		t.Fatal("want failure during the flaky window")
	}
	// After the transient window the same pool recovers.
	if err := pool.Gather(bg, req, &reply); err != nil {
		t.Fatalf("recovered replica still failing: %v", err)
	}
}

func TestPredictSurvivesShardReplicaFailure(t *testing.T) {
	cfg := liveConfig()
	m, stats, gen := buildFixture(t, cfg)
	ld, err := BuildElastic(m, stats, []int64{100, cfg.RowsPerTable}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()
	// Poison every pool with a dead replica alongside the healthy one;
	// predictions must keep succeeding via failover.
	rt := ld.Table()
	for t2 := range rt.Pools {
		for s := range rt.Pools[t2] {
			rt.Pools[t2][s].Add(&flakyClient{failures: 1 << 30})
		}
	}
	for i := 0; i < 10; i++ {
		req := makeRequest(cfg, gen, uint64(i))
		var reply PredictReply
		if err := ld.Predict(bg, req, &reply); err != nil {
			t.Fatalf("query %d failed despite healthy replicas: %v", i, err)
		}
	}
}

func TestPredictFailsWhenShardUnavailable(t *testing.T) {
	cfg := liveConfig()
	m, stats, gen := buildFixture(t, cfg)
	ld, err := BuildElastic(m, stats, []int64{100, cfg.RowsPerTable}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()
	// Publish a routing epoch whose (0,0) client is a dead pool: the
	// dense shard must surface the failure. Building the broken epoch
	// from the live one exercises the same path a bad repartition would.
	rt := ld.Table()
	// Publishing the hand-assembled epoch below displaces this built one,
	// so ld.Close (which closes only the current epoch) will never reach
	// its shard units — release them explicitly once the test is done.
	defer rt.Close()
	clients := make([][]GatherClient, len(rt.Clients))
	for t2 := range rt.Clients {
		clients[t2] = append([]GatherClient(nil), rt.Clients[t2]...)
	}
	brokenPool := NewReplicaPool(&flakyClient{failures: 1 << 30})
	defer brokenPool.Close()
	clients[0][0] = brokenPool
	broken, err := NewRoutingTable(rt.Epoch+1, cfg, rt.Pre, rt.Boundaries, clients)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ld.Router.PublishModel(DefaultModel, broken); err != nil {
		t.Fatal(err)
	}
	req := makeRequest(cfg, gen, 1)
	var reply PredictReply
	if err := ld.Predict(bg, req, &reply); err == nil {
		t.Fatal("want error when a required shard is unavailable")
	}
}
