package serving

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/embedding"
)

// poolFixture builds a pool of n healthy shard replicas over one table.
func poolFixture(t *testing.T, n int) *ReplicaPool {
	t.Helper()
	tab, err := embedding.NewRandomTable("t", 100, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	var replicas []GatherClient
	for i := 0; i < n; i++ {
		shard, err := NewEmbeddingShard(0, 0, tab, 0, 100)
		if err != nil {
			t.Fatal(err)
		}
		replicas = append(replicas, shard)
	}
	pool := NewReplicaPool(replicas...)
	t.Cleanup(pool.Close)
	return pool
}

// TestKillReplicaFailsOverWithoutClientErrors is the fault-injection
// contract the scenario harness relies on: a killed replica keeps pulling
// (so it takes hits) but every hit fails over to a survivor,
// invisible to clients — including under concurrency.
func TestKillReplicaFailsOverWithoutClientErrors(t *testing.T) {
	pool := poolFixture(t, 2)
	if !pool.KillReplica(0) {
		t.Fatal("KillReplica(0) refused")
	}
	if live, size := pool.Live(), pool.Size(); live != 1 || size != 2 {
		t.Fatalf("want 1/2 live, got %d/%d", live, size)
	}
	req := &GatherRequest{Indices: []int64{1, 2}, Offsets: []int32{0}}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				var reply GatherReply
				if err := pool.Gather(bg, req, &reply); err != nil {
					errs <- err
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("gather failed with a live survivor: %v", err)
	}
}

func TestKillAllRepliesThenRevive(t *testing.T) {
	pool := poolFixture(t, 2)
	pool.KillReplica(0)
	pool.KillReplica(1)
	if pool.Live() != 0 {
		t.Fatalf("want 0 live, got %d", pool.Live())
	}
	req := &GatherRequest{Indices: []int64{1}, Offsets: []int32{0}}
	var reply GatherReply
	if err := pool.Gather(bg, req, &reply); err == nil {
		t.Fatal("want error with every replica down")
	}
	if !pool.ReviveReplica(1) {
		t.Fatal("ReviveReplica(1) refused")
	}
	if pool.Live() != 1 {
		t.Fatalf("want 1 live after revive, got %d", pool.Live())
	}
	if err := pool.Gather(bg, req, &reply); err != nil {
		t.Fatalf("gather after revive: %v", err)
	}
	// Out-of-range indices are rejected, not silently ignored.
	if pool.KillReplica(5) || pool.ReviveReplica(-1) {
		t.Fatal("out-of-range replica index accepted")
	}
}

func TestInjectDelayStallsGather(t *testing.T) {
	pool := poolFixture(t, 1)
	req := &GatherRequest{Indices: []int64{1}, Offsets: []int32{0}}
	var reply GatherReply

	pool.InjectDelay(30 * time.Millisecond)
	if got := time.Duration(pool.delay.Load()); got != 30*time.Millisecond {
		t.Fatalf("injected delay = %v", got)
	}
	start := time.Now()
	if err := pool.Gather(bg, req, &reply); err != nil {
		t.Fatalf("gather with delay: %v", err)
	}
	if took := time.Since(start); took < 30*time.Millisecond {
		t.Fatalf("delay not applied: gather took %v", took)
	}

	// Clearing the injection restores normal latency.
	pool.InjectDelay(0)
	start = time.Now()
	if err := pool.Gather(bg, req, &reply); err != nil {
		t.Fatalf("gather after clearing delay: %v", err)
	}
	if took := time.Since(start); took > 20*time.Millisecond {
		t.Fatalf("delay persisted after clear: gather took %v", took)
	}
}

func TestInjectDelayHonorsContext(t *testing.T) {
	pool := poolFixture(t, 1)
	pool.InjectDelay(5 * time.Second)
	ctx, cancel := context.WithTimeout(bg, 20*time.Millisecond)
	defer cancel()
	var reply GatherReply
	start := time.Now()
	err := pool.Gather(ctx, &GatherRequest{Indices: []int64{1}, Offsets: []int32{0}}, &reply)
	if err == nil {
		t.Fatal("want ctx error from a stalled gather")
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("gather ignored ctx cancellation for %v", took)
	}
}
