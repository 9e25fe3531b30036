package serving

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/embedding"
	"repro/internal/tensor"
)

// This file is the pull-pool invariant suite (run under -race by the
// race-repartition CI job): no gather is lost or duplicated across
// scale-up, scale-down and kill-replica mid-flight; bounded-queue
// backpressure surfaces the typed error before the caller's deadline
// blows; workers drain to zero on epoch close; the queue-depth autoscaling
// policy is hysteretic and monotone as a pure function; and the
// LiveAutoscaler's per-pool step grows and shrinks a live pool under it,
// capped and spaced by Cooldown.

// countedGather records every successful serve and stamps a canonical
// reply, so the suite can reconcile caller-side and replica-side tallies.
type countedGather struct {
	served atomic.Int64
}

func (c *countedGather) Gather(ctx context.Context, req *GatherRequest, reply *GatherReply) error {
	reply.BatchSize = 1
	reply.Dim = 1
	reply.Pooled = append(reply.Pooled[:0], 42)
	c.served.Add(1)
	return nil
}

// TestPullPoolCountedOracleUnderChurn drives concurrent gathers through a
// pool whose replica set is being scaled up, scaled down and
// killed/revived mid-flight, and reconciles the books: every caller
// succeeds exactly once (at most one replica is dead at a time and
// scale-in never removes the last live one, so failover always has a
// live target), the replicas' combined serve count
// equals the callers' success count (nothing lost, nothing duplicated),
// and no reply is ever corrupted by a failed attempt.
func TestPullPoolCountedOracleUnderChurn(t *testing.T) {
	anchor := &countedGather{}
	pool := NewReplicaPool(anchor)
	defer pool.Close()
	clients := []*countedGather{anchor} // every client ever added
	var clientsMu sync.Mutex

	stopChurn := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(2)
	go func() { // membership churn: add and remove replicas above the anchor
		defer churn.Done()
		rng := rand.New(rand.NewSource(1))
		for {
			select {
			case <-stopChurn:
				return
			default:
			}
			if pool.Size() < 4 && rng.Intn(2) == 0 {
				c := &countedGather{}
				clientsMu.Lock()
				clients = append(clients, c)
				clientsMu.Unlock()
				pool.Add(c)
			} else {
				pool.Remove() // coldest-but-never-last-live; never empties the pool
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	go func() { // fault churn: kill/revive everything but replica 0
		defer churn.Done()
		rng := rand.New(rand.NewSource(2))
		for {
			select {
			case <-stopChurn:
				return
			default:
			}
			if n := pool.Size(); n > 1 {
				i := 1 + rng.Intn(n-1)
				pool.KillReplica(i)
				time.Sleep(100 * time.Microsecond)
				pool.ReviveReplica(i)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	const callers, perCaller = 8, 200
	var succ atomic.Int64
	var wg sync.WaitGroup
	req := &GatherRequest{Indices: []int64{1}, Offsets: []int32{0}}
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perCaller; i++ {
				var reply GatherReply
				if err := pool.Gather(bg, req, &reply); err != nil {
					t.Errorf("gather failed despite a live anchor replica: %v", err)
					return
				}
				if reply.BatchSize != 1 || reply.Dim != 1 || len(reply.Pooled) != 1 || reply.Pooled[0] != 42 {
					t.Errorf("corrupted reply: %+v", reply)
					return
				}
				succ.Add(1)
			}
		}()
	}
	wg.Wait()
	close(stopChurn)
	churn.Wait()

	clientsMu.Lock()
	var served int64
	for _, c := range clients {
		served += c.served.Load()
	}
	clientsMu.Unlock()
	if succ.Load() != callers*perCaller {
		t.Fatalf("caller successes = %d, want %d", succ.Load(), callers*perCaller)
	}
	if served != succ.Load() {
		t.Fatalf("replica serves = %d, caller successes = %d: a gather was lost or duplicated", served, succ.Load())
	}
}

// TestPullPoolMonolithEquivalence checks the pull pool against the
// monolith oracle: a pool of two replica shards over the same table must
// return byte-identical pooled vectors to a direct single-shard gather,
// request for request.
func TestPullPoolMonolithEquivalence(t *testing.T) {
	tab, err := embedding.NewRandomTable("t", 64, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	mono, _ := NewEmbeddingShard(0, 0, tab, 0, 64)
	r1, _ := NewEmbeddingShard(0, 0, tab, 0, 64)
	r2, _ := NewEmbeddingShard(0, 0, tab, 0, 64)
	pool := NewReplicaPool(r1, r2)
	defer pool.Close()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		n := 1 + rng.Intn(4)
		req := &GatherRequest{Offsets: make([]int32, n)}
		for b := 0; b < n; b++ {
			req.Offsets[b] = int32(len(req.Indices))
			for k := 0; k <= rng.Intn(3); k++ {
				req.Indices = append(req.Indices, int64(rng.Intn(64)))
			}
		}
		var want, got GatherReply
		if err := mono.Gather(bg, req, &want); err != nil {
			t.Fatal(err)
		}
		if err := pool.Gather(bg, req, &got); err != nil {
			t.Fatal(err)
		}
		if got.BatchSize != want.BatchSize || got.Dim != want.Dim ||
			!tensor.AlmostEqual(want.Pooled, got.Pooled, 0) {
			t.Fatalf("request %d: pool reply diverged from monolith: %+v vs %+v", i, got, want)
		}
	}
}

// wedgedGather parks every call until released, signalling each start.
type wedgedGather struct {
	calls   atomic.Int64
	started chan struct{}
	release chan struct{}
}

func (b *wedgedGather) Gather(ctx context.Context, req *GatherRequest, reply *GatherReply) error {
	b.calls.Add(1)
	b.started <- struct{}{}
	select {
	case <-b.release:
	case <-ctx.Done():
		return ctx.Err()
	}
	reply.BatchSize = 1
	return nil
}

// TestPullPoolBackpressureTypedError fills a capacity-1 queue behind a
// wedged replica and checks the next enqueue is rejected immediately with
// the typed ErrQueueFull — long before the caller's generous deadline
// could blow.
func TestPullPoolBackpressureTypedError(t *testing.T) {
	wedged := &wedgedGather{started: make(chan struct{}, 4), release: make(chan struct{})}
	pool := NewReplicaPoolOptions(PoolOptions{QueueCapacity: 1, WorkersPerReplica: 1}, wedged)
	defer pool.Close() // after the release below unwedges the worker
	defer close(wedged.release)
	req := &GatherRequest{Indices: []int64{0}, Offsets: []int32{0}}
	go func() { // occupies the single worker
		var reply GatherReply
		_ = pool.Gather(bg, req, &reply)
	}()
	<-wedged.started
	go func() { // occupies the single queue slot
		var reply GatherReply
		_ = pool.Gather(bg, req, &reply)
	}()
	for pool.QueueStats().Depth == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	ctx, cancel := context.WithTimeout(bg, 10*time.Second)
	defer cancel()
	start := time.Now()
	var reply GatherReply
	err := pool.Gather(ctx, req, &reply)
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("backpressure took %v; must reject immediately, not ride the deadline", elapsed)
	}
	if st := pool.QueueStats(); st.Rejected == 0 {
		t.Fatalf("rejection not counted: %+v", st)
	}
}

// TestPullPoolAbandonOnContext cancels a caller whose task is still
// queued behind a wedged replica: the caller must return the context error
// promptly, and the eventually-dequeuing worker must discard the
// abandoned task without serving it.
func TestPullPoolAbandonOnContext(t *testing.T) {
	wedged := &wedgedGather{started: make(chan struct{}, 4), release: make(chan struct{})}
	pool := NewReplicaPoolOptions(PoolOptions{QueueCapacity: 8, WorkersPerReplica: 1}, wedged)
	defer pool.Close()
	req := &GatherRequest{Indices: []int64{0}, Offsets: []int32{0}}
	go func() {
		var reply GatherReply
		_ = pool.Gather(bg, req, &reply)
	}()
	<-wedged.started
	ctx, cancel := context.WithCancel(bg)
	done := make(chan error, 1)
	go func() {
		var reply GatherReply
		done <- pool.Gather(ctx, req, &reply)
	}()
	for pool.QueueStats().Depth == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("abandoned caller did not return promptly")
	}
	close(wedged.release)
	// Let the freed worker dequeue the abandoned task: it must discard it
	// without dispatching to the replica.
	deadline := time.Now().Add(time.Second)
	for pool.QueueStats().Depth > 0 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(5 * time.Millisecond)
	if got := wedged.calls.Load(); got != 1 {
		t.Fatalf("replica saw %d calls, want 1: an abandoned task was dispatched", got)
	}
}

// TestPullPoolDrainsWorkersOnClose closes a pool under concurrent load:
// Close must wait for every worker to exit (claimed tasks finish first),
// queued tasks must fail with the typed ErrPoolClosed instead of hanging,
// and subsequent enqueues must be rejected.
func TestPullPoolDrainsWorkersOnClose(t *testing.T) {
	tab, _ := embedding.NewRandomTable("t", 16, 2, 1)
	s1, _ := NewEmbeddingShard(0, 0, tab, 0, 16)
	s2, _ := NewEmbeddingShard(0, 0, tab, 0, 16)
	pool := NewReplicaPool(s1, s2)
	if got := pool.QueueStats().Workers; got != 2*DefaultWorkersPerReplica {
		t.Fatalf("workers = %d, want %d", got, 2*DefaultWorkersPerReplica)
	}
	req := &GatherRequest{Indices: []int64{1}, Offsets: []int32{0}}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var reply GatherReply
			// In-flight work either completes or fails with the typed
			// close error; it must never hang or corrupt.
			if err := pool.Gather(bg, req, &reply); err != nil && !errors.Is(err, ErrPoolClosed) {
				t.Errorf("unexpected error during close: %v", err)
			}
		}()
	}
	pool.Close()
	wg.Wait()
	if got := pool.QueueStats().Workers; got != 0 {
		t.Fatalf("workers = %d after Close, want 0", got)
	}
	var reply GatherReply
	if err := pool.Gather(bg, req, &reply); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("want ErrPoolClosed after Close, got %v", err)
	}
	pool.Close() // idempotent
}

// TestPullPoolQueuePolicyHysteresis property-checks Decide as a pure
// function: no action inside the [LowDepth, HighDepth] dead band, no two
// actions within the cooldown no matter how hard the signal swings, and
// scale-in never below one replica.
func TestPullPoolQueuePolicyHysteresis(t *testing.T) {
	p := &QueuePolicy{HighDepth: 4, LowDepth: 1, Cooldown: time.Second}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1000, 0)
	long := now.Add(-time.Hour) // stale lastScale: cooldown never gates
	// Dead band: per-replica depth in [LowDepth, HighDepth] holds steady.
	for _, depth := range []float64{1, 2, 3.9, 4} {
		if got := p.Decide(QueueStats{DepthEWMA: depth, Replicas: 1}, long, now); got != 0 {
			t.Fatalf("depth %.1f inside dead band: Decide = %d, want 0", depth, got)
		}
	}
	// Cooldown: immediately after a scale action, even an extreme swing
	// in either direction is ignored until the cooldown elapses.
	last := now
	for _, depth := range []float64{0, 100} {
		st := QueueStats{DepthEWMA: depth, Replicas: 4}
		if got := p.Decide(st, last, now.Add(p.Cooldown/2)); got != 0 {
			t.Fatalf("depth %.1f within cooldown: Decide = %d, want 0", depth, got)
		}
		if got := p.Decide(st, last, now.Add(p.Cooldown*2)); got == 0 {
			t.Fatalf("depth %.1f after cooldown: Decide = 0, want a scale action", depth)
		}
	}
	// Floor: scale-in never empties the pool.
	if got := p.Decide(QueueStats{DepthEWMA: 0, Replicas: 1}, long, now); got != 0 {
		t.Fatalf("Decide = %d at one replica, must not scale in below one", got)
	}
	// Simulated ramp with the cooldown enforced: the controller may act at
	// most once per cooldown window, so over a 10-tick overload ramp the
	// actions are spaced, not flapping.
	lastScale := long
	actions := 0
	var lastAction time.Time
	for tick := 0; tick < 10; tick++ {
		at := now.Add(time.Duration(tick) * 300 * time.Millisecond)
		st := QueueStats{DepthEWMA: 50, Replicas: 2}
		if d := p.Decide(st, lastScale, at); d != 0 {
			if actions > 0 && at.Sub(lastAction) < p.Cooldown {
				t.Fatalf("two scale actions %v apart, cooldown is %v", at.Sub(lastAction), p.Cooldown)
			}
			actions++
			lastAction = at
			lastScale = at
		}
	}
	if actions == 0 {
		t.Fatal("sustained overload never scaled")
	}
}

// TestLiveAutoscalerQueuePolicyScalesOut drives the queue-depth policy
// against a live pull pool: with every gather stalled (fault injection)
// and one worker per replica, an 8-way burst leaves most of itself waiting
// in the shard queue, so the per-replica depth EWMA clears HighDepth at
// every scale-out decision by >= 3x (worked from the alpha = 0.2 EWMA over
// enqueue-time samples max(0, i-replicas), i = 0..7). Scale-in needs the
// EWMA to decay, and it only moves on enqueues, so "the load stops" is a
// sequential trickle with the stall removed.
func TestLiveAutoscalerQueuePolicyScalesOut(t *testing.T) {
	const rows, maxReplicas, burst = 4_000, 3, 8
	tab, err := embedding.NewRandomTable("qds", rows, 16, 3)
	if err != nil {
		t.Fatal(err)
	}
	newShard := func(replica int) GatherClient {
		s, err := NewEmbeddingShard(0, replica, tab, 0, rows)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	pool := NewReplicaPoolOptions(PoolOptions{WorkersPerReplica: 1}, newShard(0))
	defer pool.Close()
	pool.InjectDelay(20 * time.Millisecond)

	type step struct{ from, to int }
	var steps []step
	as := &LiveAutoscaler{
		Queue:       &QueuePolicy{HighDepth: 0.4, LowDepth: 0.1, Cooldown: time.Minute},
		MaxReplicas: maxReplicas,
		OnScale: func(_ string, _, _, from, to int) {
			steps = append(steps, step{from, to})
		},
	}
	spawned := 0
	spawn := func() (GatherClient, error) {
		spawned++
		return newShard(spawned), nil
	}
	// last is when the pool last scaled, as the loop's tick carries it.
	var last time.Time
	decide := func(now time.Time) int {
		last = as.scale("qds", 0, 0, pool, spawn, last, now)
		return pool.Size()
	}
	req := &GatherRequest{Indices: []int64{1, 2, 3}, Offsets: []int32{0}}
	fire := func(concurrent int) {
		t.Helper()
		var wg sync.WaitGroup
		for c := 0; c < concurrent; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var reply GatherReply
				if err := pool.Gather(bg, req, &reply); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
	wantSteps := func(when string, want ...step) {
		t.Helper()
		if pool.Size() != want[len(want)-1].to || !reflect.DeepEqual(steps, want) {
			t.Fatalf("%s: size %d after OnScale %v, want %v", when, pool.Size(), steps, want)
		}
	}

	// First burst, on the wall clock.
	fire(burst)
	if got := decide(time.Now()); got != 2 {
		t.Fatalf("replicas = %d after the first burst (stats %+v), want 2", got, pool.QueueStats())
	}
	wantSteps("first burst", step{1, 2})
	// Still overloaded, but inside Cooldown of the last decision.
	fire(burst)
	decide(time.Now())
	wantSteps("inside cooldown", step{1, 2})
	// From here the clock is injected: each decision one Cooldown later.
	now := time.Now()
	tick := func() time.Time {
		now = now.Add(2 * as.Queue.Cooldown)
		return now
	}
	decide(tick())
	wantSteps("second decision", step{1, 2}, step{2, 3})
	// At MaxReplicas further pressure adds nothing and spawns nothing.
	fire(burst)
	decide(tick())
	wantSteps("at the cap", step{1, 2}, step{2, 3})
	if spawned != maxReplicas-1 {
		t.Fatalf("spawned %d replicas, want %d", spawned, maxReplicas-1)
	}

	// Load stops: the EWMA decays below LowDepth and the pool shrinks one
	// replica per Cooldown, never below one.
	pool.InjectDelay(0)
	for i := 0; i < 40; i++ {
		fire(1)
	}
	decide(tick())
	wantSteps("first scale-in", step{1, 2}, step{2, 3}, step{3, 2})
	decide(now) // same instant: Cooldown gates
	wantSteps("scale-in inside cooldown", step{1, 2}, step{2, 3}, step{3, 2})
	decide(tick())
	decide(tick())
	wantSteps("floor", step{1, 2}, step{2, 3}, step{3, 2}, step{2, 1})
}

// TestPullPoolQueuePolicyMonotone property-checks monotonicity: holding
// everything else fixed, a deeper queue never produces a smaller scaling
// response.
func TestPullPoolQueuePolicyMonotone(t *testing.T) {
	p := &QueuePolicy{HighDepth: 4, LowDepth: 1}
	long := time.Unix(0, 0)
	now := time.Unix(1000, 0)
	for _, replicas := range []int{1, 2, 4, 8} {
		prev := -2
		for depth := 0.0; depth <= 100; depth += 0.25 {
			got := p.Decide(QueueStats{DepthEWMA: depth, Replicas: replicas}, long, now)
			if got < prev {
				t.Fatalf("replicas=%d: Decide fell from %d to %d as depth rose to %.2f", replicas, prev, got, depth)
			}
			prev = got
		}
		if prev != 1 {
			t.Fatalf("replicas=%d: extreme depth must scale out, got %d", replicas, prev)
		}
	}
	// Nil policy and unset thresholds are inert.
	var nilPolicy *QueuePolicy
	if nilPolicy.Decide(QueueStats{DepthEWMA: 100, Replicas: 1}, long, now) != 0 {
		t.Fatal("nil policy must not scale")
	}
}
