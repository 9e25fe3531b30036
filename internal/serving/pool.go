package serving

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the pull-based shard worker pool. Callers enqueue gathers
// onto a bounded per-shard queue and replica workers pull from it: Gather
// is enqueue + wait, the workers own the actual RPC call, and replica
// membership (autoscaling, fault injection) is a property of who is
// pulling. That is what lets the autoscaler size a shard's replica set
// from queue pressure (depth + service-time EWMAs, see QueueStats and
// QueuePolicy) inside a swap epoch, instead of waiting for a repartition.
//
// Memory-safety contract: the dense shard recycles a gather's request and
// reply scratch immediately after the call returns, so a worker must NEVER
// touch a task's req/reply once the caller's enqueue-and-wait has
// returned. The task state machine enforces it: a caller whose context
// expires abandons the task with a pending→abandoned CAS and only then
// returns; a worker claims a task with a pending→running CAS and drops
// abandoned tasks without reading them; once a task is running, the caller
// waits for the worker's completion no matter what.

// Typed queue errors. Callers (and the failover path) detect them with
// errors.Is; everything the pool returns wraps one of these or a replica's
// own error.
var (
	// ErrQueueFull is the backpressure signal: the shard's bounded work
	// queue is at capacity and the enqueue was rejected immediately,
	// before the caller's deadline could blow. Admission layers shed on
	// it; the scenario collector counts it as a failed request.
	ErrQueueFull = errors.New("serving: shard queue full")
	// ErrPoolClosed marks work rejected because the pool's epoch closed
	// (shard unit teardown drains workers to zero before transports drop).
	ErrPoolClosed = errors.New("serving: pool is closed")
)

// Pull-pool sizing defaults (see PoolOptions).
const (
	// DefaultQueueCapacity bounds each shard's work queue. Deep enough to
	// absorb a flash-crowd burst while the autoscaler reacts; shallow
	// enough that a wedged shard rejects new work in O(queue/service)
	// time instead of queueing until every deadline blows.
	DefaultQueueCapacity = 256
	// DefaultWorkersPerReplica is how many pull workers service one
	// replica concurrently — >1 so a pipelined TCP replica keeps multiple
	// gathers in flight.
	DefaultWorkersPerReplica = 4

	// ewmaAlpha smooths the depth/service-time signals the queue
	// autoscaler policy reads.
	ewmaAlpha = 0.2
	// handoffBackoff is the pause a worker takes after re-enqueueing a
	// task its own replica already failed, so it doesn't spin while the
	// surviving replicas' workers are busy.
	handoffBackoff = 100 * time.Microsecond
)

// Texts of the pool's own errors.
const (
	errPoolScope     = "serving: replica pool"
	errPoolEmpty     = "serving: replica pool is empty"
	errPoolAllFailed = "serving: all %d replicas failed: %w"
)

// PoolOptions sizes a pull pool.
type PoolOptions struct {
	// QueueCapacity bounds the per-shard work queue (0 selects
	// DefaultQueueCapacity). Enqueues beyond it fail with ErrQueueFull.
	QueueCapacity int
	// WorkersPerReplica is the number of pull workers per replica (0
	// selects DefaultWorkersPerReplica).
	WorkersPerReplica int
}

// QueueStats is a pull pool's pressure snapshot — the autoscaler's raw
// signal, also surfaced per shard through Admin.Status.
type QueueStats struct {
	// Depth is the instantaneous queue length; Capacity its bound.
	Depth    int
	Capacity int
	// DepthEWMA smooths Depth over recent enqueues; ServiceEWMA smooths
	// successful dispatch latency. DepthEWMA/Replicas vs QueuePolicy's
	// thresholds is the scale decision.
	DepthEWMA   float64
	ServiceEWMA time.Duration
	// Replicas / LiveReplicas / Workers describe who is pulling.
	Replicas     int
	LiveReplicas int
	Workers      int
	// Enqueued / Rejected count lifetime admissions and ErrQueueFull
	// rejections.
	Enqueued int64
	Rejected int64
}

// Task states: a caller abandons only while pending; a worker serves only
// after winning the pending→running claim.
const (
	taskPending int32 = iota
	taskRunning
	taskAbandoned
)

// pullTask is one enqueued gather. Tasks are recycled through a sync.Pool:
// exactly one party recycles each task — the caller after receiving its
// done signal, or a worker that dequeues an abandoned one.
type pullTask struct {
	ctx   context.Context
	req   *GatherRequest
	reply *GatherReply
	state atomic.Int32
	done  chan error // buffered 1; empty whenever the task is recycled

	attemptedBy []int // replica ids that already failed this task
	attempts    int
	lastErr     error
}

// tried reports whether replica id already failed this task.
func (t *pullTask) tried(id int) bool {
	for _, v := range t.attemptedBy {
		if v == id {
			return true
		}
	}
	return false
}

// poolReplica is one pulling replica: a client plus the fault-injection
// dead flag and the stop signal its workers watch. added and busy feed
// the scale-in utilization ranking (see Remove).
type poolReplica struct {
	id     int
	client GatherClient
	dead   atomic.Bool
	stop   chan struct{}
	once   sync.Once

	added time.Time
	busy  atomic.Int64 // cumulative successful service time, nanoseconds
}

// utilization is the fraction of the replica's pool lifetime spent
// serving successful calls (capped at 1; a replica's workers can overlap
// calls, but the cap keeps the ranking monotone).
func (r *poolReplica) utilization(now time.Time) float64 {
	alive := now.Sub(r.added)
	if alive <= 0 {
		return 0
	}
	u := float64(r.busy.Load()) / float64(alive)
	if u > 1 {
		u = 1
	}
	return u
}

// halt stops the replica's workers (idempotent).
func (r *poolReplica) halt() { r.once.Do(func() { close(r.stop) }) }

// ReplicaPool serves one shard's gathers through a pull pool: Gather
// enqueues onto the shard's bounded queue and waits; the shard's replica
// workers pull, dispatch and fail over. Replicas can be added and removed
// at runtime, which is how the live autoscaler scales a shard's
// microservice in and out from queue pressure, within a swap epoch.
//
// The pool also carries the serving layer's fault-injection hooks, used by
// the scenario harness (internal/scenario) to rehearse failures against a
// live deployment: KillReplica marks one replica dead — its workers fail
// every task they pull, like a crashed pod, and the request-level failover
// hands the task to the survivors — and InjectDelay stalls every call
// through the pool by a fixed latency, modeling a degraded node.
type ReplicaPool struct {
	queue             chan *pullTask
	workersPerReplica int

	mu       sync.RWMutex // guards replicas, closed, nextID; enqueue holds RLock
	replicas []*poolReplica
	closed   bool
	nextID   int

	wg      sync.WaitGroup
	workers atomic.Int64

	delay atomic.Int64 // injected per-call latency, nanoseconds

	depth    atomic.Int64
	enqueued atomic.Int64
	rejected atomic.Int64

	statsMu     sync.Mutex
	depthEWMA   float64
	serviceEWMA float64 // nanoseconds

	tasks sync.Pool
}

// NewReplicaPool creates a pool over the given replicas with default
// queue sizing.
func NewReplicaPool(replicas ...GatherClient) *ReplicaPool {
	return NewReplicaPoolOptions(PoolOptions{}, replicas...)
}

// NewReplicaPoolOptions creates a pool with explicit queue sizing.
func NewReplicaPoolOptions(opts PoolOptions, replicas ...GatherClient) *ReplicaPool {
	capacity := opts.QueueCapacity
	if capacity <= 0 {
		capacity = DefaultQueueCapacity
	}
	workers := opts.WorkersPerReplica
	if workers <= 0 {
		workers = DefaultWorkersPerReplica
	}
	p := &ReplicaPool{
		queue:             make(chan *pullTask, capacity),
		workersPerReplica: workers,
	}
	p.tasks.New = func() any {
		return &pullTask{done: make(chan error, 1)}
	}
	for _, c := range replicas {
		p.Add(c)
	}
	return p
}

// putTask recycles a task. The caller must hold exclusive ownership and
// the done channel must be empty.
func (p *ReplicaPool) putTask(t *pullTask) {
	t.ctx, t.req, t.reply, t.lastErr = nil, nil, nil, nil
	p.tasks.Put(t)
}

// Gather enqueues the request onto the shard queue and waits for a replica
// worker to complete it. On a full queue it fails immediately with an
// error wrapping ErrQueueFull; on a replica failure the task fails over to
// the remaining replicas once each, and only when every replica has failed
// does the aggregated error come back. A canceled context abandons a
// still-queued task immediately.
func (p *ReplicaPool) Gather(ctx context.Context, req *GatherRequest, reply *GatherReply) error {
	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return fmt.Errorf("%s: %w", errPoolScope, ErrPoolClosed)
	}
	if len(p.replicas) == 0 {
		p.mu.RUnlock()
		return errors.New(errPoolEmpty)
	}
	t := p.tasks.Get().(*pullTask)
	t.ctx, t.req, t.reply = ctx, req, reply
	t.state.Store(taskPending)
	t.attemptedBy = t.attemptedBy[:0]
	t.attempts = 0
	select {
	case p.queue <- t:
		d := p.depth.Add(1)
		p.enqueued.Add(1)
		p.mu.RUnlock()
		// Sample the backlog ahead of this task (not counting itself), so
		// an idle pool's depth EWMA reads 0 and QueuePolicy.HighDepth means
		// "gathers waiting per replica".
		p.noteDepth(float64(d - 1))
	default:
		p.mu.RUnlock()
		p.rejected.Add(1)
		p.putTask(t)
		return fmt.Errorf("%s: %d calls queued: %w", errPoolScope, cap(p.queue), ErrQueueFull)
	}

	select {
	case err := <-t.done:
		p.putTask(t)
		return err
	case <-ctx.Done():
		if t.state.CompareAndSwap(taskPending, taskAbandoned) {
			// Still queued: no worker will ever touch req/reply; the
			// dequeuing worker recycles the task.
			return ctx.Err()
		}
		// A worker owns it — wait for the completion so req/reply are
		// never touched after we return.
		err := <-t.done
		p.putTask(t)
		return err
	}
}

// Add appends a replica and starts its pull workers (no-op on a closed
// pool).
func (p *ReplicaPool) Add(c GatherClient) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	rep := &poolReplica{id: p.nextID, client: c, stop: make(chan struct{}), added: time.Now()}
	p.nextID++
	p.replicas = append(p.replicas, rep)
	p.wg.Add(p.workersPerReplica)
	p.workers.Add(int64(p.workersPerReplica))
	for i := 0; i < p.workersPerReplica; i++ {
		go p.runWorker(rep)
	}
}

// Remove drops the coldest replica — the lowest fraction of its pool
// lifetime spent serving — stops its workers and returns it. Ties (e.g. a
// pool that has served no traffic) break toward the newest replica. It
// returns nil when the pool would become empty — a shard always keeps one
// replica — and never takes the only replica not marked dead by fault
// injection: scale-in racing a kill would otherwise leave a pool of dead
// replicas and fail callers until the revive, even though a live replica
// existed the whole time. A worker mid-call finishes (and delivers) its
// current task first, so scale-in never loses a gather.
func (p *ReplicaPool) Remove() GatherClient {
	p.mu.Lock()
	if len(p.replicas) <= 1 {
		p.mu.Unlock()
		return nil
	}
	liveCount := 0
	for _, rep := range p.replicas {
		if !rep.dead.Load() {
			liveCount++
		}
	}
	now := time.Now()
	coldest, coldRate := -1, 0.0
	for i, rep := range p.replicas {
		if liveCount == 1 && !rep.dead.Load() {
			continue // the last live replica is not a scale-in candidate
		}
		if u := rep.utilization(now); coldest < 0 || u <= coldRate {
			coldest, coldRate = i, u
		}
	}
	if coldest < 0 { // unreachable: len>1 and at most one live excluded
		p.mu.Unlock()
		return nil
	}
	rep := p.replicas[coldest]
	p.replicas = append(p.replicas[:coldest], p.replicas[coldest+1:]...)
	p.mu.Unlock()
	rep.halt()
	return rep.client
}

// Size returns the replica count.
func (p *ReplicaPool) Size() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.replicas)
}

// Live returns the count of replicas not marked dead by fault injection.
func (p *ReplicaPool) Live() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	n := 0
	for _, rep := range p.replicas {
		if !rep.dead.Load() {
			n++
		}
	}
	return n
}

// KillReplica is the scenario fault hook for a crashed pod: replica i
// keeps pulling, but every task it claims fails immediately and hands off
// to the survivors. It reports whether i addressed a replica.
func (p *ReplicaPool) KillReplica(i int) bool { return p.setDead(i, true) }

// ReviveReplica clears a KillReplica injection.
func (p *ReplicaPool) ReviveReplica(i int) bool { return p.setDead(i, false) }

// setDead flips replica i's (current slice position) fault-injection flag.
func (p *ReplicaPool) setDead(i int, dead bool) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if i < 0 || i >= len(p.replicas) {
		return false
	}
	p.replicas[i].dead.Store(dead)
	return true
}

// InjectDelay is the scenario fault hook for a degraded node: every
// subsequent call through the pool stalls d before dispatch (0 removes
// the injection). The stall honors the caller's context deadline.
func (p *ReplicaPool) InjectDelay(d time.Duration) {
	if d < 0 {
		d = 0
	}
	p.delay.Store(int64(d))
}

// Close drains the pool for epoch teardown: enqueues start failing with
// ErrPoolClosed, every worker exits (finishing its claimed task first),
// and queued tasks fail rather than hang. Idempotent.
func (p *ReplicaPool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	reps := append([]*poolReplica(nil), p.replicas...)
	p.mu.Unlock()
	for _, rep := range reps {
		rep.halt()
	}
	p.wg.Wait()
	for {
		select {
		case t := <-p.queue:
			p.depth.Add(-1)
			if t.state.CompareAndSwap(taskPending, taskRunning) {
				t.done <- fmt.Errorf("%s: %w", errPoolScope, ErrPoolClosed)
			} else {
				p.putTask(t) // abandoned; caller already returned
			}
		default:
			return
		}
	}
}

// runWorker is one replica worker: pull, claim, serve, repeat.
func (p *ReplicaPool) runWorker(rep *poolReplica) {
	defer p.wg.Done()
	defer p.workers.Add(-1)
	for {
		select {
		case <-rep.stop:
			return
		default:
		}
		select {
		case <-rep.stop:
			return
		case t := <-p.queue:
			p.depth.Add(-1)
			if !t.state.CompareAndSwap(taskPending, taskRunning) {
				p.putTask(t) // abandoned while queued
				continue
			}
			p.serve(rep, t)
		}
	}
}

// serve runs one claimed task on rep: fault hooks first (injected stall,
// dead replica), then the gather, then failover bookkeeping.
func (p *ReplicaPool) serve(rep *poolReplica, t *pullTask) {
	if t.tried(rep.id) {
		// This replica already failed the task; hand it back for a
		// survivor and back off so the hand-off doesn't spin.
		p.requeue(t)
		time.Sleep(handoffBackoff)
		return
	}
	if t.attempts == 0 {
		// Injected shard slowness (scenario fault hook): one fixed stall
		// per call, bounded by the caller's deadline.
		if delay := time.Duration(p.delay.Load()); delay > 0 {
			timer := time.NewTimer(delay)
			select {
			case <-timer.C:
			case <-t.ctx.Done():
				timer.Stop()
				t.done <- t.ctx.Err()
				return
			}
		}
	}
	if err := t.ctx.Err(); err != nil {
		t.done <- err
		return
	}
	if rep.dead.Load() {
		// A killed replica behaves like a crashed pod: the attempt fails
		// immediately and the task fails over to the survivors.
		p.fail(t, rep, fmt.Errorf("serving: replica %d is down (fault injection)", rep.id))
		return
	}
	if t.attempts > 0 {
		// A failed attempt may have left partial fields behind; reset so
		// this replica's reply is never contaminated by the last one.
		*t.reply = GatherReply{}
	}
	start := time.Now()
	if err := rep.client.Gather(t.ctx, t.req, t.reply); err != nil {
		p.fail(t, rep, err)
		return
	}
	elapsed := time.Since(start)
	rep.busy.Add(int64(elapsed))
	p.statsMu.Lock()
	p.serviceEWMA += ewmaAlpha * (float64(elapsed) - p.serviceEWMA)
	p.statsMu.Unlock()
	t.done <- nil
}

// fail records a failed attempt and either fails the task over to an
// untried replica or delivers the aggregated error.
func (p *ReplicaPool) fail(t *pullTask, rep *poolReplica, err error) {
	t.lastErr = err
	t.attemptedBy = append(t.attemptedBy, rep.id)
	t.attempts++
	if t.ctx.Err() != nil || !p.hasUntried(t) {
		t.done <- fmt.Errorf(errPoolAllFailed, len(t.attemptedBy), t.lastErr)
		return
	}
	p.requeue(t)
}

// hasUntried reports whether any current replica has not yet failed t.
func (p *ReplicaPool) hasUntried(t *pullTask) bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	for _, rep := range p.replicas {
		if !t.tried(rep.id) {
			return true
		}
	}
	return false
}

// requeue puts a running task back on the queue (failover hand-off). If
// the queue is full the task fails now — backpressure beats unbounded
// retry buffering.
func (p *ReplicaPool) requeue(t *pullTask) {
	t.state.Store(taskPending)
	select {
	case p.queue <- t:
		p.depth.Add(1)
	default:
		if t.state.CompareAndSwap(taskPending, taskRunning) {
			err := t.lastErr
			if err == nil {
				err = fmt.Errorf("%s: %d calls queued: %w", errPoolScope, cap(p.queue), ErrQueueFull)
			}
			n := len(t.attemptedBy)
			if n == 0 {
				n = 1
			}
			t.done <- fmt.Errorf(errPoolAllFailed, n, err)
		} else {
			p.putTask(t) // abandoned in the hand-off window
		}
	}
}

// noteDepth folds one enqueue-time queue length into the depth EWMA.
func (p *ReplicaPool) noteDepth(d float64) {
	if d < 0 {
		d = 0
	}
	p.statsMu.Lock()
	p.depthEWMA += ewmaAlpha * (d - p.depthEWMA)
	p.statsMu.Unlock()
}

// QueueStats snapshots the shard queue's pressure signals.
func (p *ReplicaPool) QueueStats() QueueStats {
	p.mu.RLock()
	replicas := len(p.replicas)
	liveReplicas := 0
	for _, rep := range p.replicas {
		if !rep.dead.Load() {
			liveReplicas++
		}
	}
	p.mu.RUnlock()
	p.statsMu.Lock()
	depthEWMA, serviceEWMA := p.depthEWMA, p.serviceEWMA
	p.statsMu.Unlock()
	depth := p.depth.Load()
	if depth < 0 {
		depth = 0
	}
	return QueueStats{
		Depth:        int(depth),
		Capacity:     cap(p.queue),
		DepthEWMA:    depthEWMA,
		ServiceEWMA:  time.Duration(serviceEWMA),
		Replicas:     replicas,
		LiveReplicas: liveReplicas,
		Workers:      int(p.workers.Load()),
		Enqueued:     p.enqueued.Load(),
		Rejected:     p.rejected.Load(),
	}
}

var _ GatherClient = (*ReplicaPool)(nil)
