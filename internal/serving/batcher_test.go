package serving

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/model"
)

// batcherConfig is a minimal geometry for batcher plumbing tests: one
// table, one dense feature.
func batcherConfig() model.Config {
	return model.Config{
		Name:          "batcher",
		DenseInputDim: 1,
		BottomMLP:     []int{4},
		TopMLP:        []int{4, 1},
		NumTables:     1,
		RowsPerTable:  100,
		EmbeddingDim:  4,
		Pooling:       2,
		LocalityP:     0.9,
		BatchSize:     1,
	}
}

// recordingBackend is a fake PredictClient that records every fused
// request it sees and scores input i with its first dense feature.
type recordingBackend struct {
	mu    sync.Mutex
	calls []*PredictRequest
	fail  error
	delay time.Duration
}

func (r *recordingBackend) Predict(ctx context.Context, req *PredictRequest, reply *PredictReply) error {
	r.mu.Lock()
	r.calls = append(r.calls, req)
	fail := r.fail
	delay := r.delay
	r.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	if fail != nil {
		return fail
	}
	reply.Probs = make([]float32, req.BatchSize)
	for i := 0; i < req.BatchSize; i++ {
		reply.Probs[i] = req.Dense[i*req.DenseDim]
	}
	return nil
}

func (r *recordingBackend) batchSizes() []int {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]int, len(r.calls))
	for i, c := range r.calls {
		out[i] = c.BatchSize
	}
	return out
}

// singleInputRequest builds a valid one-input request whose dense feature
// (and therefore expected probability) is v.
func singleInputRequest(v float32) *PredictRequest {
	return &PredictRequest{
		BatchSize: 1,
		DenseDim:  1,
		Dense:     []float32{v},
		Tables:    []TableBatch{{Indices: []int64{0, 1}, Offsets: []int32{0}}},
	}
}

// TestBatcherMaxBatchCoalescing: with an effectively infinite deadline,
// batches must flush exactly at MaxBatch inputs, and every caller must get
// its own input's score back.
func TestBatcherMaxBatchCoalescing(t *testing.T) {
	backend := &recordingBackend{}
	b := NewBatcher(backend, batcherConfig(), BatcherOptions{
		MaxBatch: 4,
		MaxDelay: time.Hour,
	})
	defer b.Close()

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	got := make([]float32, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var reply PredictReply
			errs[i] = b.Predict(bg, singleInputRequest(float32(i)), &reply)
			if errs[i] == nil {
				got[i] = reply.Probs[0]
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if got[i] != float32(i) {
			t.Fatalf("request %d demuxed %v, want %v", i, got[i], float32(i))
		}
	}
	if b.Batches.Value() != 2 {
		t.Fatalf("fused batches = %d, want 2", b.Batches.Value())
	}
	for _, bs := range backend.batchSizes() {
		if bs != 4 {
			t.Fatalf("fused batch sizes = %v, want all 4", backend.batchSizes())
		}
	}
	if b.Requests.Value() != n {
		t.Fatalf("requests = %d, want %d", b.Requests.Value(), n)
	}
	if b.BatchSizes.Mean() != 4 {
		t.Fatalf("batch-size histogram mean = %v, want 4", b.BatchSizes.Mean())
	}
}

// TestBatcherDeadlineFlush: a lone sub-max request arriving to an empty
// queue dispatches after the short solo grace (MaxDelay/8) instead of
// sleeping out the full MaxDelay — the low-concurrency fix. A batchmate
// that arrives inside the grace turns the wait back into a normal fill,
// which the MaxDelay timer ends.
func TestBatcherDeadlineFlush(t *testing.T) {
	const delay = 40 * time.Millisecond
	t.Run("solo-grace-dispatches-early", func(t *testing.T) {
		backend := &recordingBackend{}
		b := NewBatcher(backend, batcherConfig(), BatcherOptions{
			MaxBatch: 1 << 20,
			MaxDelay: delay,
		})
		defer b.Close()

		start := time.Now()
		var reply PredictReply
		if err := b.Predict(bg, singleInputRequest(7), &reply); err != nil {
			t.Fatal(err)
		}
		if elapsed := time.Since(start); elapsed >= delay {
			t.Fatalf("lone request flushed after %v, expected well before MaxDelay %v (solo grace)", elapsed, delay)
		}
		if reply.Probs[0] != 7 {
			t.Fatalf("probs = %v", reply.Probs)
		}
		if got := backend.batchSizes(); len(got) != 1 || got[0] != 1 {
			t.Fatalf("backend batches = %v, want [1]", got)
		}
	})
	t.Run("batchmate-in-grace-waits-maxdelay", func(t *testing.T) {
		// A longer MaxDelay widens the grace to 25ms, so the batchmate
		// sent 1ms after the first request lands inside it even on a
		// loaded machine.
		const fill = 5 * delay
		backend := &recordingBackend{}
		b := NewBatcher(backend, batcherConfig(), BatcherOptions{
			MaxBatch: 1 << 20,
			MaxDelay: fill,
		})
		defer b.Close()

		start := time.Now()
		var wg sync.WaitGroup
		replies := make([]PredictReply, 2)
		errs := make([]error, 2)
		for i := range replies {
			if i > 0 {
				time.Sleep(time.Millisecond)
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = b.Predict(bg, singleInputRequest(float32(i+1)), &replies[i])
			}(i)
		}
		wg.Wait()
		elapsed := time.Since(start)
		for i, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
			if replies[i].Probs[0] != float32(i+1) {
				t.Fatalf("request %d: probs = %v", i, replies[i].Probs)
			}
		}
		if elapsed < fill/2 {
			t.Fatalf("fused batch flushed after %v, expected the MaxDelay timer (~%v)", elapsed, fill)
		}
		if got := backend.batchSizes(); len(got) != 1 || got[0] != 2 {
			t.Fatalf("backend batches = %v, want one fused batch [2]", got)
		}
	})
}

// TestBatcherFuseRebasesOffsets pins the fusion wire format: dense rows
// stacked, per-table indices concatenated, offsets rebased.
func TestBatcherFuseRebasesOffsets(t *testing.T) {
	backend := &recordingBackend{}
	b := NewBatcher(backend, batcherConfig(), BatcherOptions{
		MaxBatch: 3,
		MaxDelay: time.Hour,
	})
	defer b.Close()

	reqA := &PredictRequest{
		BatchSize: 2,
		DenseDim:  1,
		Dense:     []float32{10, 11},
		Tables:    []TableBatch{{Indices: []int64{5, 6, 7}, Offsets: []int32{0, 2}}},
	}
	reqB := &PredictRequest{
		BatchSize: 1,
		DenseDim:  1,
		Dense:     []float32{12},
		Tables:    []TableBatch{{Indices: []int64{9}, Offsets: []int32{0}}},
	}
	var wg sync.WaitGroup
	var replyA, replyB PredictReply
	var errA, errB error
	wg.Add(1)
	go func() { defer wg.Done(); errA = b.Predict(bg, reqA, &replyA) }()
	time.Sleep(10 * time.Millisecond) // make reqA the batch head deterministically
	wg.Add(1)
	go func() { defer wg.Done(); errB = b.Predict(bg, reqB, &replyB) }()
	wg.Wait()
	if errA != nil || errB != nil {
		t.Fatalf("errs: %v / %v", errA, errB)
	}

	backend.mu.Lock()
	defer backend.mu.Unlock()
	if len(backend.calls) != 1 {
		t.Fatalf("backend calls = %d, want 1 fused call", len(backend.calls))
	}
	fused := backend.calls[0]
	if fused.BatchSize != 3 {
		t.Fatalf("fused batch size = %d", fused.BatchSize)
	}
	wantDense := []float32{10, 11, 12}
	for i, v := range wantDense {
		if fused.Dense[i] != v {
			t.Fatalf("fused dense = %v, want %v", fused.Dense, wantDense)
		}
	}
	wantIdx := []int64{5, 6, 7, 9}
	for i, v := range wantIdx {
		if fused.Tables[0].Indices[i] != v {
			t.Fatalf("fused indices = %v, want %v", fused.Tables[0].Indices, wantIdx)
		}
	}
	wantOff := []int32{0, 2, 3}
	for i, v := range wantOff {
		if fused.Tables[0].Offsets[i] != v {
			t.Fatalf("fused offsets = %v, want %v (rebase broken)", fused.Tables[0].Offsets, wantOff)
		}
	}
	if replyA.Probs[0] != 10 || replyA.Probs[1] != 11 || replyB.Probs[0] != 12 {
		t.Fatalf("demux: A=%v B=%v", replyA.Probs, replyB.Probs)
	}
}

// TestBatcherErrorDemux: a malformed request is bounced at enqueue and
// must not fail its would-be batchmates.
func TestBatcherErrorDemux(t *testing.T) {
	backend := &recordingBackend{}
	b := NewBatcher(backend, batcherConfig(), BatcherOptions{
		MaxBatch: 2,
		MaxDelay: 20 * time.Millisecond,
	})
	defer b.Close()

	bad := &PredictRequest{BatchSize: 2, DenseDim: 1, Dense: []float32{1}} // payload mismatch
	var badReply PredictReply
	if err := b.Predict(bg, bad, &badReply); err == nil {
		t.Fatal("malformed request must be rejected")
	}
	if len(backend.batchSizes()) != 0 {
		t.Fatal("malformed request reached the backend")
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var reply PredictReply
			errs[i] = b.Predict(bg, singleInputRequest(float32(i)), &reply)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("good request %d failed after bad request: %v", i, err)
		}
	}
}

// TestBatcherBackendErrorFansOut: when the fused call itself fails, every
// caller in that batch sees the error; the batcher stays usable.
func TestBatcherBackendErrorFansOut(t *testing.T) {
	backend := &recordingBackend{fail: fmt.Errorf("backend down")}
	b := NewBatcher(backend, batcherConfig(), BatcherOptions{
		MaxBatch: 2,
		MaxDelay: time.Hour,
	})
	defer b.Close()

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var reply PredictReply
			errs[i] = b.Predict(bg, singleInputRequest(float32(i)), &reply)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("request %d: want fused backend error", i)
		}
	}

	backend.mu.Lock()
	backend.fail = nil
	backend.mu.Unlock()
	var reply PredictReply
	var err error
	done := make(chan struct{})
	go func() {
		err = b.Predict(bg, singleInputRequest(3), &reply)
		close(done)
	}()
	go func() {
		var r PredictReply
		_ = b.Predict(bg, singleInputRequest(4), &r)
	}()
	<-done
	if err != nil {
		t.Fatalf("batcher unusable after backend error: %v", err)
	}
}

// TestBatcherClose: Close flushes and further Predicts are rejected.
func TestBatcherClose(t *testing.T) {
	backend := &recordingBackend{}
	b := NewBatcher(backend, batcherConfig(), BatcherOptions{MaxDelay: time.Millisecond})
	var reply PredictReply
	if err := b.Predict(bg, singleInputRequest(1), &reply); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	if err := b.Predict(bg, singleInputRequest(2), &reply); err == nil {
		t.Fatal("predict after Close must fail")
	}
}

// TestBatcherEquivalenceUnderConcurrency is the batching correctness and
// race stress test: many clients hammer a batched live deployment and
// every reply must match the monolithic baseline bit-for-bit (within
// float tolerance), proving fuse/demux never mixes up inputs. Run with
// -race in CI.
func TestBatcherEquivalenceUnderConcurrency(t *testing.T) {
	cfg := liveConfig()
	m, stats, gen := buildFixture(t, cfg)
	mono := NewMonolith(m.Clone())
	ld, err := BuildElastic(m, stats, []int64{50, 200, cfg.RowsPerTable}, BuildOptions{
		Batching: &BatcherOptions{MaxBatch: 12, MaxDelay: 500 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()
	if ld.Batcher == nil {
		t.Fatal("BuildOptions.Batching did not wire a batcher")
	}

	const clients = 8
	const perClient = 20
	reqs := make([]*PredictRequest, clients*perClient)
	want := make([][]float32, len(reqs))
	for i := range reqs {
		reqs[i] = makeRequest(cfg, gen, uint64(1000+i))
		var mr PredictReply
		if err := mono.Predict(bg, reqs[i], &mr); err != nil {
			t.Fatal(err)
		}
		want[i] = mr.Probs
	}

	var wg sync.WaitGroup
	errc := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for q := 0; q < perClient; q++ {
				i := c*perClient + q
				var reply PredictReply
				if err := ld.Predict(bg, reqs[i], &reply); err != nil {
					errc <- fmt.Errorf("client %d query %d: %w", c, q, err)
					return
				}
				for j := range want[i] {
					if math.Abs(float64(reply.Probs[j]-want[i][j])) > 1e-5 {
						errc <- fmt.Errorf("client %d query %d input %d: batched %v != monolith %v",
							c, q, j, reply.Probs[j], want[i][j])
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	if got := b2i(ld.Batcher.Requests.Value()); got != clients*perClient {
		t.Fatalf("batcher saw %d requests, want %d", got, clients*perClient)
	}
	if ld.Batcher.Batches.Value() > ld.Batcher.Requests.Value() {
		t.Fatal("more fused batches than requests")
	}
	if ld.Batcher.QueueDepth.Count() != ld.Batcher.Batches.Value() {
		t.Fatal("queue-depth histogram must observe once per dispatch")
	}
}

func b2i(v int64) int { return int(v) }

// TestConcurrentPredictThroughputScaling asserts the headline win of the
// de-serialized hot path: on the same deployment, 8 closed-loop clients
// must sustain at least 2x the single-client throughput. The old
// mutex-serialized dense pass pinned this ratio to ~1x regardless of core
// count. Parallel speedup needs parallel hardware, so the test skips on
// machines with fewer than 4 CPUs (the benchmark
// BenchmarkServing_ConcurrentPredict reports the ratio everywhere).
func TestConcurrentPredictThroughputScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("throughput measurement skipped in -short")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("GOMAXPROCS=%d: need >=4 CPUs to demonstrate parallel scaling", runtime.GOMAXPROCS(0))
	}
	cfg := liveConfig()
	cfg.BottomMLP = []int{64, 32}
	cfg.TopMLP = []int{64, 1}
	cfg.EmbeddingDim = 32
	cfg.BatchSize = 8
	m, stats, gen := buildFixture(t, cfg)
	ld, err := BuildElastic(m, stats, []int64{100, cfg.RowsPerTable}, BuildOptions{
		Batching: &BatcherOptions{MaxBatch: 4 * cfg.BatchSize, MaxDelay: 100 * time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()
	reqs := make([]*PredictRequest, 16)
	for i := range reqs {
		reqs[i] = makeRequest(cfg, gen, uint64(i))
	}
	run := func(clients, total int) time.Duration {
		var next atomic.Int64
		var wg sync.WaitGroup
		start := time.Now()
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for {
					i := next.Add(1) - 1
					if i >= int64(total) {
						return
					}
					var reply PredictReply
					if err := ld.Predict(bg, reqs[(int(i)+c)%len(reqs)], &reply); err != nil {
						t.Error(err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		return time.Since(start)
	}
	const total = 400
	run(8, total) // warm-up: page in tables, fill the scratch pool
	t1 := run(1, total)
	t8 := run(8, total)
	ratio := float64(t1) / float64(t8)
	t.Logf("1 client: %v, 8 clients: %v — %.2fx scaling", t1, t8, ratio)
	if ratio < 2 {
		t.Fatalf("8-client throughput only %.2fx the single-client baseline, want >= 2x", ratio)
	}
}

// TestBatchContextUsesEarliestDeadline pins the fused-call deadline rule:
// the fused context is bounded by the EARLIEST batchmate deadline, so no
// request in the batch can execute past its own budget (the old rule took
// the latest, silently stretching a tight request's budget to its most
// permissive batchmate's).
func TestBatchContextUsesEarliestDeadline(t *testing.T) {
	now := time.Now()
	tight := now.Add(50 * time.Millisecond).UnixNano()
	loose := now.Add(time.Hour).UnixNano()

	ctx, cancel := batchContext([]*pendingPredict{{deadline: loose}, {deadline: tight}, {deadline: loose}})
	defer cancel()
	dl, ok := ctx.Deadline()
	if !ok {
		t.Fatal("fused context has no deadline")
	}
	if got := dl.UnixNano(); got != tight {
		t.Fatalf("fused deadline = %v, want the earliest batchmate deadline %v",
			dl, time.Unix(0, tight))
	}

	// A no-deadline batchmate does not unbound the fused call: the tight
	// caller's budget still governs.
	ctx2, cancel2 := batchContext([]*pendingPredict{{deadline: 0}, {deadline: tight}})
	defer cancel2()
	dl2, ok := ctx2.Deadline()
	if !ok || dl2.UnixNano() != tight {
		t.Fatalf("fused deadline with undeadlined batchmate = (%v, %v), want %v",
			dl2, ok, time.Unix(0, tight))
	}

	// No deadlines anywhere -> unbounded.
	ctx3, cancel3 := batchContext([]*pendingPredict{{deadline: 0}, {deadline: 0}})
	defer cancel3()
	if _, ok := ctx3.Deadline(); ok {
		t.Fatal("deadline-free batch got a bounded context")
	}
}

// deadlineAwareSlowBackend succeeds only after 30 s but honors its
// context, like the real dense shard's cancelable gather fan-out.
type deadlineAwareSlowBackend struct{}

func (deadlineAwareSlowBackend) Predict(ctx context.Context, req *PredictRequest, reply *PredictReply) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(30 * time.Second):
		reply.Probs = make([]float32, req.BatchSize)
		return nil
	}
}

// TestBatcherHonorsTightestCallerDeadline drives the earliest-deadline
// rule end to end: a tight-deadline request joins a batch with a
// permissive batchmate, and the fused dispatch must fail fast (bounded by
// the tight deadline) instead of running the slow backend on the
// permissive caller's hour-long budget, as the old latest-deadline rule
// did.
func TestBatcherHonorsTightestCallerDeadline(t *testing.T) {
	b := NewBatcher(deadlineAwareSlowBackend{}, batcherConfig(),
		BatcherOptions{MaxBatch: 2, MaxDelay: 200 * time.Millisecond})
	defer b.Close()

	var wg sync.WaitGroup
	var tightErr, looseErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		var reply PredictReply
		tightErr = b.Predict(ctx, singleInputRequest(0.5), &reply)
	}()
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
		defer cancel()
		var reply PredictReply
		looseErr = b.Predict(ctx, singleInputRequest(0.25), &reply)
	}()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("fused batch ran on the permissive caller's budget instead of the tight one")
	}
	if tightErr == nil {
		t.Fatal("tight-deadline caller succeeded against a 30s backend")
	}
	if looseErr == nil {
		t.Fatal("permissive batchmate succeeded; expected the earliest-deadline bound to fail the fused call")
	}
}
