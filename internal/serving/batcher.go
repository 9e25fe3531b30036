package serving

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/serving/wire"
)

// This file implements dynamic request batching for the dense hot path.
// Concurrent Predict calls are coalesced into one fused forward batch
// (bounded by a max batch size and a max queue delay), dispatched to the
// backend dense shard, and demultiplexed back to the callers. Together
// with the model scratch pool this replaces the old
// one-mutex-per-dense-shard serialization: fused batches amortize the
// per-request gather fan-out, and independent batches run concurrently.

// BatcherOptions tunes the dynamic batcher. Three more limits are fixed:
//
//   - Solo grace, MaxDelay/8: a *lone* request (one that arrives to an
//     empty queue) waits only this long for its first batchmate before it
//     is dispatched alone. A low-concurrency client never has batchmates,
//     so sleeping out the full MaxDelay for every request would just tax
//     it; once a first batchmate arrives within the grace, the batch keeps
//     filling under the normal MaxDelay budget.
//   - In-flight batches, GOMAXPROCS at construction: the collector applies
//     backpressure beyond that many concurrently executing fused batches.
//   - Queue capacity, maxPending (256) requests: enqueueing blocks when
//     the queue is full.
type BatcherOptions struct {
	// MaxBatch is the fused-batch input budget: a batch is dispatched as
	// soon as the coalesced inputs reach it (default 64). A single request
	// larger than MaxBatch is dispatched alone.
	MaxBatch int
	// MaxDelay bounds how long the oldest queued request waits for
	// batchmates before the batch is flushed anyway (default 200µs).
	MaxDelay time.Duration
}

// maxPending is the batcher's pending-request queue capacity.
const maxPending = 256

func (o *BatcherOptions) defaults() {
	if o.MaxBatch <= 0 {
		o.MaxBatch = 64
	}
	if o.MaxDelay <= 0 {
		o.MaxDelay = 200 * time.Microsecond
	}
}

// pendingPredict is one caller's request waiting in the batch queue.
type pendingPredict struct {
	req      *PredictRequest
	deadline int64 // caller's ctx deadline in unix nanos (0 = none)
	probs    []float32
	done     chan error
}

// Batcher coalesces concurrent Predict calls into fused forward batches.
// Requests are validated on arrival, so a malformed request is rejected
// before it joins a batch and can never fail its batchmates; only a
// backend failure on the fused call itself is fanned out to every caller
// in that batch.
type Batcher struct {
	backend PredictClient
	cfg     model.Config
	model   string // canonical model name; a fused batch never mixes models
	opts    BatcherOptions

	mu     sync.RWMutex // guards closed vs. enqueue
	closed bool
	reqs   chan *pendingPredict
	slots  chan struct{}
	wg     sync.WaitGroup

	// QueueDepth observes, at every dispatch, how many requests were
	// still waiting behind the fused batch; BatchSizes observes the fused
	// input count per dispatch. Both feed the autoscaler/stress tooling.
	QueueDepth *metrics.Histogram
	BatchSizes *metrics.Histogram
	// Requests counts enqueued requests; Batches counts fused dispatches.
	Requests *metrics.Counter
	Batches  *metrics.Counter
}

// NewBatcher starts a batching frontend over a predict backend serving the
// given model geometry (use DenseShard.Config()) under the default model
// name. Close it to flush and stop the collector.
func NewBatcher(backend PredictClient, cfg model.Config, opts BatcherOptions) *Batcher {
	return NewModelBatcher(DefaultModel, backend, cfg, opts)
}

// NewModelBatcher starts a batching frontend for one named DLRM variant.
// Requests for any other model are rejected on arrival, so a fused batch
// can never mix two variants' inputs into one forward pass.
func NewModelBatcher(name string, backend PredictClient, cfg model.Config, opts BatcherOptions) *Batcher {
	opts.defaults()
	b := &Batcher{
		backend:    backend,
		cfg:        cfg,
		model:      canonicalModel(name),
		opts:       opts,
		reqs:       make(chan *pendingPredict, maxPending),
		slots:      make(chan struct{}, runtime.GOMAXPROCS(0)),
		QueueDepth: metrics.NewHistogram([]float64{0, 1, 2, 4, 8, 16, 32, 64, 128}),
		BatchSizes: metrics.NewHistogram([]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}),
		Requests:   &metrics.Counter{},
		Batches:    &metrics.Counter{},
	}
	b.wg.Add(1)
	go b.collect()
	return b
}

// Predict enqueues the request and blocks until its inputs have been
// scored inside some fused batch, or until ctx is done. Safe for
// concurrent use; the request is read-only until Predict returns. A
// caller abandoning on ctx does not cancel the fused batch — its
// batchmates still complete (the done channel is buffered, so the
// dispatcher never blocks on an abandoned caller).
func (b *Batcher) Predict(ctx context.Context, req *PredictRequest, reply *PredictReply) error {
	// Per-request validation happens before enqueue: a bad request is
	// bounced here and never contaminates a fused batch.
	if err := req.Validate(b.cfg.NumTables); err != nil {
		return err
	}
	if req.DenseDim != b.cfg.DenseInputDim {
		return fmt.Errorf("serving: dense dim %d != model %d", req.DenseDim, b.cfg.DenseInputDim)
	}
	if got := canonicalModel(req.Model); got != b.model {
		return fmt.Errorf("serving: request for model %q reached batcher serving %q", got, b.model)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	p := &pendingPredict{req: req, deadline: wire.CtxDeadlineNanos(ctx), done: make(chan error, 1)}
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return fmt.Errorf("serving: batcher is closed")
	}
	b.reqs <- p
	b.mu.RUnlock()
	b.Requests.Inc(1)
	select {
	case err := <-p.done:
		if err != nil {
			return err
		}
		reply.Probs = p.probs
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

var _ PredictClient = (*Batcher)(nil)

// collect is the single collector loop: it forms fused batches and hands
// each one to a dispatch goroutine, so the next batch can fill while the
// previous one is still in the dense forward pass.
func (b *Batcher) collect() {
	defer b.wg.Done()
	for {
		first, ok := <-b.reqs
		if !ok {
			return
		}
		batch := []*pendingPredict{first}
		total := first.req.BatchSize
		closing := false
		solo := false
		timer := time.NewTimer(b.opts.MaxDelay)
		if total < b.opts.MaxBatch && len(b.reqs) == 0 {
			// The request arrived to an empty queue: give a first
			// batchmate only the short grace, then dispatch immediately
			// instead of sleeping out MaxDelay — the low-concurrency fix
			// (a single closed-loop client never has batchmates). Short
			// graces poll cooperatively: timers overshoot tens-of-µs
			// sleeps by up to a millisecond under coarse kernel timer
			// slack, which would hand the whole regression right back.
			soloGrace := b.opts.MaxDelay / 8
			if soloGrace <= time.Millisecond {
				deadline := time.Now().Add(soloGrace)
				for len(b.reqs) == 0 && time.Now().Before(deadline) {
					runtime.Gosched()
				}
				solo = len(b.reqs) == 0
				// A batchmate made it in: the fill loop below receives
				// it without blocking and keeps filling under MaxDelay.
			} else {
				grace := time.NewTimer(soloGrace)
				select {
				case p, ok := <-b.reqs:
					if !ok {
						closing = true
					} else {
						batch = append(batch, p)
						total += p.req.BatchSize
					}
				case <-grace.C:
					solo = true
				}
				grace.Stop()
			}
		}
		if !closing && !solo {
		fill:
			for total < b.opts.MaxBatch {
				select {
				case p, ok := <-b.reqs:
					if !ok {
						closing = true
						break fill
					}
					batch = append(batch, p)
					total += p.req.BatchSize
				case <-timer.C:
					break fill
				}
			}
		}
		timer.Stop()
		b.QueueDepth.Observe(float64(len(b.reqs)))
		b.BatchSizes.Observe(float64(total))
		b.Batches.Inc(1)
		b.slots <- struct{}{} // backpressure beyond GOMAXPROCS batches in flight
		b.wg.Add(1)
		go func(batch []*pendingPredict, total int) {
			defer b.wg.Done()
			b.dispatch(batch, total)
			<-b.slots
		}(batch, total)
		if closing {
			return
		}
	}
}

// batchContext derives the fused call's context: the earliest deadline
// among the batchmates that have one, so no request ever executes past its
// own budget inside a fused batch (the old latest-deadline rule let a
// permissive batchmate stretch a tight request far beyond its deadline).
// The flip side — a permissive request can now fail because a tight
// batchmate bounded the fused call — is accepted: only slack-aware queue
// admission, which is not built, would avoid it. Unbounded only when no
// caller has a deadline.
func batchContext(batch []*pendingPredict) (context.Context, context.CancelFunc) {
	earliest := int64(0)
	for _, p := range batch {
		if p.deadline != 0 && (earliest == 0 || p.deadline < earliest) {
			earliest = p.deadline
		}
	}
	return wire.DeadlineContext(earliest)
}

// dispatch runs one fused batch against the backend and demuxes results.
func (b *Batcher) dispatch(batch []*pendingPredict, total int) {
	ctx, cancel := batchContext(batch)
	defer cancel()
	if len(batch) == 1 {
		// Fast path: nothing to fuse or demux.
		var reply PredictReply
		err := b.backend.Predict(ctx, batch[0].req, &reply)
		if err == nil {
			batch[0].probs = reply.Probs
		}
		batch[0].done <- err
		return
	}
	fused := b.fuse(batch, total)
	var reply PredictReply
	if err := b.backend.Predict(ctx, fused, &reply); err != nil {
		for _, p := range batch {
			p.done <- err
		}
		return
	}
	if len(reply.Probs) != total {
		err := fmt.Errorf("serving: fused batch returned %d probs, want %d", len(reply.Probs), total)
		for _, p := range batch {
			p.done <- err
		}
		return
	}
	base := 0
	for _, p := range batch {
		p.probs = reply.Probs[base : base+p.req.BatchSize]
		base += p.req.BatchSize
		p.done <- nil
	}
}

// fuse concatenates the batch's requests into one PredictRequest: dense
// rows are stacked and every table's offsets are rebased onto the fused
// index array.
func (b *Batcher) fuse(batch []*pendingPredict, total int) *PredictRequest {
	dd := b.cfg.DenseInputDim
	nt := b.cfg.NumTables
	fused := &PredictRequest{
		Model:     b.model,
		BatchSize: total,
		DenseDim:  dd,
		Dense:     make([]float32, 0, total*dd),
		Tables:    make([]TableBatch, nt),
	}
	for t := 0; t < nt; t++ {
		var nIdx, nOff int
		for _, p := range batch {
			nIdx += len(p.req.Tables[t].Indices)
			nOff += len(p.req.Tables[t].Offsets)
		}
		fused.Tables[t].Indices = make([]int64, 0, nIdx)
		fused.Tables[t].Offsets = make([]int32, 0, nOff)
	}
	for _, p := range batch {
		fused.Dense = append(fused.Dense, p.req.Dense...)
		for t := 0; t < nt; t++ {
			tb := p.req.Tables[t]
			rebase := int32(len(fused.Tables[t].Indices))
			fused.Tables[t].Indices = append(fused.Tables[t].Indices, tb.Indices...)
			for _, off := range tb.Offsets {
				fused.Tables[t].Offsets = append(fused.Tables[t].Offsets, off+rebase)
			}
		}
	}
	return fused
}

// Close stops accepting requests, flushes everything already queued
// through the backend, and waits for in-flight batches to finish.
func (b *Batcher) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	close(b.reqs)
	b.mu.Unlock()
	b.wg.Wait()
	return nil
}
