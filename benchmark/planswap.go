package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/embedding"
)

// The control loop's cadence: one swap per swapPeriod, measured start to
// start, each on the accesses recorded over the profileWindow before it. A
// fixed cadence, not back-to-back swaps: a cold build takes about as long
// as the window, and a deployment that spends half its time swapping has a
// two-humped latency distribution whose median flips between the humps
// from run to run.
const (
	swapPeriod    = time.Second
	profileWindow = 700 * time.Millisecond
)

// swapRecord is one repartition as seen from outside.
type swapRecord struct {
	began, ended time.Time
	cached       bool // the plan cache supplied the preprocessing
}

// swapper is plan_swap's control goroutine: the paper's re-profiling loop
// (Sec. IV-B) driven from outside the deployment, beside live traffic.
// Odd swaps repartition on the window just recorded — a fingerprint the
// plan cache has never seen, so a cold build — and even swaps alternate
// two windows precomputed from the pool, which startSwapper has put
// through the deployment once so that the plan cache serves them from the
// first timed swap on. A nil swapper (every other workload) does nothing.
type swapper struct {
	d        *deployment
	preset   [2][]*embedding.AccessStats
	records  []swapRecord
	err      error
	stop     chan struct{}
	finished chan struct{}
}

// startSwapper starts the control loop for a plan-swap workload and
// returns nil for any other.
func startSwapper(w *workload, d *deployment, pool *requestPool) *swapper {
	if !w.planSwap {
		return nil
	}
	s := &swapper{d: d, stop: make(chan struct{}), finished: make(chan struct{})}
	for i := range s.preset {
		lo, hi := pool.segment(1 + i)
		if s.preset[i], s.err = pool.accessStats(w.cfg, lo, hi); s.err == nil {
			_, s.err = d.ld.RepartitionReport(context.Background(), s.preset[i], cutBoundaries(s.preset[i][0]))
		}
		if s.err != nil {
			s.err = fmt.Errorf("priming plan swap window %d: %w", i, s.err)
			close(s.finished)
			return s
		}
	}
	go s.loop()
	return s
}

func (s *swapper) loop() {
	defer close(s.finished)
	ld := s.d.ld
	// wait sleeps until t and reports false if the loop was stopped first.
	wait := func(t time.Time) bool {
		select {
		case <-s.stop:
			return false
		case <-time.After(time.Until(t)):
			return true
		}
	}
	cycle := time.Now()
	for n := 1; ; n++ {
		if !wait(cycle.Add(swapPeriod - profileWindow)) {
			return
		}
		ld.StartProfile()
		running := wait(cycle.Add(swapPeriod))
		stats := ld.SnapshotProfile()
		if !running {
			return
		}
		if n%2 == 0 {
			stats = s.preset[n/2%2]
		}
		rec := swapRecord{began: time.Now()}
		rep, err := ld.RepartitionReport(context.Background(), stats, cutBoundaries(stats[0]))
		if err != nil {
			s.err = fmt.Errorf("plan swap %d: %w", n, err)
			return
		}
		rec.ended, rec.cached = time.Now(), rep.CacheHit
		s.records = append(s.records, rec)
		if cycle = cycle.Add(swapPeriod); time.Since(cycle) > swapPeriod {
			cycle = time.Now() // a swap overran a whole period: do not try to catch up
		}
	}
}

// finish stops the loop after the swap in progress and returns the first
// error it met.
func (s *swapper) finish() error {
	if s == nil {
		return nil
	}
	select {
	case <-s.finished:
	default:
		close(s.stop)
		<-s.finished
	}
	return s.err
}

// swapTimesMs returns the wall times of the swaps that began in
// [from, to), split by regime.
func (s *swapper) swapTimesMs(from, to time.Time) (cold, cached []float64) {
	if s == nil {
		return nil, nil
	}
	for _, r := range s.records {
		if r.began.Before(from) || !r.began.Before(to) {
			continue
		}
		if took := ms(r.ended.Sub(r.began)); r.cached {
			cached = append(cached, took)
		} else {
			cold = append(cold, took)
		}
	}
	return cold, cached
}

// overlaps reports whether a request that ran over [from, to) overlapped
// any swap.
func (s *swapper) overlaps(from, to time.Time) bool {
	if s == nil {
		return false
	}
	for _, r := range s.records {
		if from.Before(r.ended) && r.began.Before(to) {
			return true
		}
	}
	return false
}
