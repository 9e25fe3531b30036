package serving

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/metrics"
)

// This file implements the QPSmax stress test of Sec. IV-D: "ElasticRec
// measures the maximum QPS each sparse shard can sustain, stress-testing
// each one of them by gradually increasing input query traffic intensity
// and monitoring at which point the tail latency increases rapidly." In
// the paper the measured QPSmax becomes the shard's HPA threshold; here it
// is reported (core.StressTable), and LiveAutoscaler scales on queue depth.

// StressOptions tunes the ramp.
type StressOptions struct {
	// MaxConcurrency bounds the closed-loop ramp (default 64).
	MaxConcurrency int
	// RequestsPerLevel is the number of requests issued at each
	// concurrency level (default 128).
	RequestsPerLevel int
	// KneeFactor declares the knee when P95 exceeds KneeFactor times the
	// single-client baseline P95 (default 3).
	KneeFactor float64
}

func (o *StressOptions) defaults() {
	if o.MaxConcurrency <= 0 {
		o.MaxConcurrency = 64
	}
	if o.RequestsPerLevel <= 0 {
		o.RequestsPerLevel = 128
	}
	if o.KneeFactor <= 0 {
		o.KneeFactor = 3
	}
}

// StressSample is one ramp level's measurement.
type StressSample struct {
	Concurrency int
	QPS         float64
	P95         time.Duration
}

// StressResult is the outcome of a stress test.
type StressResult struct {
	Samples []StressSample
	// QPSMax is the highest sustained throughput observed before the
	// tail-latency knee.
	QPSMax float64
	// KneeConcurrency is the level at which the knee was detected
	// (0 when the ramp completed without a knee).
	KneeConcurrency int
}

// StressTest ramps closed-loop concurrency against the client, measuring
// sustained throughput and P95 at each level, and stops at the tail-latency
// knee. newReq must return a fresh request for every call (requests may be
// issued concurrently). The ramp checks ctx between concurrency levels, so
// a canceled stress run stops instead of climbing to MaxConcurrency, and
// canceling fails in-flight gathers through the usual RPC cancellation
// path.
func StressTest(ctx context.Context, client GatherClient, newReq func() *GatherRequest, opts StressOptions) (*StressResult, error) {
	if client == nil || newReq == nil {
		return nil, fmt.Errorf("serving: stress test needs a client and a request generator")
	}
	opts.defaults()
	result := &StressResult{}
	var baselineP95 time.Duration

	for conc := 1; conc <= opts.MaxConcurrency; conc *= 2 {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("serving: stress test canceled before concurrency %d: %w", conc, err)
		}
		rec := metrics.NewLatencyRecorder(opts.RequestsPerLevel)
		var wg sync.WaitGroup
		var mu sync.Mutex
		var firstErr error
		perWorker := opts.RequestsPerLevel / conc
		if perWorker < 1 {
			perWorker = 1
		}
		start := time.Now()
		for w := 0; w < conc; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < perWorker; r++ {
					t0 := time.Now()
					var reply GatherReply
					if err := client.Gather(ctx, newReq(), &reply); err != nil {
						mu.Lock()
						if firstErr == nil {
							firstErr = err
						}
						mu.Unlock()
						return
					}
					rec.Observe(time.Since(t0))
				}
			}()
		}
		wg.Wait()
		if firstErr != nil {
			return nil, fmt.Errorf("serving: stress test at concurrency %d: %w", conc, firstErr)
		}
		elapsed := time.Since(start)
		issued := perWorker * conc
		sample := StressSample{
			Concurrency: conc,
			QPS:         float64(issued) / elapsed.Seconds(),
			P95:         rec.Quantile(0.95),
		}
		result.Samples = append(result.Samples, sample)
		if conc == 1 {
			baselineP95 = sample.P95
			if baselineP95 <= 0 {
				baselineP95 = time.Nanosecond
			}
		}
		if conc > 1 && float64(sample.P95) > opts.KneeFactor*float64(baselineP95) {
			result.KneeConcurrency = conc
			break
		}
		if sample.QPS > result.QPSMax {
			result.QPSMax = sample.QPS
		}
	}
	if result.QPSMax == 0 && len(result.Samples) > 0 {
		result.QPSMax = result.Samples[0].QPS
	}
	return result, nil
}
