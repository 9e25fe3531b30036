package main

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serving"
)

// maxInFlight caps the open-loop generator's outstanding requests; a
// request due while the cap is reached is counted as failed, not queued
// without bound.
const maxInFlight = 128

// segmentPeriod is how long clients replay one pool segment before moving
// to the next (plan_swap's rotating hot set). Three swap periods: a hot set
// lives long enough for the re-profiling loop to follow it.
const segmentPeriod = 3 * swapPeriod

// stuckGrace is how long after a phase's end an unanswered request is
// abandoned, so a wedged deployment fails the run and cannot hang it.
const stuckGrace = 15 * time.Second

// phaseResult is what one load phase observed.
type phaseResult struct {
	name    string
	wall    time.Duration
	samples []sample
}

// counts returns the requests attempted, answered correctly, and failed
// (an error, a wrong reply, or shed at the in-flight cap).
func (p *phaseResult) counts() (attempted, ok, failed int) {
	for _, s := range p.samples {
		if s.ok {
			ok++
		}
	}
	return len(p.samples), ok, len(p.samples) - ok
}

// quantile returns the q-quantile, in ms, of the latencies of the requests
// answered correctly.
func (p *phaseResult) quantile(q float64) float64 {
	return percentile(latenciesMs(p.samples, 0, time.Duration(math.MaxInt64)), q)
}

// loadgen drives a request pool through predict clients and checks every
// reply against the pool's oracle.
type loadgen struct {
	pool    *requestPool
	clients []serving.PredictClient
	strides []int // one replay stride per client, coprime to the segment length
	// origin is the run's clock: pool segments rotate by the time since
	// origin, whatever phase is running, so that the rotation keeps a fixed
	// timing against the plan swaps started at the same instant.
	origin time.Time
}

func newLoadgen(pool *requestPool, clients []serving.PredictClient) *loadgen {
	lo, hi := pool.segment(0)
	g := &loadgen{pool: pool, clients: clients, origin: time.Now()}
	stride := 5
	for range clients {
		for gcd(stride, hi-lo) != 1 {
			stride++
		}
		g.strides = append(g.strides, stride)
		stride += 2
	}
	return g
}

// withClients returns a generator that shares g's pool and clock but
// drives the given clients (no more of them than g has).
func (g *loadgen) withClients(clients ...serving.PredictClient) *loadgen {
	return &loadgen{pool: g.pool, clients: clients, strides: g.strides[:len(clients)], origin: g.origin}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// pick returns the pool index of a client's step-th request: the client
// walks the current segment at its own stride, so the clients never replay
// the pool in lock step.
func (g *loadgen) pick(client, step int) int {
	seg := int(time.Since(g.origin)/segmentPeriod) % g.pool.segments
	lo, hi := g.pool.segment(seg)
	return lo + (client*(hi-lo)/len(g.clients)+step*g.strides[client])%(hi-lo)
}

// send issues pool request i on a client and reports whether the reply
// matched the oracle.
func (g *loadgen) send(ctx context.Context, client, i int) bool {
	var reply serving.PredictReply
	if err := g.clients[client].Predict(ctx, g.pool.reqs[i], &reply); err != nil {
		return false
	}
	return g.pool.replyMatches(i, reply.Probs)
}

// phaseContext returns a context cancelled stuckGrace after dur.
func phaseContext(dur time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	t := time.AfterFunc(dur+stuckGrace, cancel)
	return ctx, func() { t.Stop(); cancel() }
}

// closed runs a closed loop for dur: every client sends its next request
// as soon as the previous reply lands.
func (g *loadgen) closed(name string, dur time.Duration) phaseResult {
	ctx, cancel := phaseContext(dur)
	defer cancel()
	per := make([][]sample, len(g.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for c := range g.clients {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for step := 0; ; step++ {
				at := time.Since(start)
				if at >= dur {
					return
				}
				ok := g.send(ctx, c, g.pick(c, step))
				per[c] = append(per[c], sample{at: at, lat: time.Since(start) - at, ok: ok})
			}
		}(c)
	}
	wg.Wait()
	res := phaseResult{name: name, wall: time.Since(start)}
	for _, s := range per {
		res.samples = append(res.samples, s...)
	}
	return res
}

// poissonSchedule returns the due times of a Poisson process of the given
// rate over [0, dur), drawn from seed.
func poissonSchedule(rate float64, dur time.Duration, seed uint64) []time.Duration {
	r := newRNG(seed)
	var due []time.Duration
	for t := r.exp() / rate; t < dur.Seconds(); t += r.exp() / rate {
		due = append(due, time.Duration(t*float64(time.Second)))
	}
	return due
}

// open runs an open loop for dur: requests leave on a seeded Poisson
// schedule at rate req/s whatever the replies do, pipelined over the
// clients' connections. Latency is timed from the instant a request was
// due, so a stall is charged to every request it delays.
func (g *loadgen) open(name string, rate float64, dur time.Duration, seed uint64) phaseResult {
	due := poissonSchedule(rate, dur, seed)
	ctx, cancel := phaseContext(dur)
	defer cancel()
	samples := make([]sample, len(due))
	var inFlight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for k, at := range due {
		time.Sleep(at - time.Since(start))
		samples[k] = sample{at: at, late: time.Since(start) - at}
		if inFlight.Load() >= maxInFlight {
			continue // shed: stays !ok
		}
		inFlight.Add(1)
		wg.Add(1)
		go func(k int, at time.Duration) {
			defer wg.Done()
			defer inFlight.Add(-1)
			c := k % len(g.clients)
			ok := g.send(ctx, c, g.pick(c, k/len(g.clients)))
			samples[k].lat, samples[k].ok = time.Since(start)-at, ok
		}(k, at)
	}
	wg.Wait()
	return phaseResult{name: name, wall: time.Since(start), samples: samples}
}
