package main

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

// runOptions are the knobs of one run.
type runOptions struct {
	seed    uint64
	seconds time.Duration // measured time, split over the phases
	warmup  time.Duration // discarded closed-loop traffic before any phase
	trace   bool          // the layer run instead of the timed run
	ladder  bool          // also climb the open-loop rate ladder (layer run)
	spans   string        // file the traced run's spans are written to ("" = none)
	log     io.Writer     // human-readable progress and the metric table
}

// A timed run builds the deployment at least setupRepeats times and goes on
// building until setupBudget is spent (at most setupRepeatsMax builds);
// setup_s is the median. A cheap set-up is thus sampled more often, over as
// long a stretch as a dear one: a box that is slow for half a second cannot
// move the median of a 0.1 s set-up either.
const (
	setupRepeats    = 5
	setupRepeatsMax = 15
	setupBudget     = 2500 * time.Millisecond
)

// phaseCount is the per-phase request accounting of a run.
type phaseCount struct {
	Name      string `json:"name"`
	Attempted int    `json:"attempted"`
	OK        int    `json:"ok"`
	Failed    int    `json:"failed"`
}

// runResult is everything one run of one workload produced.
type runResult struct {
	Workload  string       `json:"workload"`
	Seed      uint64       `json:"seed"`
	Seconds   float64      `json:"seconds"`
	Trace     bool         `json:"trace"`
	PoolHash  string       `json:"pool_hash"`
	Correct   bool         `json:"correct"`
	Attempted int          `json:"attempted"`
	Failed    int          `json:"failed"`
	Phases    []phaseCount `json:"phases"`
	EndToEnd  metricSet    `json:"end_to_end,omitempty"`
	PerLayer  metricSet    `json:"per_layer,omitempty"`
}

func (r *runResult) addPhase(p *phaseResult) {
	attempted, ok, failed := p.counts()
	r.Phases = append(r.Phases, phaseCount{Name: p.name, Attempted: attempted, OK: ok, Failed: failed})
	r.Attempted += attempted
	r.Failed += failed
}

// runWorkload sets the workload up, drives it and returns its metrics: the
// end-to-end set from a timed run, the per-layer set from a layer run.
// Every goroutine, listener and deployment it starts is gone when it
// returns.
func runWorkload(w *workload, opt runOptions) (*runResult, error) {
	baseline := runtime.NumGoroutine()
	res := &runResult{Workload: w.name, Seed: opt.seed, Seconds: opt.seconds.Seconds(), Trace: opt.trace}

	pool := newRequestPool(w.cfg, opt.seed, w.poolSize, w.segments)
	res.PoolHash = fmt.Sprintf("%016x", pool.hash)
	fmt.Fprintf(opt.log, "workload %s seed %d: pool of %d requests, %d distinct rows, hash %s\n",
		w.name, opt.seed, len(pool.reqs), pool.distinctRows, res.PoolHash)
	if err := pool.checkCoverage(w.rowCacheRows()); err != nil {
		return nil, err
	}

	var d *deployment
	var setups []time.Duration
	var spent time.Duration
	// The layer run does not report setup_s and builds once.
	for len(setups) == 0 || !opt.trace && len(setups) < setupRepeatsMax && (len(setups) < setupRepeats || spent < setupBudget) {
		if d != nil {
			d.close()
		}
		runtime.GC() // the previous build's tables must not be collected inside this one
		var took time.Duration
		var err error
		if d, took, err = setUp(w, pool, opt.seed); err != nil {
			return nil, err
		}
		setups = append(setups, took)
		spent += took
		if pool.oracle == nil {
			if err := pool.fillOracle(d.model); err != nil {
				d.close()
				return nil, err
			}
		}
	}
	defer func() {
		if d != nil {
			d.close()
		}
	}()
	if err := d.verifyOracle(pool); err != nil {
		return nil, err
	}
	fmt.Fprintf(opt.log, "set-up %v, oracle agrees on %d requests\n", setups, setupChecks)

	var err error
	if opt.trace {
		err = layerRun(w, d, pool, opt, res)
	} else {
		err = timedRun(w, d, pool, setups, opt, res)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0

	d.close()
	d = nil
	if err := awaitGoroutines(baseline); err != nil {
		return nil, err
	}
	return res, nil
}

// timedRun is the untraced run the end-to-end metrics come from: warm-up,
// a closed phase, then the two open-loop rates.
func timedRun(w *workload, d *deployment, pool *requestPool, setups []time.Duration, opt runOptions, res *runResult) error {
	swaps := startSwapper(w, d, pool)
	defer swaps.finish()                      // on an error path; the normal path finishes below
	g := newLoadgen(pool, d.predictClients()) // its clock starts with the swapper's
	g.closed("warm-up", opt.warmup)
	runtime.GC() // every run enters the phases from the same heap state
	closed, err := observeClosed(g, d, share(opt.seconds, timedClosedShare))
	if err != nil {
		return err
	}
	openLo := g.open("open_lo", w.rLo, share(opt.seconds, timedOpenLoShare), opt.seed^0x10)
	openHi := g.open("open_hi", w.rHi, share(opt.seconds, timedOpenHiShare), opt.seed^0x20)
	if err := swaps.finish(); err != nil {
		return err
	}
	for _, p := range []*phaseResult{&closed.phase, &openLo, &openHi} {
		res.addPhase(p)
	}
	res.EndToEnd = endToEnd(w, setups, closed, &openHi)
	res.PerLayer = metricSet{}
	counterMetrics(res.PerLayer, d, closed, swaps)
	loadgenMetrics(res.PerLayer, res, &openLo, &openHi, 0)
	return nil
}

// layerRun is the run the per-layer metrics come from: a closed phase read
// through the deployment's counters, a short open phase, one client alone
// through the frontend, the single-flight traced run, and last — with the
// traffic and any plan swaps stopped — the in-process comparison with the
// monolith and the kernels.
func layerRun(w *workload, d *deployment, pool *requestPool, opt runOptions, res *runResult) error {
	m := metricSet{}
	swaps := startSwapper(w, d, pool)
	g := newLoadgen(pool, d.predictClients()) // its clock starts with the swapper's
	defer swaps.finish()                      // on an error path; the normal path finishes below
	g.closed("warm-up", opt.warmup)
	runtime.GC()
	closed, err := observeClosed(g, d, share(opt.seconds, layerClosedShare))
	if err != nil {
		return err
	}
	openLo := g.open("open_lo", w.rLo, share(opt.seconds, layerOpenLoShare), opt.seed^0x10)
	openHi := g.open("open_hi", w.rHi, share(opt.seconds, layerOpenHiShare), opt.seed^0x20)
	solo := g.withClients(g.clients[0]).closed("solo", share(opt.seconds, layerSoloShare))
	for _, p := range []*phaseResult{&closed.phase, &openLo, &openHi, &solo} {
		res.addPhase(p)
	}
	soloP50 := solo.quantile(0.50)
	if err := traceMetrics(m, w, d, g, share(opt.seconds, layerTraceShare), soloP50, opt.spans, res); err != nil {
		return err
	}
	sloRate := 0.0
	if opt.ladder {
		sloRate = g.climbLadder(w, share(opt.seconds, layerOpenHiShare), opt.seed, res)
	}
	if err := swaps.finish(); err != nil {
		return err
	}

	if err := directMetrics(m, d, pool, share(opt.seconds, layerDirectShare)); err != nil {
		return err
	}
	if err := kernelMetrics(m, w, d, pool, share(opt.seconds, layerKernelShare)); err != nil {
		return err
	}
	denseShare := 0.0
	if soloP50 > 0 {
		denseShare = float64(w.cfg.BatchSize) * m["model.forward_pooled_us"].Value / 1e3 / soloP50
	}
	m.set("model.dense_share", denseShare, "ratio")
	counterMetrics(m, d, closed, swaps)
	loadgenMetrics(m, res, &openLo, &openHi, sloRate)
	res.PerLayer = m
	return nil
}

// ladderRungs are the open-loop rates of the diagnostic ladder, as
// multiples of the workload's frozen high rate.
var ladderRungs = []float64{0.75, 1.0, 1.2, 1.4}

// climbLadder runs an open phase at each rung and returns the highest rate
// whose p99 stayed within the latency limit with nothing failed (0 when not
// even the first rung did). Four fixed rungs make this a coarse, discrete
// figure: it is printed for orientation and not gated.
func (g *loadgen) climbLadder(w *workload, dur time.Duration, seed uint64, res *runResult) float64 {
	best := 0.0
	for i, rung := range ladderRungs {
		rate := rung * w.rHi
		p := g.open(fmt.Sprintf("ladder_%.0f", rate), rate, dur, seed^uint64(0x30+i))
		res.addPhase(&p)
		_, _, failed := p.counts()
		if failed == 0 && p.quantile(0.99) <= w.sloMs {
			best = rate
		}
	}
	return best
}

// awaitGoroutines waits for the goroutine count to fall back to baseline
// and fails if something the run started is still alive.
func awaitGoroutines(baseline int) error {
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			return fmt.Errorf("%d goroutines still running, %d at start:\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
	return nil
}
