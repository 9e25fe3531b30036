package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/serving"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects named metrics; set panics on a duplicate name, which
// only a bug in the benchmark can cause.
type metricSet map[string]metric

func (m metricSet) set(name string, value float64, unit string) {
	if _, dup := m[name]; dup {
		panic("benchmark: metric " + name + " reported twice")
	}
	m[name] = metric{Value: value, Unit: unit}
}

// Phase shares of the measured seconds. The timed run is three load
// phases, most of it the closed one that five of its metrics come from; the
// layer run shortens them to make room for the two single-flight runs and
// the kernels.
const (
	timedClosedShare = 0.55
	timedOpenLoShare = 0.15
	timedOpenHiShare = 0.30

	layerClosedShare = 0.20
	layerOpenLoShare = 0.10
	layerOpenHiShare = 0.15
	layerSoloShare   = 0.10 // one client, untraced, through the frontend
	layerTraceShare  = 0.25
	layerDirectShare = 0.06 // in-process Predict and the monolith, interleaved
	layerKernelShare = 0.14 // split evenly over the kernels

	latencyWindows = 6 // windows a phase is cut into for its p99
)

// share returns the given share of the measured seconds.
func share(total time.Duration, s float64) time.Duration {
	return time.Duration(float64(total) * s)
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// memSampler samples the runtime's memory and goroutine count beside a
// load phase.
type memSampler struct {
	liveMB         []float64
	goroutinesPeak int
	stop, done     chan struct{}
}

// Runtime metrics sampled: the heap the last collection found live, plus
// goroutine stacks. Live heap, not heap in use: on a mostly static heap the
// in-use figure saws between collections that are seconds apart, so it
// depends on where the phase happens to start.
const (
	metricHeapLive = "/gc/heap/live:bytes"
	metricStacks   = "/memory/classes/heap/stacks:bytes"
)

func startMemSampler(every time.Duration) *memSampler {
	s := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		read := []metrics.Sample{{Name: metricHeapLive}, {Name: metricStacks}}
		for {
			metrics.Read(read)
			s.liveMB = append(s.liveMB, float64(read[0].Value.Uint64()+read[1].Value.Uint64())/(1<<20))
			if n := runtime.NumGoroutine(); n > s.goroutinesPeak {
				s.goroutinesPeak = n
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *memSampler) finish() {
	close(s.stop)
	<-s.done
}

// closedObservation is a closed phase with everything measured around it.
type closedObservation struct {
	phase          phaseResult
	began          time.Time
	cpu            time.Duration
	mem            *memSampler
	before, after  runtime.MemStats
	countersBefore serving.BuildCounters
	countersAfter  serving.BuildCounters
}

// observeClosed runs the closed phase between two readings of the process
// CPU clock, the allocator statistics and the deployment's counters, with
// the memory sampler beside it.
func observeClosed(g *loadgen, d *deployment, dur time.Duration) (*closedObservation, error) {
	o := &closedObservation{countersBefore: d.ld.BuildCounters()}
	runtime.ReadMemStats(&o.before)
	cpu0, err := cpuTime()
	if err != nil {
		return nil, err
	}
	o.mem = startMemSampler(dur / 32)
	o.began = time.Now()
	o.phase = g.closed("closed", dur)
	o.mem.finish()
	cpu1, err := cpuTime()
	if err != nil {
		return nil, err
	}
	o.cpu = cpu1 - cpu0
	runtime.ReadMemStats(&o.after)
	o.countersAfter = d.ld.BuildCounters()
	return o, nil
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// endToEnd derives the user-visible metrics of a timed run.
func endToEnd(w *workload, setups []time.Duration, closed *closedObservation, openHi *phaseResult) metricSet {
	m := metricSet{}
	var setupS []float64
	for _, s := range setups {
		setupS = append(setupS, s.Seconds())
	}
	m.set("setup_s", median(setupS), "s")

	_, ok, _ := closed.phase.counts()
	m.set("qps", float64(ok)/closed.phase.wall.Seconds(), "req/s")
	m.set("lat_p50_ms", closed.phase.quantile(0.50), "ms")
	m.set("lat_p99_ms", windowedPercentile(closed.phase.samples, closed.phase.wall, latencyWindows, 0.99), "ms")
	within := 0
	for _, s := range openHi.samples {
		if s.ok && ms(s.lat) <= w.sloMs {
			within++
		}
	}
	m.set("slo_ok_share", float64(within)/float64(max(len(openHi.samples), 1)), "ratio")
	m.set("cpu_ms_per_req", ms(closed.cpu)/float64(max(ok, 1)), "ms")
	m.set("mem_mb", mean(closed.mem.liveMB), "MB")
	return m
}
