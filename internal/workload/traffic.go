package workload

import (
	"fmt"
	"sort"
	"time"
)

// TrafficPhase is one step of a piecewise-constant traffic pattern: from
// Start onward the offered load is TargetQPS until the next phase begins.
type TrafficPhase struct {
	Start     time.Duration
	TargetQPS float64
}

// TrafficPattern is a piecewise-constant offered-load schedule, e.g. the
// Fig. 19 staircase. Phases must be sorted by Start; NewTrafficPattern
// enforces this.
type TrafficPattern struct {
	phases []TrafficPhase
	total  time.Duration
}

// NewTrafficPattern validates and constructs a pattern lasting total.
func NewTrafficPattern(phases []TrafficPhase, total time.Duration) (*TrafficPattern, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("workload: traffic pattern needs at least one phase")
	}
	sorted := make([]TrafficPhase, len(phases))
	copy(sorted, phases)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Start < sorted[j].Start })
	if sorted[0].Start != 0 {
		return nil, fmt.Errorf("workload: first phase must start at 0, got %v", sorted[0].Start)
	}
	for i, p := range sorted {
		if p.TargetQPS < 0 {
			return nil, fmt.Errorf("workload: phase %d has negative QPS %v", i, p.TargetQPS)
		}
		if i > 0 && p.Start == sorted[i-1].Start {
			return nil, fmt.Errorf("workload: duplicate phase start %v", p.Start)
		}
	}
	if total <= sorted[len(sorted)-1].Start {
		return nil, fmt.Errorf("workload: total %v must exceed last phase start %v", total, sorted[len(sorted)-1].Start)
	}
	return &TrafficPattern{phases: sorted, total: total}, nil
}

// QPSAt returns the offered load at elapsed time t (clamped to the pattern).
func (p *TrafficPattern) QPSAt(t time.Duration) float64 {
	if t < 0 {
		t = 0
	}
	qps := p.phases[0].TargetQPS
	for _, ph := range p.phases {
		if ph.Start <= t {
			qps = ph.TargetQPS
		} else {
			break
		}
	}
	return qps
}

// Duration returns the total pattern length.
func (p *TrafficPattern) Duration() time.Duration { return p.total }

// Figure19Pattern reproduces the paper's dynamic-traffic experiment: the
// offered load rises in five increments between minute 5 and minute 20,
// then falls at minute 24, over a 30-minute run. peak is the maximum
// offered QPS (the paper drives RM1 to ~250 QPS at peak).
func Figure19Pattern(peak float64) *TrafficPattern {
	base := peak / 5
	phases := []TrafficPhase{
		{Start: 0, TargetQPS: base},
		{Start: 5 * time.Minute, TargetQPS: base * 2},
		{Start: 9 * time.Minute, TargetQPS: base * 3},
		{Start: 13 * time.Minute, TargetQPS: base * 4},
		{Start: 17 * time.Minute, TargetQPS: base * 4.5},
		{Start: 20 * time.Minute, TargetQPS: peak},
		{Start: 24 * time.Minute, TargetQPS: base * 2},
	}
	p, err := NewTrafficPattern(phases, 30*time.Minute)
	if err != nil {
		panic("workload: Figure19Pattern construction failed: " + err.Error())
	}
	return p
}

// PoissonArrivals generates successive inter-arrival gaps for a Poisson
// process whose rate follows a traffic pattern.
type PoissonArrivals struct {
	pattern *TrafficPattern
	rng     *RNG
	now     time.Duration
}

// NewPoissonArrivals creates an arrival process starting at t=0.
func NewPoissonArrivals(p *TrafficPattern, seed uint64) *PoissonArrivals {
	return &PoissonArrivals{pattern: p, rng: NewRNG(seed)}
}

// Next returns the absolute time of the next arrival and true, or false
// when the pattern has ended. Zero-rate phases are skipped by stepping in
// one-second increments.
func (a *PoissonArrivals) Next() (time.Duration, bool) {
	for {
		if a.now >= a.pattern.Duration() {
			return 0, false
		}
		rate := a.pattern.QPSAt(a.now)
		if rate <= 0 {
			a.now += time.Second
			continue
		}
		gap := time.Duration(a.rng.ExpFloat64() / rate * float64(time.Second))
		a.now += gap
		if a.now >= a.pattern.Duration() {
			return 0, false
		}
		return a.now, true
	}
}
