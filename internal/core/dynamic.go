package core

import (
	"fmt"
	"time"

	"repro/internal/deploy"
	"repro/internal/model"
	"repro/internal/perfmodel"
	"repro/internal/workload"
)

// Fig19Point is one sample of the dynamic-traffic timeline.
type Fig19Point struct {
	Time        time.Duration
	TargetQPS   float64
	AchievedQPS float64
	MemBytes    int64
	TailLatency time.Duration
}

// Fig19Series is the timeline for one policy.
type Fig19Series struct {
	Policy deploy.Policy
	Points []Fig19Point
	// SLAViolations counts samples whose tail latency exceeded the SLA.
	SLAViolations int
	// PeakMemBytes is the maximum allocated memory over the run.
	PeakMemBytes int64
}

// DynamicTrafficConfig parameterises the Fig. 19 experiment.
type DynamicTrafficConfig struct {
	Platform perfmodel.Platform
	Model    model.Config
	// PeakQPS is the staircase peak (default 250; the paper drives RM1 to
	// ~250).
	PeakQPS float64
}

// The Fig. 19 timing: the HPA's 15 s control period (Kubernetes' default
// sync period) and 2 min scale-in stabilization, the timeline's 10 s
// sampling period, and the 1 s pod-lifecycle tick that both periods are
// multiples of. The SLA is deploy.DefaultSLA.
const (
	hpaInterval            = 15 * time.Second
	sampleEvery            = 10 * time.Second
	podTick                = time.Second
	scaleDownStabilization = 2 * time.Minute
)

// RunDynamicTraffic simulates the Fig. 19 experiment for one policy: the
// plan is materialized at the staircase's base load, then Kubernetes HPA
// controllers scale each deployment as the offered load steps up and down,
// with pod cold-start delays gating when capacity actually arrives.
func RunDynamicTraffic(cfg DynamicTrafficConfig, policy deploy.Policy) (*Fig19Series, error) {
	if cfg.PeakQPS <= 0 {
		cfg.PeakQPS = 250
	}
	prof, err := perfmodel.ProfileFor(cfg.Platform)
	if err != nil {
		return nil, err
	}
	planner := &deploy.Planner{Profile: prof}
	pattern := workload.Figure19Pattern(cfg.PeakQPS)

	base := pattern.QPSAt(0)
	plan, err := planner.Plan(policy, cfg.Model, base)
	if err != nil {
		return nil, err
	}
	fleet, err := plan.Materialize(prof.Node)
	if err != nil {
		return nil, err
	}

	// One HPA controller per shard deployment, as configured by the plan.
	hpas := make([]deploy.HPA, len(plan.Shards))
	for i := range plan.Shards {
		hpas[i].Policy = plan.Shards[i].HPA
		hpas[i].Policy.ScaleDownStabilization = scaleDownStabilization
		hpas[i].Policy.MaxReplicas = 512
	}

	// capacity returns the system's sustainable QPS: every query crosses
	// every shard deployment, so the slowest stage bounds throughput.
	capacity := func() float64 {
		minCap := -1.0
		for i := range plan.Shards {
			_, ready := fleet.Replicas(i)
			c := float64(ready) * plan.Shards[i].QPSPerReplica
			if minCap < 0 || c < minCap {
				minCap = c
			}
		}
		if minCap < 0 {
			return 0
		}
		return minCap
	}

	// Queueing inflation: near saturation the tail grows hyperbolically;
	// over capacity it exceeds any SLA.
	const maxLat = 2 * time.Second
	inflateWith := func(base time.Duration, u, coeff float64) time.Duration {
		if u >= 0.99 {
			return maxLat
		}
		lat := time.Duration(float64(base) * (1 + coeff*u/(1-u)))
		if lat > maxLat {
			lat = maxLat
		}
		return lat
	}
	inflate := func(base time.Duration, u float64) time.Duration {
		return inflateWith(base, u, 0.25)
	}
	// tailLatency is the end-to-end tail: the plan's base latency
	// inflated by the most-utilized stage. Only that one stage queues,
	// so the end-to-end coefficient is softer than the per-stage one.
	tailLatency := func(offered float64) time.Duration {
		cap := capacity()
		if cap <= 0 {
			return maxLat
		}
		return inflateWith(plan.AvgLatency, offered/cap, 0.15)
	}
	// stageLatency is the per-deployment tail the latency HPAs observe:
	// the stage's own service time inflated by its own utilization —
	// a saturated sparse stage must not drive dense scaling.
	stageLatency := func(d int, offered float64) time.Duration {
		s := &plan.Shards[d]
		_, ready := fleet.Replicas(d)
		cap := float64(ready) * s.QPSPerReplica
		if cap <= 0 {
			return maxLat
		}
		base := time.Duration(float64(time.Second) / s.QPSPerReplica)
		return inflate(base, offered/cap)
	}

	series := &Fig19Series{Policy: policy}
	scale := func(now time.Duration) {
		offered := pattern.QPSAt(now)
		for d := range hpas {
			metric := deploy.MetricSample{
				OfferedQPS:     offered,
				LatencySeconds: stageLatency(d, offered).Seconds(),
			}
			// Scheduling failures surface as stalled scaling, which the
			// timeline itself exposes; keep simulating.
			_, _ = hpas[d].Evaluate(fleet, d, metric, now)
		}
	}
	sample := func(now time.Duration) {
		offered := pattern.QPSAt(now)
		achieved := offered
		if cap := capacity(); achieved > cap {
			achieved = cap
		}
		lat := tailLatency(offered)
		mem := fleet.AllocatedMemBytes()
		if mem > series.PeakMemBytes {
			series.PeakMemBytes = mem
		}
		if lat > deploy.DefaultSLA {
			series.SLAViolations++
		}
		series.Points = append(series.Points, Fig19Point{
			Time:        now,
			TargetQPS:   offered,
			AchievedQPS: achieved,
			MemBytes:    mem,
			TailLatency: lat,
		})
	}

	// One pass per pod tick, up to and including the horizon. Events at
	// the same instant run in a fixed order, which testdata/fig19.golden
	// pins: at t = 0 the pods tick, then the first sample; after that the
	// HPA steps, then the sample, then the pods tick.
	fleet.Tick(0)
	sample(0)
	for now := podTick; now <= pattern.Duration(); now += podTick {
		if now%hpaInterval == 0 {
			scale(now)
		}
		if now%sampleEvery == 0 {
			sample(now)
		}
		fleet.Tick(now)
	}
	return series, nil
}

// Figure19 runs the dynamic-traffic experiment for both policies on RM1
// (CPU-only, as the paper plots) and renders the joint timeline.
func Figure19() (*Table, error) {
	cfg := DynamicTrafficConfig{Platform: perfmodel.CPUOnly, Model: model.RM1()}
	mw, err := RunDynamicTraffic(cfg, deploy.PolicyModelWise)
	if err != nil {
		return nil, err
	}
	er, err := RunDynamicTraffic(cfg, deploy.PolicyElastic)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title: "Figure 19: dynamic input traffic (RM1, CPU-only)",
		Header: []string{"minute", "target QPS",
			"MW QPS", "MW mem (GB)", "MW tail",
			"ER QPS", "ER mem (GB)", "ER tail"},
	}
	for i := range mw.Points {
		if i >= len(er.Points) {
			break
		}
		m, e := mw.Points[i], er.Points[i]
		if m.Time%(time.Minute) != 0 {
			continue
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f", m.Time.Minutes()),
			fmt.Sprintf("%.0f", m.TargetQPS),
			fmt.Sprintf("%.0f", m.AchievedQPS),
			gb(float64(m.MemBytes)),
			m.TailLatency.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", e.AchievedQPS),
			gb(float64(e.MemBytes)),
			e.TailLatency.Round(time.Millisecond).String(),
		})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("peak memory: MW %.0f GB vs ER %.0f GB (%.1fx); SLA(400ms) violations: MW %d vs ER %d samples",
			float64(mw.PeakMemBytes)/(1<<30), float64(er.PeakMemBytes)/(1<<30),
			float64(mw.PeakMemBytes)/float64(er.PeakMemBytes), mw.SLAViolations, er.SLAViolations),
		"paper: model-wise peaks at 3.1x ElasticRec's memory, lags traffic steps, and spikes past the SLA")
	return t, nil
}
