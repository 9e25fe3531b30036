// Package scenario is the declarative experiment harness: one JSON spec
// describes a whole serving experiment — the model mix, the traffic shape
// (constant / diurnal / flash-crowd / explicit phases, with optional
// access-trace replay per model), hotness-drift cadence, the measurement
// window and a timeline of injected events (kill or revive a shard
// replica, slow a shard, mid-run admin deploy/undeploy, forced
// repartition, phase markers). The runner stands up a real
// serving.MultiDeployment + Controller, drives Poisson traffic through the
// exported frontend, applies the timeline, and emits one machine-readable
// BENCH_scenario_<name>.json artifact per run (internal/benchio rows:
// p50/p95/p99 latency, achieved vs offered QPS, error rate, and the
// control plane's swap/replan/cache counters) that cmd/scenarioguard diffs
// against a checked-in baseline — so "does it survive a flash crowd with a
// dead replica?" is a config file, not new driver code.
package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"time"

	"repro/internal/serving"
)

// Duration is a time.Duration that unmarshals from JSON strings like
// "750ms" or "4s" (and, for convenience, bare numbers as nanoseconds).
type Duration time.Duration

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(raw []byte) error {
	var s string
	if err := json.Unmarshal(raw, &s); err == nil {
		parsed, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("scenario: bad duration %q: %w", s, err)
		}
		*d = Duration(parsed)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(raw, &ns); err != nil {
		return fmt.Errorf("scenario: duration must be a string like \"500ms\"")
	}
	*d = Duration(ns)
	return nil
}

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// D returns the value as a time.Duration.
func (d Duration) D() time.Duration { return time.Duration(d) }

// Spec is one declarative scenario. See docs/SCENARIOS.md for the schema
// reference and examples/scenarios/ for checked-in specs.
type Spec struct {
	// Name names the scenario; the artifact is BENCH_scenario_<name>.json.
	Name string `json:"name"`
	// Seed drives every random stream (arrivals, model pick, queries) so
	// a fixed-seed run offers a deterministic request sequence.
	Seed uint64 `json:"seed"`
	// Duration is the total run length; Warmup is the prefix excluded
	// from the measurement window (default: none).
	Duration Duration `json:"duration"`
	Warmup   Duration `json:"warmup"`
	// RequestTimeout bounds each in-flight request (default 5s).
	RequestTimeout Duration `json:"request_timeout"`
	// Models is the mix; entries with Deferred true are defined here but
	// only enter the frontend through a timeline "deploy" event.
	Models []ModelSpec `json:"models"`
	// Traffic is the offered-load shape shared by all models; each
	// arrival is assigned to a model by weight.
	Traffic Traffic `json:"traffic"`
	// Timeline is the injected-event schedule (may be empty).
	Timeline []Event `json:"timeline"`
}

// ModelSpec declares one DLRM variant of the mix. It is the declarative
// face of serving.ModelSpec: the runner instantiates the model from
// (geometry, seed), profiles a window, plans boundaries and builds it.
type ModelSpec struct {
	// Name is the variant name requests address.
	Name string `json:"name"`
	// Rows/Tables/BatchSize/Pooling override the scaled-down RM1
	// geometry (defaults: 12000 rows, 2 tables, RM1 batch/pooling).
	Rows      int64 `json:"rows"`
	Tables    int   `json:"tables"`
	BatchSize int   `json:"batch_size"`
	Pooling   int   `json:"pooling"`
	// Seed selects the variant's parameters and query stream.
	Seed uint64 `json:"seed"`
	// Weight is the variant's share of arrivals (default 1).
	Weight float64 `json:"weight"`
	// WindowQueries sizes the pre-deployment profiling window
	// (default 100 queries per table).
	WindowQueries int `json:"window_queries"`
	// Locality overrides the power-law locality P (default: RM1's).
	Locality float64 `json:"locality"`
	// Trace, when set, replays a recorded access trace (CSV, see
	// internal/workload WriteTrace/ReadTrace; resolved relative to the
	// spec file) as the variant's access distribution instead of the
	// synthetic power law.
	Trace string `json:"trace"`
	// Transport is "tcp" (default: real loopback microservices) or
	// "local" (in-process, used by unit tests).
	Transport string `json:"transport"`
	// Replicas[s] is shard s's initial replica count (nil = 1 each);
	// fault-injection scenarios need >=2 on the shard they kill.
	Replicas []int `json:"replicas"`
	// Batching, when set, fronts the variant with the dynamic batcher.
	Batching *Batching `json:"batching"`
	// Drift, when set, migrates the variant's hot set during the run.
	Drift *Drift `json:"drift"`
	// Autoscale, when set, runs the queue-depth autoscaler over the
	// variant's shard pools: replicas are added/removed from pull-queue
	// pressure alone, within the serving epoch, without a repartition.
	Autoscale *Autoscale `json:"autoscale"`
	// RowCacheBytes, when positive, enables the frontend hot-row cache
	// (gather path v2) with this byte budget; hit/miss/bytes counters
	// surface in the artifact's per-model rows.
	RowCacheBytes int64 `json:"row_cache_bytes"`
	// Deferred defines the variant without deploying it at start: it is
	// not serving until a timeline "deploy" event.
	Deferred bool `json:"deferred"`
}

// Autoscale configures a variant's queue-depth replica autoscaler (the
// declarative face of serving.QueuePolicy + LiveAutoscaler).
type Autoscale struct {
	// Interval is the control-loop tick (default 1s).
	Interval Duration `json:"interval"`
	// HighDepth scales a shard out when its per-replica queue-depth EWMA
	// exceeds it; LowDepth scales in below it (LowDepth < HighDepth is the
	// hysteresis band).
	HighDepth float64 `json:"high_depth"`
	LowDepth  float64 `json:"low_depth"`
	// Cooldown is the minimum time between scale actions on one shard.
	Cooldown Duration `json:"cooldown"`
	// MaxReplicas caps each shard's scale-out (0 = unlimited).
	MaxReplicas int `json:"max_replicas"`
}

// queuePolicy is the serving-side policy the block declares.
func (a *Autoscale) queuePolicy() *serving.QueuePolicy {
	return &serving.QueuePolicy{HighDepth: a.HighDepth, LowDepth: a.LowDepth, Cooldown: a.Cooldown.D()}
}

// Batching configures a variant's dynamic batcher.
type Batching struct {
	MaxBatch int      `json:"max_batch"`
	MaxDelay Duration `json:"max_delay"`
}

// Drift schedules hotness migration through workload.DriftingSampler: a
// one-shot shift At, and/or a repeating cadence Every. Each firing
// advances the hot set by Fraction of the table (default 0.5).
type Drift struct {
	At       Duration `json:"at"`
	Every    Duration `json:"every"`
	Fraction float64  `json:"fraction"`
}

// Traffic is the offered-load shape. Shape selects which fields apply:
//
//	constant:    base_qps
//	diurnal:     base_qps .. peak_qps over a sinusoidal period (steps
//	             piecewise-constant levels per period, default 16)
//	flash-crowd: base_qps, spiking to peak_qps at peak_start for
//	             peak_duration
//	phases:      explicit piecewise-constant schedule
type Traffic struct {
	Shape        string   `json:"shape"`
	BaseQPS      float64  `json:"base_qps"`
	PeakQPS      float64  `json:"peak_qps"`
	Period       Duration `json:"period"`
	Steps        int      `json:"steps"`
	PeakStart    Duration `json:"peak_start"`
	PeakDuration Duration `json:"peak_duration"`
	Phases       []Phase  `json:"phases"`
}

// Phase is one step of an explicit traffic schedule.
type Phase struct {
	Start Duration `json:"start"`
	QPS   float64  `json:"qps"`
}

// Event actions.
const (
	// ActionKillReplica marks one replica of a shard pool dead: requests
	// round-robined onto it fail and the pool's request-level failover
	// retries the survivors (serving.ReplicaPool.KillReplica).
	ActionKillReplica = "kill-replica"
	// ActionReviveReplica brings a killed replica back.
	ActionReviveReplica = "revive-replica"
	// ActionSlowShard injects Delay into every gather through a shard's
	// pool (Delay 0 removes the injection).
	ActionSlowShard = "slow-shard"
	// ActionDeploy deploys a model that is not serving — deferred, or
	// undeployed earlier — over the admin API mid-run.
	ActionDeploy = "deploy"
	// ActionUndeploy drains a model out over the admin API mid-run.
	ActionUndeploy = "undeploy"
	// ActionRepartition forces a profile -> replan -> zero-downtime swap
	// for one model.
	ActionRepartition = "repartition"
	// ActionDrift advances a model's hot set by Fraction of its rows.
	ActionDrift = "drift"
	// ActionPhase marks a measurement-phase boundary: the collector
	// closes the current phase and opens one named Label. An at-0 phase
	// event names the first phase.
	ActionPhase = "phase"
	// ActionScale is recorded (never scheduled) when a model's queue-depth
	// autoscaler adds or removes a shard replica during the run; it is not
	// a valid timeline action.
	ActionScale = "scale"
)

// Event is one timeline entry. At is relative to run start; fields beyond
// (At, Action) apply per action.
type Event struct {
	At     Duration `json:"at"`
	Action string   `json:"action"`
	// Model targets a variant (every action except phase).
	Model string `json:"model"`
	// Table/Shard/Replica address a shard pool replica
	// (kill-replica / revive-replica / slow-shard; Replica unused by
	// slow-shard).
	Table   int `json:"table"`
	Shard   int `json:"shard"`
	Replica int `json:"replica"`
	// Delay is the injected gather latency (slow-shard).
	Delay Duration `json:"delay"`
	// Fraction is the hot-set advance as a fraction of rows (drift;
	// default 0.5, may be negative to shift back).
	Fraction float64 `json:"fraction"`
	// Label names the phase a phase event opens.
	Label string `json:"label"`
}

var nameRe = regexp.MustCompile(`^[a-z0-9][a-z0-9._-]*$`)

// knownActions gates Event.Action at parse time.
var knownActions = map[string]bool{
	ActionKillReplica:   true,
	ActionReviveReplica: true,
	ActionSlowShard:     true,
	ActionDeploy:        true,
	ActionUndeploy:      true,
	ActionRepartition:   true,
	ActionDrift:         true,
	ActionPhase:         true,
}

// Parse decodes and validates a spec from JSON. Unknown keys anywhere in
// the document are rejected — a typoed field must fail the run, not
// silently revert to a default.
func Parse(raw []byte) (*Spec, error) {
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	spec := &Spec{}
	if err := dec.Decode(spec); err != nil {
		return nil, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("scenario: trailing data after spec document")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return spec, nil
}

// ParseFile loads a spec from path; relative model trace paths resolve
// against the spec file's directory.
func ParseFile(path string) (*Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec, err := Parse(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	dir := filepath.Dir(path)
	for i := range spec.Models {
		if t := spec.Models[i].Trace; t != "" && !filepath.IsAbs(t) {
			spec.Models[i].Trace = filepath.Join(dir, t)
		}
	}
	return spec, nil
}

// Validate checks the spec's internal consistency: names, geometry,
// traffic-shape parameters, and that every timeline event is inside the
// run, has a known action, and targets a declared model that is (or, for
// deploy, is not) serving when the event fires.
func (s *Spec) Validate() error {
	if !nameRe.MatchString(s.Name) {
		return fmt.Errorf("scenario: name %q must match %s", s.Name, nameRe)
	}
	if s.Duration <= 0 {
		return fmt.Errorf("scenario %s: duration must be positive", s.Name)
	}
	if s.Warmup < 0 || s.Warmup.D() >= s.Duration.D() {
		return fmt.Errorf("scenario %s: warmup %v must be in [0, duration)", s.Name, s.Warmup.D())
	}
	if s.RequestTimeout < 0 {
		return fmt.Errorf("scenario %s: request_timeout must not be negative", s.Name)
	}
	if len(s.Models) == 0 {
		return fmt.Errorf("scenario %s: needs at least one model", s.Name)
	}
	models := map[string]*ModelSpec{}
	active := 0
	for i := range s.Models {
		m := &s.Models[i]
		if !nameRe.MatchString(m.Name) {
			return fmt.Errorf("scenario %s: model name %q must match %s", s.Name, m.Name, nameRe)
		}
		if models[m.Name] != nil {
			return fmt.Errorf("scenario %s: duplicate model %q", s.Name, m.Name)
		}
		models[m.Name] = m
		if m.Rows < 0 || m.Tables < 0 || m.BatchSize < 0 || m.Pooling < 0 || m.WindowQueries < 0 {
			return fmt.Errorf("scenario %s: model %q: geometry fields must not be negative", s.Name, m.Name)
		}
		if m.Weight < 0 {
			return fmt.Errorf("scenario %s: model %q: weight must not be negative", s.Name, m.Name)
		}
		if m.Locality < 0 || m.Locality > 1 {
			return fmt.Errorf("scenario %s: model %q: locality must be in [0,1]", s.Name, m.Name)
		}
		switch m.Transport {
		case "", "local", "tcp":
		default:
			return fmt.Errorf("scenario %s: model %q: transport must be local or tcp", s.Name, m.Name)
		}
		for si, r := range m.Replicas {
			if r < 0 {
				return fmt.Errorf("scenario %s: model %q: replicas[%d] must not be negative", s.Name, m.Name, si)
			}
		}
		if m.Drift != nil {
			if m.Drift.At < 0 || m.Drift.Every < 0 {
				return fmt.Errorf("scenario %s: model %q: drift times must not be negative", s.Name, m.Name)
			}
			if m.Drift.At == 0 && m.Drift.Every == 0 {
				return fmt.Errorf("scenario %s: model %q: drift needs at or every", s.Name, m.Name)
			}
		}
		if a := m.Autoscale; a != nil {
			if err := a.queuePolicy().Validate(); err != nil {
				return fmt.Errorf("scenario %s: model %q: autoscale: %w", s.Name, m.Name, err)
			}
			if a.Interval < 0 {
				return fmt.Errorf("scenario %s: model %q: autoscale interval must not be negative", s.Name, m.Name)
			}
			if a.MaxReplicas < 0 {
				return fmt.Errorf("scenario %s: model %q: autoscale max_replicas must not be negative", s.Name, m.Name)
			}
		}
		if m.RowCacheBytes < 0 {
			return fmt.Errorf("scenario %s: model %q: row_cache_bytes must not be negative", s.Name, m.Name)
		}
		if !m.Deferred {
			active++
		}
	}
	if active == 0 {
		return fmt.Errorf("scenario %s: every model is deferred; nothing to serve at start", s.Name)
	}
	if err := s.Traffic.validate(s); err != nil {
		return err
	}
	for i := range s.Timeline {
		e := &s.Timeline[i]
		if e.At < 0 || e.At.D() >= s.Duration.D() {
			return fmt.Errorf("scenario %s: timeline[%d]: at %v outside [0, %v)", s.Name, i, e.At.D(), s.Duration.D())
		}
		if !knownActions[e.Action] {
			return fmt.Errorf("scenario %s: timeline[%d]: unknown action %q", s.Name, i, e.Action)
		}
		if e.Action == ActionPhase {
			if e.Label == "" {
				return fmt.Errorf("scenario %s: timeline[%d]: phase needs a label", s.Name, i)
			}
			continue
		}
		if models[e.Model] == nil {
			return fmt.Errorf("scenario %s: timeline[%d]: %s targets undeclared model %q", s.Name, i, e.Action, e.Model)
		}
		switch e.Action {
		case ActionKillReplica, ActionReviveReplica, ActionSlowShard:
			if e.Table < 0 || e.Shard < 0 || e.Replica < 0 {
				return fmt.Errorf("scenario %s: timeline[%d]: table/shard/replica must not be negative", s.Name, i)
			}
			if e.Delay < 0 {
				return fmt.Errorf("scenario %s: timeline[%d]: delay must not be negative", s.Name, i)
			}
		}
	}
	return s.validateLiveness()
}

// validateLiveness walks the timeline in firing order, tracking which
// models are serving at each instant: deploy needs a model that is not
// serving (deferred, or undeployed earlier), and every other model-level
// action except drift needs one that is — so an event that could only
// fail mid-run fails at parse time instead.
func (s *Spec) validateLiveness() error {
	serving := map[string]bool{}
	for _, m := range s.Models {
		serving[m.Name] = !m.Deferred
	}
	for _, e := range s.sortedTimeline() {
		switch e.Action {
		case ActionPhase, ActionDrift:
			continue
		case ActionDeploy:
			if serving[e.Model] {
				return fmt.Errorf("scenario %s: deploy at %v targets %q, which is already serving (mark it deferred or undeploy it first)", s.Name, e.At.D(), e.Model)
			}
			serving[e.Model] = true
			continue
		}
		if !serving[e.Model] {
			return fmt.Errorf("scenario %s: %s at %v targets %q, which is not serving then", s.Name, e.Action, e.At.D(), e.Model)
		}
		if e.Action == ActionUndeploy {
			serving[e.Model] = false
		}
	}
	return nil
}

// sortedTimeline returns the timeline ordered by At, preserving spec
// order for same-instant events.
func (s *Spec) sortedTimeline() []Event {
	out := append([]Event(nil), s.Timeline...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Scale returns a copy with every time in the spec (duration, warmup,
// traffic schedule, drift cadence, timeline) multiplied by f — how short
// mode compresses a scenario without changing its shape. Rates (QPS) are
// untouched, so metrics stay comparable across scales.
func (s *Spec) Scale(f float64) *Spec {
	scale := func(d Duration) Duration { return Duration(float64(d) * f) }
	out := *s
	out.Duration = scale(s.Duration)
	out.Warmup = scale(s.Warmup)
	out.Traffic.Period = scale(s.Traffic.Period)
	out.Traffic.PeakStart = scale(s.Traffic.PeakStart)
	out.Traffic.PeakDuration = scale(s.Traffic.PeakDuration)
	out.Traffic.Phases = append([]Phase(nil), s.Traffic.Phases...)
	for i := range out.Traffic.Phases {
		out.Traffic.Phases[i].Start = scale(out.Traffic.Phases[i].Start)
	}
	out.Models = append([]ModelSpec(nil), s.Models...)
	for i := range out.Models {
		if d := out.Models[i].Drift; d != nil {
			scaled := *d
			scaled.At = scale(d.At)
			scaled.Every = scale(d.Every)
			out.Models[i].Drift = &scaled
		}
		if a := out.Models[i].Autoscale; a != nil {
			scaled := *a
			scaled.Interval = scale(a.Interval)
			scaled.Cooldown = scale(a.Cooldown)
			out.Models[i].Autoscale = &scaled
		}
	}
	out.Timeline = append([]Event(nil), s.Timeline...)
	for i := range out.Timeline {
		out.Timeline[i].At = scale(out.Timeline[i].At)
	}
	return &out
}

// validate checks the traffic block against the run duration.
func (t *Traffic) validate(s *Spec) error {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("scenario %s: traffic: %s", s.Name, fmt.Sprintf(format, args...))
	}
	if t.BaseQPS < 0 || t.PeakQPS < 0 {
		return bad("QPS values must not be negative")
	}
	switch t.Shape {
	case "constant":
		if t.BaseQPS <= 0 {
			return bad("constant shape needs base_qps > 0")
		}
	case "diurnal":
		if t.BaseQPS <= 0 || t.PeakQPS < t.BaseQPS {
			return bad("diurnal shape needs base_qps > 0 and peak_qps >= base_qps")
		}
		if t.Period <= 0 {
			return bad("diurnal shape needs a positive period")
		}
		if t.Steps < 0 {
			return bad("steps must not be negative")
		}
	case "flash-crowd":
		if t.BaseQPS <= 0 || t.PeakQPS < t.BaseQPS {
			return bad("flash-crowd shape needs base_qps > 0 and peak_qps >= base_qps")
		}
		if t.PeakDuration <= 0 {
			return bad("flash-crowd shape needs a positive peak_duration")
		}
		if t.PeakStart < 0 || t.PeakStart.D()+t.PeakDuration.D() > s.Duration.D() {
			return bad("flash-crowd peak [%v, %v) must fit inside the run", t.PeakStart.D(), t.PeakStart.D()+t.PeakDuration.D())
		}
	case "phases":
		if len(t.Phases) == 0 {
			return bad("phases shape needs at least one phase")
		}
		first := t.Phases[0].Start
		for i, p := range t.Phases {
			if p.QPS < 0 {
				return bad("phase %d has negative qps", i)
			}
			if p.Start < 0 || p.Start.D() >= s.Duration.D() {
				return bad("phase %d start %v outside [0, %v)", i, p.Start.D(), s.Duration.D())
			}
			if p.Start < first {
				first = p.Start
			}
		}
		if first != 0 {
			return bad("one phase must start at 0")
		}
	case "":
		return bad("shape is required (constant | diurnal | flash-crowd | phases)")
	default:
		return bad("unknown shape %q", t.Shape)
	}
	return nil
}
