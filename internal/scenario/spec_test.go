package scenario

import (
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// validSpec is a minimal well-formed document tests mutate from.
const validSpec = `{
	"name": "unit",
	"seed": 7,
	"duration": "400ms",
	"warmup": "100ms",
	"models": [{"name": "rm1", "rows": 4000, "tables": 2, "seed": 1}],
	"traffic": {"shape": "constant", "base_qps": 100}
}`

func TestParseValid(t *testing.T) {
	spec, err := Parse([]byte(validSpec))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if spec.Name != "unit" || spec.Duration.D() != 400*time.Millisecond {
		t.Fatalf("unexpected spec: %+v", spec)
	}
	if len(spec.Models) != 1 || spec.Models[0].Rows != 4000 {
		t.Fatalf("unexpected models: %+v", spec.Models)
	}
}

func TestParseRejectsUnknownKeys(t *testing.T) {
	cases := map[string]string{
		"top level": strings.Replace(validSpec, `"seed": 7,`, `"seed": 7, "durration": "1s",`, 1),
		"model":     strings.Replace(validSpec, `"rows": 4000,`, `"rowz": 4000,`, 1),
		"traffic":   strings.Replace(validSpec, `"base_qps": 100`, `"base_qpz": 100`, 1),
	}
	for where, doc := range cases {
		if _, err := Parse([]byte(doc)); err == nil {
			t.Errorf("%s: unknown key accepted", where)
		}
	}
}

func TestParseRejectsTrailingData(t *testing.T) {
	if _, err := Parse([]byte(validSpec + `{"name": "second"}`)); err == nil {
		t.Fatal("trailing document accepted")
	}
}

func TestParseRejectsBadDuration(t *testing.T) {
	doc := strings.Replace(validSpec, `"400ms"`, `"fast"`, 1)
	if _, err := Parse([]byte(doc)); err == nil {
		t.Fatal("unparseable duration accepted")
	}
}

func TestValidateRejectsBadTimelines(t *testing.T) {
	// base declares rm1 (serving at start) and late (deferred).
	base := func() *Spec {
		spec, err := Parse([]byte(validSpec))
		if err != nil {
			t.Fatalf("Parse: %v", err)
		}
		spec.Models = append(spec.Models, ModelSpec{Name: "late", Deferred: true})
		return spec
	}
	ms := func(n int) Duration { return Duration(time.Duration(n) * time.Millisecond) }
	ev := func(at int, action, mdl string) Event { return Event{At: ms(at), Action: action, Model: mdl} }
	cases := []struct {
		name     string
		timeline []Event
	}{
		{"unknown action", []Event{ev(10, "explode", "rm1")}},
		{"beyond duration", []Event{ev(1000, ActionDrift, "rm1")}},
		{"negative at", []Event{ev(-1, ActionDrift, "rm1")}},
		{"undeclared model", []Event{ev(0, ActionRepartition, "ghost")}},
		{"phase without label", []Event{{At: 0, Action: ActionPhase}}},
		{"negative replica", []Event{{At: 0, Action: ActionKillReplica, Model: "rm1", Replica: -1}}},
		{"negative delay", []Event{{At: 0, Action: ActionSlowShard, Model: "rm1", Delay: ms(-1)}}},
		{"deploy of live model", []Event{ev(0, ActionDeploy, "rm1")}},
		// Liveness: the timeline is walked in firing order, not spec order.
		{"repartition of deferred model before its deploy", []Event{ev(20, ActionDeploy, "late"), ev(10, ActionRepartition, "late")}},
		{"kill-replica of deferred model before its deploy", []Event{ev(10, ActionKillReplica, "late"), ev(20, ActionDeploy, "late")}},
		{"revive-replica of deferred model before its deploy", []Event{ev(10, ActionReviveReplica, "late"), ev(20, ActionDeploy, "late")}},
		{"slow-shard of deferred model before its deploy", []Event{ev(10, ActionSlowShard, "late"), ev(20, ActionDeploy, "late")}},
		{"undeploy of deferred model before its deploy", []Event{ev(10, ActionUndeploy, "late"), ev(20, ActionDeploy, "late")}},
		{"second undeploy", []Event{ev(10, ActionUndeploy, "rm1"), ev(20, ActionUndeploy, "rm1")}},
		{"repartition after undeploy", []Event{ev(10, ActionUndeploy, "rm1"), ev(20, ActionRepartition, "rm1")}},
		{"deploy of model serving again after redeploy", []Event{
			ev(10, ActionDeploy, "late"), ev(20, ActionUndeploy, "late"), ev(30, ActionDeploy, "late"), ev(40, ActionDeploy, "late")}},
	}
	for _, tc := range cases {
		spec := base()
		spec.Timeline = tc.timeline
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	accepted := []struct {
		name     string
		timeline []Event
	}{
		{"undeploy then redeploy of one name", []Event{
			ev(10, ActionUndeploy, "rm1"), ev(20, ActionDeploy, "rm1"), ev(30, ActionRepartition, "rm1")}},
		{"drift of deferred model before its deploy", []Event{
			ev(10, ActionDrift, "late"), ev(20, ActionDeploy, "late"), ev(30, ActionRepartition, "late")}},
	}
	for _, tc := range accepted {
		spec := base()
		spec.Timeline = tc.timeline
		if err := spec.Validate(); err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
	}
}

// TestCheckedInSpecsValidate parses every spec under examples/scenarios,
// so a broken or liveness-violating spec fails tier-1 rather than only the
// scenario-smoke job.
func TestCheckedInSpecsValidate(t *testing.T) {
	paths, err := filepath.Glob("../../examples/scenarios/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no checked-in specs found")
	}
	for _, p := range paths {
		if _, err := ParseFile(p); err != nil {
			t.Errorf("%v", err)
		}
	}
}

func TestValidateRejectsBadShapes(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"no shape", func(s *Spec) { s.Traffic = Traffic{} }},
		{"unknown shape", func(s *Spec) { s.Traffic.Shape = "chaotic" }},
		{"constant zero qps", func(s *Spec) { s.Traffic.BaseQPS = 0 }},
		{"diurnal no period", func(s *Spec) {
			s.Traffic = Traffic{Shape: "diurnal", BaseQPS: 10, PeakQPS: 20}
		}},
		{"flash peak outside run", func(s *Spec) {
			s.Traffic = Traffic{Shape: "flash-crowd", BaseQPS: 10, PeakQPS: 20,
				PeakStart: Duration(300 * time.Millisecond), PeakDuration: Duration(time.Second)}
		}},
		{"phases none at zero", func(s *Spec) {
			s.Traffic = Traffic{Shape: "phases", Phases: []Phase{{Start: Duration(time.Millisecond), QPS: 10}}}
		}},
		{"all models deferred", func(s *Spec) { s.Models[0].Deferred = true }},
		{"duplicate model", func(s *Spec) { s.Models = append(s.Models, s.Models[0]) }},
		{"warmup past duration", func(s *Spec) { s.Warmup = s.Duration }},
		{"drift without cadence", func(s *Spec) { s.Models[0].Drift = &Drift{} }},
		// The first three are serving.QueuePolicy.Validate's checks,
		// the last two the block's own.
		{"autoscale no high depth", func(s *Spec) { s.Models[0].Autoscale = &Autoscale{} }},
		{"autoscale no hysteresis band", func(s *Spec) { s.Models[0].Autoscale = &Autoscale{HighDepth: 2, LowDepth: 2} }},
		{"autoscale negative cooldown", func(s *Spec) { s.Models[0].Autoscale = &Autoscale{HighDepth: 2, Cooldown: -1} }},
		{"autoscale negative interval", func(s *Spec) { s.Models[0].Autoscale = &Autoscale{HighDepth: 2, Interval: -1} }},
		{"autoscale negative max replicas", func(s *Spec) { s.Models[0].Autoscale = &Autoscale{HighDepth: 2, MaxReplicas: -1} }},
	}
	for _, tc := range cases {
		spec, err := Parse([]byte(validSpec))
		if err != nil {
			t.Fatalf("Parse: %v", err)
		}
		tc.mut(spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestScaleCompressesTimesNotRates(t *testing.T) {
	spec, err := Parse([]byte(validSpec))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	spec.Traffic = Traffic{Shape: "flash-crowd", BaseQPS: 50, PeakQPS: 200,
		PeakStart: Duration(100 * time.Millisecond), PeakDuration: Duration(100 * time.Millisecond)}
	spec.Models[0].Drift = &Drift{Every: Duration(80 * time.Millisecond)}
	spec.Timeline = []Event{{At: Duration(200 * time.Millisecond), Action: ActionRepartition, Model: "rm1"}}

	half := spec.Scale(0.5)
	if half.Duration.D() != 200*time.Millisecond || half.Warmup.D() != 50*time.Millisecond {
		t.Fatalf("duration/warmup not scaled: %v/%v", half.Duration.D(), half.Warmup.D())
	}
	if half.Traffic.PeakStart.D() != 50*time.Millisecond || half.Traffic.BaseQPS != 50 {
		t.Fatalf("traffic scaled wrong: %+v", half.Traffic)
	}
	if half.Models[0].Drift.Every.D() != 40*time.Millisecond {
		t.Fatalf("drift cadence not scaled: %v", half.Models[0].Drift.Every.D())
	}
	if half.Timeline[0].At.D() != 100*time.Millisecond {
		t.Fatalf("timeline not scaled: %v", half.Timeline[0].At.D())
	}
	// The original is untouched (Scale deep-copies).
	if spec.Duration.D() != 400*time.Millisecond || spec.Timeline[0].At.D() != 200*time.Millisecond {
		t.Fatalf("Scale mutated its receiver: %+v", spec)
	}
	if err := half.Validate(); err != nil {
		t.Fatalf("scaled spec no longer valid: %v", err)
	}
}

func TestSortedTimelineStable(t *testing.T) {
	spec, err := Parse([]byte(validSpec))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	spec.Timeline = []Event{
		{At: Duration(30 * time.Millisecond), Action: ActionDrift, Model: "rm1", Label: "b"},
		{At: Duration(10 * time.Millisecond), Action: ActionPhase, Label: "a"},
		{At: Duration(30 * time.Millisecond), Action: ActionRepartition, Model: "rm1", Label: "c"},
	}
	got := spec.sortedTimeline()
	if got[0].Label != "a" || got[1].Label != "b" || got[2].Label != "c" {
		t.Fatalf("order: %q %q %q", got[0].Label, got[1].Label, got[2].Label)
	}
}
