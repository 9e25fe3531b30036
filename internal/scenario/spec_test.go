package scenario

import (
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
	base := func() *Spec {
		spec, err := Parse([]byte(validSpec))
		if err != nil {
			t.Fatalf("Parse: %v", err)
		}
		return spec
	}
	cases := []struct {
		name string
		ev   Event
	}{
		{"unknown action", Event{At: Duration(10 * time.Millisecond), Action: "explode", Model: "rm1"}},
		{"beyond duration", Event{At: Duration(time.Second), Action: ActionDrift, Model: "rm1"}},
		{"negative at", Event{At: Duration(-time.Millisecond), Action: ActionDrift, Model: "rm1"}},
		{"undeclared model", Event{At: 0, Action: ActionRepartition, Model: "ghost"}},
		{"phase without label", Event{At: 0, Action: ActionPhase}},
		{"negative replica", Event{At: 0, Action: ActionKillReplica, Model: "rm1", Replica: -1}},
		{"negative delay", Event{At: 0, Action: ActionSlowShard, Model: "rm1", Delay: Duration(-time.Millisecond)}},
		{"deploy of live model", Event{At: 0, Action: ActionDeploy, Model: "rm1"}},
	}
	for _, tc := range cases {
		spec := base()
		spec.Timeline = []Event{tc.ev}
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
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
