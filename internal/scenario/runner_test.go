package scenario

import (
	"testing"
	"time"
)

// tinySpec is a scaled-down end-to-end scenario: local shard transport,
// small geometry, sub-second run. TCP still fronts the deployment (the
// runner always drives through the exported endpoint).
func tinySpec() *Spec {
	return &Spec{
		Name:     "tiny",
		Seed:     11,
		Duration: Duration(500 * time.Millisecond),
		Warmup:   Duration(100 * time.Millisecond),
		Models: []ModelSpec{{
			Name: "rm1", Rows: 3000, Tables: 2, Seed: 3,
			Transport: "local", WindowQueries: 40,
		}},
		Traffic: Traffic{Shape: "constant", BaseQPS: 120},
	}
}

func TestRunDeterministicOfferedSequence(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a live deployment")
	}
	spec := tinySpec()
	spec.Models[0].Drift = &Drift{At: Duration(200 * time.Millisecond), Fraction: 0.4}
	spec.Timeline = []Event{
		{At: Duration(150 * time.Millisecond), Action: ActionPhase, Label: "drifted"},
		{At: Duration(300 * time.Millisecond), Action: ActionRepartition, Model: "rm1"},
	}

	run := func() *Result {
		res, err := Run(spec, Options{})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	a, b := run(), run()

	// The offered sequence — counts, model assignment, phase structure and
	// the event log — is fully determined by the seed. (Latencies are not.)
	if a.Total.Requests == 0 {
		t.Fatal("no requests measured")
	}
	if a.Total.Requests != b.Total.Requests {
		t.Fatalf("measured requests differ: %d vs %d", a.Total.Requests, b.Total.Requests)
	}
	if len(a.Phases) != len(b.Phases) {
		t.Fatalf("phase counts differ: %d vs %d", len(a.Phases), len(b.Phases))
	}
	for i := range a.Phases {
		pa, pb := a.Phases[i], b.Phases[i]
		if pa.Name != pb.Name || pa.Metrics.Requests != pb.Metrics.Requests {
			t.Fatalf("phase %d differs: %q/%d vs %q/%d", i, pa.Name, pa.Metrics.Requests, pb.Name, pb.Metrics.Requests)
		}
	}
	if len(a.Models) != len(b.Models) {
		t.Fatalf("model counts differ: %d vs %d", len(a.Models), len(b.Models))
	}
	for i := range a.Models {
		if a.Models[i].Metrics.Requests != b.Models[i].Metrics.Requests {
			t.Fatalf("model %q requests differ: %d vs %d",
				a.Models[i].Model, a.Models[i].Metrics.Requests, b.Models[i].Metrics.Requests)
		}
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event logs differ in length: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		ea, eb := a.Events[i], b.Events[i]
		if ea.Action != eb.Action || ea.Model != eb.Model || ea.Epoch != eb.Epoch {
			t.Fatalf("event %d differs: %+v vs %+v", i, ea, eb)
		}
	}
	// The repartition swapped the initial epoch 0 plan out and the last
	// phase observed the new epoch.
	last := a.Phases[len(a.Phases)-1]
	if info, ok := last.Epochs["rm1"]; !ok || info.Epoch < 1 {
		t.Fatalf("expected rm1 epoch >= 1 after repartition, got %+v", last.Epochs)
	}
}

func TestRunFaultInjectionZeroFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a live deployment")
	}
	spec := tinySpec()
	spec.Name = "faults"
	spec.Models[0].Replicas = []int{2, 2}
	spec.Timeline = []Event{
		{At: Duration(150 * time.Millisecond), Action: ActionKillReplica, Model: "rm1", Table: 0, Shard: 0, Replica: 0},
		{At: Duration(250 * time.Millisecond), Action: ActionSlowShard, Model: "rm1", Table: 1, Shard: 0, Delay: Duration(2 * time.Millisecond)},
		{At: Duration(350 * time.Millisecond), Action: ActionReviveReplica, Model: "rm1", Table: 0, Shard: 0, Replica: 0},
	}
	res, err := Run(spec, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Total.Requests == 0 {
		t.Fatal("no requests measured")
	}
	// Replica-level failover keeps a dead replica invisible to clients.
	if res.Total.Errors != 0 {
		t.Fatalf("fault injection leaked %d/%d failures to clients", res.Total.Errors, res.Total.Requests)
	}
	if len(res.Events) != 3 {
		t.Fatalf("expected 3 applied events, got %d: %+v", len(res.Events), res.Events)
	}
}

func TestRunDeployUndeployMidRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a live deployment")
	}
	spec := tinySpec()
	spec.Name = "lifecycle"
	spec.Models = append(spec.Models, ModelSpec{
		Name: "rm1b", Rows: 3000, Tables: 2, Seed: 9,
		Transport: "local", WindowQueries: 40, Deferred: true,
	})
	// Each phase cut fires before the lifecycle event at its instant, so
	// the "undeployed" phase's end snapshot is taken before the redeploy.
	spec.Timeline = []Event{
		{At: Duration(150 * time.Millisecond), Action: ActionDeploy, Model: "rm1b"},
		{At: Duration(350 * time.Millisecond), Action: ActionPhase, Label: "undeployed"},
		{At: Duration(350 * time.Millisecond), Action: ActionUndeploy, Model: "rm1b"},
		{At: Duration(425 * time.Millisecond), Action: ActionPhase, Label: "redeployed"},
		{At: Duration(425 * time.Millisecond), Action: ActionDeploy, Model: "rm1b"},
	}
	res, err := Run(spec, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	var b *ModelResult
	for i := range res.Models {
		if res.Models[i].Model == "rm1b" {
			b = &res.Models[i]
		}
	}
	if b == nil {
		t.Fatalf("rm1b never served traffic: %+v", res.Models)
	}
	if b.Metrics.Requests == 0 {
		t.Fatal("rm1b measured no requests while deployed")
	}
	var undeployed *PhaseResult
	for i := range res.Phases {
		if res.Phases[i].Name == "undeployed" {
			undeployed = &res.Phases[i]
		}
	}
	if undeployed == nil {
		t.Fatalf("no undeployed phase: %+v", res.Phases)
	}
	if _, ok := undeployed.Epochs["rm1b"]; ok {
		t.Fatal("rm1b still reported deployed after undeploy")
	}
	// The freed name was redeployed with fresh epoch state.
	if !b.Deployed || b.Status.Epoch != 0 {
		t.Fatalf("redeployed rm1b: deployed %v, epoch %d; want deployed at epoch 0", b.Deployed, b.Status.Epoch)
	}
	if res.Total.Errors != 0 {
		t.Fatalf("lifecycle churn leaked %d failures", res.Total.Errors)
	}
}

// TestRunAutoscaleAddsReplicas drives an overloaded hot shard — a
// slow-shard fault cuts its lone replica's service rate below the offered
// rate — and checks the queue-depth autoscaler reacts within the run: at
// least one replica added, the scale event in the log, per-shard queue
// stats in the admin status, and no request ever failing or repartitioning
// along the way (scale-out happens inside the live epoch).
func TestRunAutoscaleAddsReplicas(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a live deployment")
	}
	spec := tinySpec()
	spec.Name = "autoscale"
	spec.Duration = Duration(1500 * time.Millisecond)
	spec.Models[0].Tables = 1
	spec.Models[0].Autoscale = &Autoscale{
		Interval:    Duration(25 * time.Millisecond),
		HighDepth:   0.5,
		LowDepth:    0, // never scale in: a drained queue after the burst must not flap
		Cooldown:    Duration(100 * time.Millisecond),
		MaxReplicas: 3,
	}
	// 40ms per gather caps one replica's 4 pull workers at ~100/s, below
	// the 120 QPS offered: the hot shard's queue must grow until the
	// autoscaler adds capacity.
	spec.Timeline = []Event{
		{At: 0, Action: ActionSlowShard, Model: "rm1", Table: 0, Shard: 0, Delay: Duration(40 * time.Millisecond)},
	}
	res, err := Run(spec, Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Total.Requests == 0 {
		t.Fatal("no requests measured")
	}
	if res.Total.Errors != 0 {
		t.Fatalf("autoscale run leaked %d/%d failures", res.Total.Errors, res.Total.Requests)
	}
	var mr *ModelResult
	for i := range res.Models {
		if res.Models[i].Model == "rm1" {
			mr = &res.Models[i]
		}
	}
	if mr == nil || !mr.Deployed {
		t.Fatalf("rm1 missing or undeployed: %+v", res.Models)
	}
	if mr.ReplicasAdded < 1 {
		t.Fatalf("autoscaler added %d replicas under overload, want >= 1", mr.ReplicasAdded)
	}
	if len(mr.Status.Queues) == 0 {
		t.Fatal("admin status reports no per-shard queue stats")
	}
	var grew bool
	for _, q := range mr.Status.Queues {
		if q.Capacity <= 0 || q.Workers <= 0 {
			t.Fatalf("degenerate queue stats: %+v", q)
		}
		if q.Replicas > 1 {
			grew = true
		}
	}
	if !grew {
		t.Fatalf("no shard ended with >1 replicas: %+v", mr.Status.Queues)
	}
	var scales int
	for _, e := range res.Events {
		if e.Action == ActionScale {
			scales++
		}
	}
	if int64(scales) != mr.ReplicasAdded+mr.ReplicasRemoved {
		t.Fatalf("event log has %d scale events, counters say %d",
			scales, mr.ReplicasAdded+mr.ReplicasRemoved)
	}
	// Scale-out happened inside the live epoch: no plan swap.
	if mr.Status.Swaps != 0 {
		t.Fatalf("autoscale run repartitioned %d times, want 0", mr.Status.Swaps)
	}
}

func TestResultRowsSchema(t *testing.T) {
	res := &Result{
		Name: "rows",
		Total: Metrics{Requests: 10, Errors: 1, P50: 2 * time.Millisecond,
			P99: 9 * time.Millisecond, OfferedQPS: 100, AchievedQPS: 90},
		Models: []ModelResult{{Model: "m", Metrics: Metrics{Requests: 10}}},
		Phases: []PhaseResult{
			{Name: "a", Metrics: Metrics{Requests: 4}},
			{Name: "b", Metrics: Metrics{Requests: 6}},
		},
	}
	rows := res.Rows()
	if rows[0].Name != "Scenario_rows" || rows[0].P50Ms != 2 || rows[0].P99Ms != 9 {
		t.Fatalf("aggregate row: %+v", rows[0])
	}
	if rows[0].ErrorRate != 0.1 || rows[0].OfferedQPS != 100 || rows[0].QPS != 90 {
		t.Fatalf("aggregate rates: %+v", rows[0])
	}
	want := map[string]bool{
		"Scenario_rows": true, "Scenario_rows/model=m": true,
		"Scenario_rows/phase=a": true, "Scenario_rows/phase=b": true,
	}
	if len(rows) != len(want) {
		t.Fatalf("row count %d: %+v", len(rows), rows)
	}
	for _, r := range rows {
		if !want[r.Name] {
			t.Fatalf("unexpected row %q", r.Name)
		}
	}
	if res.ArtifactName() != "BENCH_scenario_rows.json" {
		t.Fatalf("artifact name %q", res.ArtifactName())
	}
}
