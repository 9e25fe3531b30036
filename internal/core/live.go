package core

import (
	"fmt"
	"time"

	"repro/internal/deploy"
	"repro/internal/embedding"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/perfmodel"
	"repro/internal/scenario"
	"repro/internal/serving"
)

// The closed-loop experiments below (repartition, multimodel, lifecycle)
// are declarative scenarios (internal/scenario) run through the same
// harness as examples/scenarios/, with the paper's DP partitioner plugged
// in as the replanner. At a phase boundary the phase cut fires before any
// event that changes an epoch (deploy, undeploy, repartition), so each
// phase's end snapshot shows the plans that served it.

// dpReplanner plans one variant with the DP partitioner (Algorithms 1
// and 2) over its profiling window. The per-container minimum is scaled
// with the ~1000x table downscale, as in the quickstart.
func dpReplanner(cfg model.Config, window []*embedding.AccessStats) ([]int64, error) {
	profile := perfmodel.CPUOnlyProfile()
	profile.MinMemAlloc = 1 << 18
	planner := &deploy.Planner{Profile: profile, CDF: embedding.NewCDF(window[0])}
	plan, _, err := planner.PartitionTable(cfg)
	if err != nil {
		return nil, err
	}
	return plan.Boundaries, nil
}

// sec converts seconds to a spec duration.
func sec(s float64) scenario.Duration {
	return scenario.Duration(time.Duration(s * float64(time.Second)))
}

// phase opens the measurement phase label at s seconds.
func phase(s float64, label string) scenario.Event {
	return scenario.Event{At: sec(s), Action: scenario.ActionPhase, Label: label}
}

// event applies a model-level timeline action at s seconds.
func event(s float64, action, mdl string) scenario.Event {
	return scenario.Event{At: sec(s), Action: action, Model: mdl}
}

// runClosedLoop runs a closed-loop spec with the DP replanner and renders
// its phase × model table: one row per measurement phase (served, failed,
// p99) and one column per model holding the epoch/shards/utility skew
// that served the phase ("-" while the model is not serving).
func runClosedLoop(title string, spec *scenario.Spec, short bool, notes ...string) (*Table, error) {
	res, err := scenario.Run(spec, scenario.Options{Short: short, Replanner: dpReplanner})
	if err != nil {
		return nil, err
	}
	tab := &Table{Title: title, Header: []string{"phase", "served", "failed", "p99"}}
	for _, m := range spec.Models {
		tab.Header = append(tab.Header, m.Name)
	}
	for _, ph := range res.Phases {
		row := []string{ph.Name,
			fmt.Sprintf("%d", ph.Metrics.Requests),
			fmt.Sprintf("%d", ph.Metrics.Errors),
			ph.Metrics.P99.Round(10 * time.Microsecond).String(),
		}
		for _, m := range spec.Models {
			cell := "-"
			if info, ok := ph.Epochs[m.Name]; ok {
				cell = fmt.Sprintf("%d/%d/%.2f", info.Epoch, info.Shards, info.UtilitySkew)
			}
			row = append(row, cell)
		}
		tab.Rows = append(tab.Rows, row)
	}
	tab.Notes = append([]string{"model cells: epoch/shards/utility skew (Fig. 14) at phase end; - = not serving"}, notes...)
	for _, mr := range res.Models {
		if !mr.Deployed {
			continue
		}
		c := mr.Status.Counters
		tab.Notes = append(tab.Notes, fmt.Sprintf(
			"%s: %d plan swaps; %d preprocesses (%d memoized), %d shards built, %d reused; %s of sorted tables cached",
			mr.Model, mr.Status.Swaps, c.Preprocesses, c.PreCacheHits, c.ShardsBuilt, c.ShardsReused,
			metrics.FormatBytes(c.CachedSortedBytes)))
	}
	return tab, nil
}

// RepartitionTable runs the closed profiling -> repartition -> serve loop
// of Sec. IV-B against a live deployment: serve under the profiled plan,
// drift the traffic hotness until the per-shard utility profile (Fig. 14)
// flattens, re-plan with the DP over the live profiling window, swap the
// plan epoch with zero downtime, then snap the hotness back and swap
// again. Failures stay 0 — the swap never drops a request.
func RepartitionTable(short bool) (*Table, error) {
	const name = "rm1-repartition"
	return runClosedLoop("Sec. IV-B: closed profiling -> repartition -> serve loop (live deployment)", &scenario.Spec{
		Name: "repartition", Seed: 7, Duration: sec(3.2),
		Models: []scenario.ModelSpec{{
			Name: name, Rows: 20_000, Tables: 2, Seed: 42, Transport: "local", WindowQueries: 150,
		}},
		Traffic: scenario.Traffic{Shape: "constant", BaseQPS: 250},
		Timeline: []scenario.Event{
			phase(0, "aligned"),
			event(0.8, scenario.ActionDrift, name),
			phase(0.8, "drifted"),
			phase(1.6, "repartitioned"),
			event(1.6, scenario.ActionRepartition, name),
			{At: sec(2.4), Action: scenario.ActionDrift, Model: name, Fraction: -0.5},
			phase(2.4, "reverted"),
			event(2.4, scenario.ActionRepartition, name),
		},
	}, short, "old epochs drained and closed while serving continued; aligned plans concentrate the skew, drift flattens it")
}

// MultiModelTable runs the multi-model closed loop: two DLRM variants
// behind ONE frontend and ONE epoch-versioned router, each with its own
// drifting hotness and its own profile -> DP re-plan -> swap cycle.
// "rm1a" drifts and swaps while "rm1b" keeps serving its original epoch;
// then "rm1b" drifts and swaps while "rm1a" keeps its fresh plan — epochs
// advance strictly per model, and failures stay zero through both swaps.
func MultiModelTable(short bool) (*Table, error) {
	return runClosedLoop("Multi-model serving: one router, two variants, independent repartition cadences", &scenario.Spec{
		Name: "multimodel", Seed: 11, Duration: sec(4),
		Models: []scenario.ModelSpec{
			{Name: "rm1a", Rows: 20_000, Tables: 2, Seed: 7, Transport: "local", WindowQueries: 150},
			{Name: "rm1b", Rows: 12_000, Tables: 2, BatchSize: 2, Seed: 1007, Transport: "local", WindowQueries: 150},
		},
		Traffic: scenario.Traffic{Shape: "constant", BaseQPS: 250},
		Timeline: []scenario.Event{
			phase(0, "aligned"),
			event(0.8, scenario.ActionDrift, "rm1a"),
			phase(0.8, "A drifted"),
			phase(1.6, "A swapped"),
			event(1.6, scenario.ActionRepartition, "rm1a"),
			event(2.4, scenario.ActionDrift, "rm1b"),
			phase(2.4, "B drifted"),
			phase(3.2, "B swapped"),
			event(3.2, scenario.ActionRepartition, "rm1b"),
		},
	}, short, "one frontend + one router serve both variants; each swap advanced and drained only its own model's epoch")
}

// LifecycleTable runs the model-lifecycle closed loop: a live multi-model
// frontend whose served set changes under traffic through the versioned
// admin API on the predict listener. Two variants serve; a third is
// deployed mid-run (build → warm → publish, no restart); the first is
// drained out while the others keep serving; and the freed name is
// redeployed with fresh epoch state.
func LifecycleTable(short bool) (*Table, error) {
	return runClosedLoop("Model lifecycle: deploy/undeploy variants in a live frontend over the admin API", &scenario.Spec{
		Name: "lifecycle", Seed: 13, Duration: sec(3.2),
		Models: []scenario.ModelSpec{
			{Name: "rm1a", Rows: 16_000, Tables: 2, Seed: 7, Transport: "local", WindowQueries: 120},
			{Name: "rm1b", Rows: 10_000, Tables: 2, BatchSize: 2, Seed: 1007, Transport: "local", WindowQueries: 120},
			{Name: "rm1c", Rows: 12_000, Tables: 2, Seed: 2007, Transport: "local", WindowQueries: 120, Deferred: true},
		},
		Traffic: scenario.Traffic{Shape: "constant", BaseQPS: 250},
		Timeline: []scenario.Event{
			phase(0, "baseline"),
			phase(0.8, "C deployed"),
			event(0.8, scenario.ActionDeploy, "rm1c"),
			phase(1.6, "A undeployed"),
			event(1.6, scenario.ActionUndeploy, "rm1a"),
			phase(2.4, "A redeployed"),
			event(2.4, scenario.ActionDeploy, "rm1a"),
		},
	}, short, fmt.Sprintf("deploy/undeploy ran over the versioned admin API (v%d) on the predict frontend's own TCP listener; rm1a's name was reused with fresh epoch state",
		serving.AdminAPIVersion))
}
