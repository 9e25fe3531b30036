package core

import (
	"context"
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/serving"
)

// LifecycleTable runs the model-lifecycle closed loop: a live multi-model
// frontend whose served set changes under traffic, driven entirely over
// the versioned admin RPC endpoints (Deploy / Undeploy / Status) that
// ride the same TCP listener as the predict traffic.
// The loop starts with two variants, deploys a third into the running
// frontend mid-run (build → warm → publish, no restart), drains the first
// variant out while the others keep serving, and finally redeploys under
// the freed name — registration is a first-class runtime operation, so the
// name is immediately reusable with fresh epoch/swap state. The table
// shows, per phase and per variant, the epoch, shard count, served/failed
// queries and the bytes of cached sorted tables each variant's plan cache
// pins (the per-model input to the cross-variant cache budget). short
// trims the per-phase query count for the CI smoke run.
func LifecycleTable(short bool) (*Table, error) {
	queries := 250
	if short {
		queries = 80
	}

	cfgA := model.RM1().WithRows(16_000).WithName("rm1a")
	cfgA.NumTables = 2
	cfgB := model.RM1().WithRows(10_000).WithName("rm1b")
	cfgB.NumTables = 2
	cfgB.BatchSize = 2
	cfgC := model.RM1().WithRows(12_000).WithName("rm1c")
	cfgC.NumTables = 2

	varA, err := newMultiModelVariant("rm1a", cfgA, 42)
	if err != nil {
		return nil, err
	}
	varB, err := newMultiModelVariant("rm1b", cfgB, 1042)
	if err != nil {
		return nil, err
	}
	varC, err := newMultiModelVariant("rm1c", cfgC, 2042)
	if err != nil {
		return nil, err
	}

	mA, err := model.New(cfgA, 7)
	if err != nil {
		return nil, err
	}
	mB, err := model.New(cfgB, 1007)
	if err != nil {
		return nil, err
	}
	windowA, err := varA.window(120)
	if err != nil {
		return nil, err
	}
	windowB, err := varB.window(120)
	if err != nil {
		return nil, err
	}
	boundsA, err := varA.plan(windowA)
	if err != nil {
		return nil, err
	}
	boundsB, err := varB.plan(windowB)
	if err != nil {
		return nil, err
	}

	md, err := serving.BuildMulti(
		serving.ModelSpec{Name: varA.name, Model: mA, Stats: windowA, Boundaries: boundsA},
		serving.ModelSpec{Name: varB.name, Model: mB, Stats: windowB, Boundaries: boundsB},
	)
	if err != nil {
		return nil, err
	}
	defer md.Close()

	// The control plane rides the predict frontend: one TCP endpoint, data
	// and admin, versioned wire format.
	addr, err := md.ExportPredict("Frontend")
	if err != nil {
		return nil, err
	}
	admin, err := serving.DialAdmin(addr, "Frontend")
	if err != nil {
		return nil, err
	}
	defer admin.Close()
	//lint:escape ctxflow the lifecycle experiment driver is a CLI entry point; it mints the root deadline for the whole run
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	tab := &Table{
		Title:  "Model lifecycle: deploy/undeploy variants in a live frontend over the admin API",
		Header: []string{"phase", "model", "epoch", "shards", "served", "failed", "cached tables"},
	}
	row := func(phase string, v *multiModelVariant, served, failed int) error {
		sts, err := admin.Status(ctx, v.name)
		if err != nil {
			return fmt.Errorf("admin status %q: %w", v.name, err)
		}
		st := sts[0]
		tab.Rows = append(tab.Rows, []string{
			phase, st.Model,
			fmt.Sprintf("%d", st.Epoch),
			fmt.Sprintf("%d", st.Shards),
			fmt.Sprintf("%d", served),
			fmt.Sprintf("%d", failed),
			metrics.FormatBytes(st.Counters.CachedSortedBytes),
		})
		return nil
	}

	// Phase 1: the built set serves.
	if err := row("baseline", varA, queries, varA.serve(md, queries)); err != nil {
		return nil, err
	}
	if err := row("baseline", varB, queries, varB.serve(md, queries)); err != nil {
		return nil, err
	}

	// Phase 2: deploy variant C into the running frontend over the wire —
	// the spec (config + seed + profiling counts + plan) rides the admin
	// RPC; the frontend builds, pre-warms and publishes with no restart.
	windowC, err := varC.window(120)
	if err != nil {
		return nil, err
	}
	boundsC, err := varC.plan(windowC)
	if err != nil {
		return nil, err
	}
	counts := make([][]int64, len(windowC))
	for t, st := range windowC {
		counts[t] = st.Counts
	}
	var depReply serving.AdminDeployReply
	if err := admin.Deploy(ctx, &serving.AdminDeployRequest{
		Name: varC.name, Config: cfgC, Seed: 2007,
		Counts: counts, Boundaries: boundsC,
	}, &depReply); err != nil {
		return nil, fmt.Errorf("admin deploy %q: %w", varC.name, err)
	}
	for _, v := range []*multiModelVariant{varA, varB, varC} {
		if err := row("C deployed", v, queries, v.serve(md, queries)); err != nil {
			return nil, err
		}
	}

	// Phase 3: drain variant A out while B and C keep serving. Requests
	// addressed to the retired name must all fail fast at the frontend.
	if _, err := admin.Undeploy(ctx, varA.name); err != nil {
		return nil, fmt.Errorf("admin undeploy %q: %w", varA.name, err)
	}
	rejected := varA.serve(md, 20)
	for _, v := range []*multiModelVariant{varB, varC} {
		if err := row("A undeployed", v, queries, v.serve(md, queries)); err != nil {
			return nil, err
		}
	}

	// Phase 4: the freed name is immediately reusable — redeploy a fresh
	// variant as "rm1a" with fresh epoch/swap state.
	countsA := make([][]int64, len(windowA))
	for t, st := range windowA {
		countsA[t] = st.Counts
	}
	if err := admin.Deploy(ctx, &serving.AdminDeployRequest{
		Name: varA.name, Config: cfgA, Seed: 8,
		Counts: countsA, Boundaries: boundsA,
	}, &depReply); err != nil {
		return nil, fmt.Errorf("admin redeploy %q: %w", varA.name, err)
	}
	for _, v := range []*multiModelVariant{varA, varB, varC} {
		if err := row("A redeployed", v, queries, v.serve(md, queries)); err != nil {
			return nil, err
		}
	}

	sts, err := admin.Status(ctx, "")
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(sts))
	for _, st := range sts {
		names = append(names, st.Model)
	}
	tab.Notes = append(tab.Notes,
		fmt.Sprintf("all lifecycle operations ran over the versioned admin RPC endpoints (v%d) on the predict frontend's own TCP listener", serving.AdminAPIVersion),
		fmt.Sprintf("%d requests addressed to the undeployed %q were rejected fast at the frontend (all %d failed); B and C served through the drain untouched", rejected, varA.name, rejected),
		fmt.Sprintf("final served set (registration order): %v — %q was drained, unregistered and its name reused with fresh epoch state", names, varA.name),
	)
	return tab, nil
}
