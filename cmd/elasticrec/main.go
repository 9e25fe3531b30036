// Command elasticrec regenerates every table and figure of the ElasticRec
// paper (ISCA 2024) from this repository's implementation, and doubles as
// the fleet admin CLI for a running multi-model frontend.
//
// Usage:
//
//	elasticrec [-short] <experiment> [...]
//	elasticrec all
//	elasticrec [-short] scenario -config FILE|DIR [-out DIR]
//	elasticrec admin -addr HOST:PORT [-frontend NAME] status [model]
//	elasticrec admin -addr HOST:PORT [-frontend NAME] undeploy <model>
//	elasticrec admin -addr HOST:PORT [-frontend NAME] deploy -model NAME [options]
//
// Experiments: tables, fig3, fig5, fig6, fig9, fig12a, fig12b, fig12c,
// fig12d, fig13, fig14, fig15, fig16, fig17, fig18, fig19, fig20,
// schemes, stress, repartition, multimodel, lifecycle.
//
// The scenario subcommand runs declarative experiment specs (see
// internal/scenario and docs/SCENARIOS.md): each spec stands up a live
// multi-model deployment, drives shaped Poisson traffic through the
// exported frontend, injects the spec's fault/lifecycle timeline, and
// writes a BENCH_scenario_<name>.json artifact cmd/scenarioguard diffs
// against its checked-in baseline.
//
// The admin subcommand drives the versioned control-plane endpoints
// (Admin.Deploy / Admin.Undeploy / Admin.Status) exported on a frontend's
// TCP listener: deploy builds and publishes a new variant into the running
// frontend, undeploy drains one out (the name becomes reusable), status
// snapshots every served variant.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/embedding"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/serving"
	"repro/internal/workload"
)

type experiment struct {
	name string
	desc string
	run  func() (*core.Table, error)
}

// short is the global -short flag: the closed-loop experiments halve
// their scenario timelines for smoke runs (CI runs `elasticrec -short
// repartition multimodel lifecycle`).
var short = flag.Bool("short", false, "trim closed-loop experiments for smoke runs")

func experiments() []experiment {
	return []experiment{
		{"tables", "Tables I & II: workload configurations", func() (*core.Table, error) { return core.TablesIandII(), nil }},
		{"fig3", "Fig. 3: dense vs sparse occupancy", core.Figure3},
		{"fig5", "Fig. 5: per-layer QPS", core.Figure5},
		{"fig6", "Fig. 6: access-frequency distributions", func() (*core.Table, error) { return core.Figure6(0, 0) }},
		{"fig9", "Fig. 9: gather QPS curve", core.Figure9},
		{"fig12a", "Fig. 12a: memory vs MLP size", core.Figure12a},
		{"fig12b", "Fig. 12b: memory vs locality", core.Figure12b},
		{"fig12c", "Fig. 12c: memory vs table count", core.Figure12c},
		{"fig12d", "Fig. 12d: memory vs shard count", core.Figure12d},
		{"fig13", "Fig. 13: CPU-only memory", core.Figure13},
		{"fig14", "Fig. 14: CPU-only memory utility", core.Figure14},
		{"fig15", "Fig. 15: CPU-only server count", core.Figure15},
		{"fig16", "Fig. 16: CPU-GPU memory", core.Figure16},
		{"fig17", "Fig. 17: CPU-GPU memory utility", core.Figure17},
		{"fig18", "Fig. 18: CPU-GPU server count", core.Figure18},
		{"fig19", "Fig. 19: dynamic traffic timeline", core.Figure19},
		{"fig20", "Fig. 20: GPU embedding cache baseline", core.Figure20},
		{"schemes", "Extension: row-wise vs column-/table-wise partitioning", core.SchemesTable},
		{"stress", "Sec. IV-D: live shard QPSmax stress test", core.StressTable},
		{"repartition", "Sec. IV-B: closed profiling/repartition/serve loop", func() (*core.Table, error) { return core.RepartitionTable(*short) }},
		{"multimodel", "Multi-model routing: one frontend, independently repartitioned variants", func() (*core.Table, error) { return core.MultiModelTable(*short) }},
		{"lifecycle", "Model lifecycle: deploy/undeploy variants over the admin API", func() (*core.Table, error) { return core.LifecycleTable(*short) }},
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: elasticrec [-short] <experiment> [...] | all")
	fmt.Fprintln(os.Stderr, "       elasticrec [-short] scenario -config FILE|DIR [-out DIR]")
	fmt.Fprintln(os.Stderr, "       elasticrec admin -addr HOST:PORT [-frontend NAME] status|deploy|undeploy ...")
	fmt.Fprintln(os.Stderr, "experiments:")
	exps := experiments()
	names := make([]string, 0, len(exps))
	byName := map[string]experiment{}
	for _, e := range exps {
		names = append(names, e.name)
		byName[e.name] = e
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", n, byName[n].desc)
	}
}

func main() {
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	if strings.EqualFold(args[0], "admin") {
		if err := runAdmin(args[1:]); err != nil {
			fmt.Fprintf(os.Stderr, "admin: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if strings.EqualFold(args[0], "scenario") {
		if err := runScenario(args[1:]); err != nil {
			fmt.Fprintf(os.Stderr, "scenario: %v\n", err)
			os.Exit(1)
		}
		return
	}
	exps := experiments()
	byName := map[string]experiment{}
	for _, e := range exps {
		byName[e.name] = e
	}
	var selected []experiment
	if len(args) == 1 && strings.EqualFold(args[0], "all") {
		selected = exps
	} else {
		for _, a := range args {
			e, ok := byName[strings.ToLower(a)]
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q\n\n", a)
				usage()
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}
	for _, e := range selected {
		t, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println(t.String())
	}
}

// runAdmin drives the control plane of a running frontend over its
// versioned admin RPC endpoints.
func runAdmin(args []string) error {
	fs := flag.NewFlagSet("admin", flag.ExitOnError)
	addr := fs.String("addr", "", "frontend address (HOST:PORT), required")
	frontend := fs.String("frontend", "Frontend", "frontend service name the deployment was exported under")
	timeout := fs.Duration("timeout", time.Minute, "per-operation deadline")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: elasticrec admin -addr HOST:PORT [-frontend NAME] <verb> ...")
		fmt.Fprintln(os.Stderr, "verbs:")
		fmt.Fprintln(os.Stderr, "  status [model]          per-variant control-plane snapshot")
		fmt.Fprintln(os.Stderr, "  undeploy <model>        drain the variant out of the frontend")
		fmt.Fprintln(os.Stderr, "  deploy -model NAME [-rows N -tables N -seed N -window N -transport local|tcp]")
		fmt.Fprintln(os.Stderr, "                          build and publish a new variant (spec-based)")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" || fs.NArg() == 0 {
		fs.Usage()
		return fmt.Errorf("need -addr and a verb")
	}
	client, err := serving.DialAdmin(*addr, *frontend)
	if err != nil {
		return err
	}
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	switch verb := fs.Arg(0); verb {
	case "status":
		mdl := fs.Arg(1)
		sts, err := client.Status(ctx, mdl)
		if err != nil {
			return err
		}
		printStatus(sts)
		return nil
	case "undeploy":
		if fs.NArg() < 2 {
			return fmt.Errorf("undeploy needs a model name")
		}
		reply, err := client.Undeploy(ctx, fs.Arg(1))
		if err != nil {
			return err
		}
		fmt.Printf("undeployed %q: drained, unregistered, name reusable\n", reply.Model)
		return nil
	case "deploy":
		return runAdminDeploy(ctx, client, fs.Args()[1:])
	default:
		fs.Usage()
		return fmt.Errorf("unknown admin verb %q", verb)
	}
}

// runAdminDeploy assembles a deploy spec from flags: the variant's model
// is instantiated frontend-side from (config, seed), and the profiling
// window is synthesized here from the configured power-law locality —
// the client ships counts, never weights.
func runAdminDeploy(ctx context.Context, client *serving.AdminClient, args []string) error {
	fs := flag.NewFlagSet("admin deploy", flag.ExitOnError)
	name := fs.String("model", "", "variant name to serve under (required)")
	rows := fs.Int64("rows", 12_000, "embedding rows per table")
	tables := fs.Int("tables", 2, "number of embedding tables")
	seed := fs.Uint64("seed", 1, "parameter seed (frontend runs model.New(config, seed))")
	window := fs.Int("window", 120, "profiling-window queries synthesized per table")
	transport := fs.String("transport", "local", "shard transport: local or tcp")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("deploy needs -model")
	}
	cfg := model.RM1().WithRows(*rows).WithName(*name)
	cfg.NumTables = *tables

	sampler, err := workload.NewPowerLawSampler(cfg.RowsPerTable, cfg.LocalityP, 0.9)
	if err != nil {
		return err
	}
	gen, err := workload.NewQueryGenerator(sampler, workload.NewShuffledMapping(cfg.RowsPerTable, 3),
		cfg.BatchSize, cfg.Pooling, *seed)
	if err != nil {
		return err
	}
	perTable := make([][]*embedding.Batch, cfg.NumTables)
	for t := range perTable {
		for q := 0; q < *window; q++ {
			perTable[t] = append(perTable[t], gen.Next())
		}
	}
	stats, err := serving.CollectStats(cfg, perTable)
	if err != nil {
		return err
	}
	counts := make([][]int64, len(stats))
	for t, st := range stats {
		counts[t] = st.Counts
	}
	// Proportional CDF cuts (70% / 95% coverage) stand in for the DP at
	// CLI scale, mirroring the liveserving replanner.
	boundaries := embedding.NewCDF(stats[0]).ProportionalCuts(0.70, 0.95)

	var reply serving.AdminDeployReply
	if err := client.Deploy(ctx, &serving.AdminDeployRequest{
		Name: *name, Config: cfg, Seed: *seed,
		Counts: counts, Boundaries: boundaries,
		Options: serving.BuildOptions{Transport: serving.Transport(*transport)},
	}, &reply); err != nil {
		return err
	}
	fmt.Printf("deployed %q: epoch %d, %d shards, boundaries %v\n",
		reply.Model, reply.Epoch, reply.Shards, boundaries)
	return nil
}

// printStatus renders per-model snapshots as an aligned table.
func printStatus(sts []serving.ModelStatus) {
	tab := &core.Table{
		Title:  "frontend model status",
		Header: []string{"model", "epoch", "swaps", "shards", "served", "offered qps", "utility skew", "cached tables"},
	}
	for _, st := range sts {
		tab.Rows = append(tab.Rows, []string{
			st.Model,
			fmt.Sprintf("%d", st.Epoch),
			fmt.Sprintf("%d", st.Swaps),
			fmt.Sprintf("%d", st.Shards),
			fmt.Sprintf("%d", st.Served),
			fmt.Sprintf("%.1f", st.OfferedQPS),
			fmt.Sprintf("%.2f", st.UtilitySkew),
			metrics.FormatBytes(st.Counters.CachedSortedBytes),
		})
	}
	fmt.Println(tab.String())
}
