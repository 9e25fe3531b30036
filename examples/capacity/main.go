// Capacity: what-if deployment costing at the paper's full scale.
//
// For a chosen model and platform, sweep the target QPS and print, for
// each policy (model-wise, ElasticRec, and on CPU-GPU the GPU-cache
// baseline), the fleet-wide memory allocation, replica counts, server
// counts and modelled latency — the planning workflow behind Figs. 13-18.
//
// Run with: go run ./examples/capacity [-model RM1] [-platform cpu-only]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/deploy"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/perfmodel"
)

func main() {
	modelName := flag.String("model", "RM1", "RM1 | RM2 | RM3")
	platform := flag.String("platform", "cpu-only", "cpu-only | cpu-gpu")
	flag.Parse()

	var cfg model.Config
	switch *modelName {
	case "RM1":
		cfg = model.RM1()
	case "RM2":
		cfg = model.RM2()
	case "RM3":
		cfg = model.RM3()
	default:
		log.Fatalf("unknown model %q", *modelName)
	}
	prof, err := perfmodel.ProfileFor(perfmodel.Platform(*platform))
	if err != nil {
		log.Fatal(err)
	}
	planner := &deploy.Planner{Profile: prof}

	fmt.Printf("capacity plan for %s on %s (%d tables, %s of embeddings)\n\n",
		cfg.Name, prof.Platform, cfg.NumTables, metrics.FormatBytes(cfg.SparseBytes()))
	fmt.Printf("%-8s %-18s %10s %9s %8s %10s\n",
		"target", "policy", "memory", "replicas", "servers", "latency")

	policies := []deploy.Policy{deploy.PolicyModelWise, deploy.PolicyElastic}
	if prof.Platform == perfmodel.CPUGPU {
		policies = append(policies, deploy.PolicyModelWiseCache)
	}
	for _, target := range []float64{50, 100, 200, 400} {
		for _, policy := range policies {
			plan, err := planner.Plan(policy, cfg, target)
			if err != nil {
				log.Fatal(err)
			}
			fleet, err := plan.Materialize(prof.Node)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-8.0f %-18s %10s %9d %8d %10v\n",
				target, string(policy),
				metrics.FormatBytes(plan.TotalMemoryBytes()),
				plan.TotalReplicas(), fleet.NodesInUse(),
				plan.AvgLatency.Round(time.Millisecond))
		}
		fmt.Println()
	}

	// Show the DP's chosen partitioning once.
	plan, cm, err := planner.PartitionTable(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ests, err := cm.Evaluate(plan)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DP partitioning (per table, %d shards):\n", plan.NumShards())
	for i, e := range ests {
		fmt.Printf("  S%d: rows [%d, %d)  capacity %s  est. QPSmax %.0f\n",
			i+1, e.Lo, e.Hi, metrics.FormatBytes(e.CapacityBytes), e.QPS)
	}
}
