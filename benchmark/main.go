// Command benchmark is the repository's serving benchmark: it builds a live
// ElasticRec deployment in-process, drives it over the real loopback-TCP
// frontend with its own seeded request pool, checks every reply against the
// serving.Monolith oracle, and prints every metric by name with its unit.
//
// One run measures one workload:
//
//	go run . -workload gather_tcp -seed 1 -seconds 20 -trace 0   # end-to-end metrics
//	go run . -workload gather_tcp -seed 1 -seconds 20 -trace 1   # per-layer metrics
//
// The timed run (-trace 0) is warm-up, a closed-loop phase and two
// open-loop rates; the layer run (-trace 1) adds the kernels, the counters
// and a single-flight traced run whose spans decompose a request's latency.
// -repeat N runs a set of fresh processes and reports medians and spreads;
// -compare A.json B.json judges two such sets against the bounds in
// BENCHMARK.json. See README.md for the workloads and what each metric is
// expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

func main() {
	if err := realMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func realMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run, or \"all\"")
	seed := fs.Uint64("seed", 1, "seed every generated input derives from")
	seconds := fs.Float64("seconds", 20, "measured seconds, split over the phases")
	trace := fs.Int("trace", 0, "0: timed run, end-to-end metrics; 1: layer run, per-layer metrics")
	warmup := fs.Duration("warmup", 2*time.Second, "discarded closed-loop warm-up before the phases")
	out := fs.String("out", "", "also write the run (or the -repeat set) to this JSON file")
	ladder := fs.Bool("ladder", false, "layer run: also climb the open-loop rate ladder (diagnostic)")
	spans := fs.String("spans", "", "layer run: write the traced run's spans to this file as JSON lines")
	repeat := fs.Int("repeat", 0, "run the workload N times in fresh processes and summarise")
	record := fs.String("record", "", "with -repeat: append the summary to this markdown file")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments: A.json B.json")
	spec := fs.String("spec", "BENCHMARK.json", "the benchmark's contract file (bounds for -compare and -repeat)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two files: A.json B.json")
		}
		return compareFiles(stdout, *spec, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %v", *seconds)
	}
	var selected []*workload
	if *name == "all" {
		selected = workloads
	} else {
		w, err := findWorkload(*name)
		if err != nil {
			return err
		}
		selected = []*workload{w}
	}
	if *repeat > 0 {
		return repeatRuns(stdout, *spec, selected, *repeat, *seed, *seconds, *trace, *out, *record)
	}

	opt := runOptions{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		warmup:  *warmup,
		trace:   *trace == 1,
		ladder:  *ladder,
		spans:   *spans,
		log:     stdout,
	}
	var set resultSet
	for _, w := range selected {
		res, err := runWorkload(w, opt)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		printResult(stdout, res)
		set.Runs = append(set.Runs, res)
	}
	if *out != "" {
		if err := set.write(*out); err != nil {
			return err
		}
	}
	// The contract line: the last line of standard output is one JSON
	// object per run, the end-to-end metrics of a timed run or the
	// per-layer metrics of a layer run.
	for _, res := range set.Runs {
		if err := json.NewEncoder(stdout).Encode(res.contractLine()); err != nil {
			return err
		}
	}
	return nil
}

// contractLine is the machine-readable result of one run.
type contractLine struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

func (r *runResult) contractLine() contractLine {
	line := contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.EndToEnd}
	if r.Trace {
		line.Metrics = r.PerLayer
	}
	return line
}

// printResult prints every metric of a run by name with its unit, and the
// per-phase request accounting.
func printResult(w io.Writer, r *runResult) {
	for _, p := range r.Phases {
		fmt.Fprintf(w, "phase %-12s attempted %6d  ok %6d  failed %d\n", p.Name, p.Attempted, p.OK, p.Failed)
	}
	for _, group := range []struct {
		title string
		set   metricSet
	}{{"end-to-end", r.EndToEnd}, {"per-layer", r.PerLayer}} {
		if len(group.set) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s metrics of %s:\n", group.title, r.Workload)
		for _, name := range sortedKeys(group.set) {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", name, group.set[name].Value, group.set[name].Unit)
		}
	}
}

// sortedKeys returns the keys of a metric set in order.
func sortedKeys(m metricSet) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// resultSet is the -out file format: the runs of one invocation.
type resultSet struct {
	Runs []*runResult `json:"runs"`
}

func (s *resultSet) write(path string) error {
	data, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s resultSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
