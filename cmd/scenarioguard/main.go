// Command scenarioguard diffs a directory of freshly measured scenario
// artifacts (BENCH_scenario_*.json, see internal/scenario) against their
// checked-in baselines, the run-over-run gate the CI scenario-matrix job
// enforces. It judges only what does not depend on the machine: the
// absolute error-rate increase per row (a scenario whose fault injection
// starts leaking failed requests trips the guard no matter how fast the
// runner is) and the deterministic counters a row carries — replicas_added
// keeps its floor, swaps never exceed baseline, rowcache_hit_rate keeps half
// of baseline. Latency quantiles stay in the artifacts as information and
// are not compared: whether a change is slower is benchmark/'s question
// (BENCHMARK.json, `servingbench -repeat/-compare`), not this command's.
//
// Things that vanish are regressions too: a baseline row (a whole phase, a
// model's row) absent from the fresh artifact, or a baseline whose
// scenario produced no artifact at all, exits 1 and is named. Rows and
// artifacts present only on the current side pass — new rows must not
// fail retroactively.
//
// Usage:
//
//	scenarioguard -baseline-dir examples/scenarios/baselines -current-dir . \
//	    [-filter steady,flash] [-max-error-increase 0.01]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/benchio"
)

// missing is the metric of a regression that is an absence, not a value.
const missing = "missing"

// regression is one thing that got worse: a row metric past its gate, a
// baseline row missing from the current artifact (metric missing), or a
// whole artifact missing (row "" as well).
type regression struct {
	artifact, row, metric string
	baseline, actual      float64
}

func (r regression) String() string {
	switch {
	case r.metric != missing:
		return fmt.Sprintf("%s: %s %s regressed %.3f -> %.3f", r.artifact, r.row, r.metric, r.baseline, r.actual)
	case r.row == "":
		return fmt.Sprintf("%s: baseline has no current artifact (scenario did not run or wrote nothing)", r.artifact)
	default:
		return fmt.Sprintf("%s: baseline row %s is missing from the current artifact", r.artifact, r.row)
	}
}

// compareRows judges every baseline row of one artifact against the
// current row of the same name; a baseline row with no current row is a
// regression. Rows only in current are not visited (new rows must not fail
// retroactively). errorIncrease is the allowed absolute error-rate increase
// over baseline (0.01 = one extra failed request per hundred); compared
// counts row/metric pairs actually judged.
func compareRows(artifact string, baseline, current []benchio.Row, errorIncrease float64) (compared int, regs []regression) {
	cur := benchio.ByName(current)
	for _, b := range baseline {
		c, ok := cur[b.Name]
		if !ok {
			regs = append(regs, regression{artifact: artifact, row: b.Name, metric: missing})
			continue
		}
		worse := func(metric string, bv, cv float64) {
			regs = append(regs, regression{artifact: artifact, row: b.Name, metric: metric, baseline: bv, actual: cv})
		}
		compared++
		if c.ErrorRate > b.ErrorRate+errorIncrease {
			worse("error_rate", b.ErrorRate, c.ErrorRate)
		}
		// Counter gates, judged only when both sides carry the key (so
		// rows from before a counter existed never fail retroactively).
		// Autoscaler runs must keep scaling out (a baseline that added
		// replicas sets the floor), and swaps only come from timeline
		// events, so extra swaps mean an unexpected repartition.
		if bv, cv, ok := extraPair(b, c, "replicas_added"); ok {
			compared++
			if bv >= 1 && cv < 1 {
				worse("replicas_added", bv, cv)
			}
		}
		if bv, cv, ok := extraPair(b, c, "swaps"); ok {
			compared++
			if cv > bv {
				worse("swaps", bv, cv)
			}
		}
		// Hot-row cache hit-rate floor: when both runs carried a live
		// cache and the baseline actually hit (>= 5%), the current run
		// must keep at least half the baseline's hit rate — a collapse
		// means the cache stopped being consulted or seeded, which is a
		// code regression, not runner noise.
		if bv, cv, ok := extraPair(b, c, "rowcache_hit_rate"); ok && bv >= 0.05 {
			compared++
			if cv < bv*0.5 {
				worse("rowcache_hit_rate", bv, cv)
			}
		}
	}
	return compared, regs
}

// extraPair returns a named Extra counter from both rows; ok only when the
// key is present on both sides.
func extraPair(b, cur benchio.Row, key string) (bv, cv float64, ok bool) {
	bv, bok := b.Extra[key]
	cv, cok := cur.Extra[key]
	return bv, cv, bok && cok
}

// scenarioArtifacts lists the BENCH_scenario_*.json files in dir by base
// name.
func scenarioArtifacts(dir string) (map[string]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_scenario_*.json"))
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(matches))
	for _, m := range matches {
		out[filepath.Base(m)] = m
	}
	return out, nil
}

// run executes the guard and returns its exit code (0 pass, 1 regression,
// 2 usage error: unreadable input or nothing to judge), printing to
// stdout/stderr. filter narrows which baselines are expected; every
// baseline it keeps must have a current artifact.
func run(baselineDir, currentDir, filter string, errorIncrease float64) int {
	baselines, err := scenarioArtifacts(baselineDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scenarioguard: %v\n", err)
		return 2
	}
	currents, err := scenarioArtifacts(currentDir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "scenarioguard: %v\n", err)
		return 2
	}
	names := make([]string, 0, len(baselines))
	for name := range baselines {
		if benchio.MatchesAny(name, filter) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		fmt.Fprintf(os.Stderr, "scenarioguard: no baseline artifacts to guard in %s\n", baselineDir)
		return 2
	}
	var (
		compared int
		regs     []regression
	)
	for _, name := range names {
		artifact := strings.TrimSuffix(strings.TrimPrefix(name, "BENCH_scenario_"), ".json")
		curPath, ok := currents[name]
		if !ok {
			regs = append(regs, regression{artifact: artifact, metric: missing})
			continue
		}
		base, err := benchio.LoadRows(baselines[name])
		if err != nil {
			fmt.Fprintf(os.Stderr, "scenarioguard: %v\n", err)
			return 2
		}
		cur, err := benchio.LoadRows(curPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "scenarioguard: %v\n", err)
			return 2
		}
		c, r := compareRows(artifact, base, cur, errorIncrease)
		compared += c
		regs = append(regs, r...)
	}
	if len(regs) > 0 {
		for _, r := range regs {
			fmt.Fprintf(os.Stderr, "scenarioguard: %s\n", r)
		}
		return 1
	}
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "scenarioguard: no comparable metrics (empty baselines?)")
		return 2
	}
	fmt.Printf("scenarioguard: %d scenarios, %d metrics within gates (error-rate <= +%.3f, counters, no missing rows)\n",
		len(names), compared, errorIncrease)
	return 0
}

func main() {
	baselineDir := flag.String("baseline-dir", "examples/scenarios/baselines", "directory of checked-in BENCH_scenario_*.json baselines")
	currentDir := flag.String("current-dir", ".", "directory of freshly measured BENCH_scenario_*.json artifacts")
	filter := flag.String("filter", "", "only guard baseline artifact names containing one of these comma-separated substrings")
	errorIncrease := flag.Float64("max-error-increase", 0.01, "allowed absolute error-rate increase over baseline")
	flag.Parse()
	os.Exit(run(*baselineDir, *currentDir, *filter, *errorIncrease))
}
