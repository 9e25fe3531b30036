package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricSpec is one metric's entry in BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the contract this program is run under.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the contract (run from the repository root or pass -spec): %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// series collects, per workload and metric, the values of a set's runs.
type series map[string]map[string][]float64

func (s series) add(workload string, set metricSet) {
	if s[workload] == nil {
		s[workload] = map[string][]float64{}
	}
	for name, m := range set {
		s[workload][name] = append(s[workload][name], m.Value)
	}
}

// gather splits a result set into its end-to-end and per-layer series and
// totals its request accounting.
func (set *resultSet) gather() (endToEnd, perLayer series, attempted, failed int) {
	endToEnd, perLayer = series{}, series{}
	for _, r := range set.Runs {
		endToEnd.add(r.Workload, r.EndToEnd)
		perLayer.add(r.Workload, r.PerLayer)
		attempted += r.Attempted
		failed += r.Failed
	}
	return endToEnd, perLayer, attempted, failed
}

// worsening returns by what share of base the value moved in the metric's
// bad direction (negative when it improved).
func worsening(spec metricSpec, base, value float64) float64 {
	if base == 0 {
		return 0
	}
	if spec.Better == "higher" {
		return (base - value) / base
	}
	return (value - base) / base
}

// verdict judges B against A on one metric: unresolved when either side's
// own run-to-run spread is wider than the bound, so the bound cannot be
// told from noise; otherwise regressed / better when the medians differ by
// more than the bound, else unchanged.
func verdict(spec metricSpec, a, b []float64) string {
	if max(spread(a), spread(b)) > spec.Bound {
		return "unresolved"
	}
	switch w := worsening(spec, median(a), median(b)); {
	case w > spec.Bound:
		return "regressed"
	case w < -spec.Bound:
		return "better"
	}
	return "unchanged"
}

// compareFiles prints B against A, one row per (workload, end-to-end
// metric) with both medians, the ratio and its base, the bound and the
// verdict, then the per-layer ratios ungated. It fails when any metric
// regressed or B failed a larger share of its requests.
func compareFiles(w io.Writer, specPath, pathA, pathB string) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	a, err := readResultSet(pathA)
	if err != nil {
		return err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return err
	}
	endA, layerA, attemptedA, failedA := a.gather()
	endB, layerB, attemptedB, failedB := b.gather()

	fmt.Fprintf(w, "A = %s (%d runs), B = %s (%d runs); ratio = B / A\n", pathA, len(a.Runs), pathB, len(b.Runs))
	fmt.Fprintf(w, "%-15s %-16s %12s %12s %8s %7s %8s %8s  %s\n",
		"workload", "metric", "A median", "B median", "ratio", "bound", "spreadA", "spreadB", "verdict")
	regressed := 0
	for _, wl := range spec.Workloads {
		for _, ms := range spec.EndToEnd {
			va, vb := endA[wl.Name][ms.Name], endB[wl.Name][ms.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(ms, va, vb)
			if v == "regressed" {
				regressed++
			}
			fmt.Fprintf(w, "%-15s %-16s %12.4f %12.4f %8.4f %7.3f %8.4f %8.4f  %s\n",
				wl.Name, ms.Name, median(va), median(vb), ratio(median(vb), median(va)), ms.Bound, spread(va), spread(vb), v)
		}
	}
	fmt.Fprintln(w, "per-layer metrics (not gated):")
	for _, wl := range spec.Workloads {
		for _, ms := range spec.PerLayer {
			va, vb := layerA[wl.Name][ms.Name], layerB[wl.Name][ms.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			fmt.Fprintf(w, "%-15s %-32s %14.4f %14.4f %8.4f\n", wl.Name, ms.Name, median(va), median(vb), ratio(median(vb), median(va)))
		}
	}
	shareA := float64(failedA) / float64(max(attemptedA, 1))
	shareB := float64(failedB) / float64(max(attemptedB, 1))
	fmt.Fprintf(w, "failed: A %d of %d, B %d of %d\n", failedA, attemptedA, failedB, attemptedB)
	if regressed > 0 {
		return fmt.Errorf("%d metrics regressed", regressed)
	}
	if shareB > shareA {
		return fmt.Errorf("B failed a larger share of its requests (%.6f) than A (%.6f)", shareB, shareA)
	}
	return nil
}

// ratio returns v / base, or 0 when there is no base.
func ratio(v, base float64) float64 {
	if base == 0 {
		return 0
	}
	return v / base
}

// repeatRuns runs the selected workloads n times, each run a fresh process
// of this same binary with its own seed (seed, seed+1, ...) exactly as the
// acceptance driver runs it, then prints per metric the median, the
// quartiles and the spread against the bound.
func repeatRuns(w io.Writer, specPath string, selected []*workload, n int, seed uint64, seconds float64, trace int, out, record string) error {
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var set resultSet
	for i := 0; i < n; i++ {
		for _, wl := range selected {
			tmp := filepath.Join(os.TempDir(), fmt.Sprintf("benchmark-%d-%d-%s.json", os.Getpid(), i, wl.name))
			cmd := exec.Command(self,
				"-workload", wl.name,
				"-seed", strconv.FormatUint(seed+uint64(i), 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(trace),
				"-out", tmp)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("run %d of %s: %w", i+1, wl.name, err)
			}
			one, err := readResultSet(tmp)
			if err != nil {
				return err
			}
			if err := os.Remove(tmp); err != nil {
				return err
			}
			set.Runs = append(set.Runs, one.Runs...)
			fmt.Fprintf(w, "run %d/%d of %s done\n", i+1, n, wl.name)
		}
	}
	if out != "" {
		if err := set.write(out); err != nil {
			return err
		}
	}
	var table strings.Builder
	writeSummary(&table, spec, &set, trace == 1)
	fmt.Fprint(w, table.String())
	if record == "" {
		return nil
	}
	f, err := os.OpenFile(record, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	fmt.Fprintf(f, "\n## %d runs, seeds %d..%d, %g s, trace %d (%s)\n\n", n, seed, seed+uint64(n)-1, seconds, trace, time.Now().UTC().Format("2006-01-02"))
	fmt.Fprintf(f, "Box: %s, %d CPUs, %s.\n\n```\n%s```\n", cpuModel(), runtime.NumCPU(), runtime.Version(), table.String())
	return f.Close()
}

// writeSummary prints one row per (workload, metric) of the set.
func writeSummary(w io.Writer, spec *benchSpec, set *resultSet, layer bool) {
	endToEnd, perLayer, attempted, failed := set.gather()
	specs, values := spec.EndToEnd, endToEnd
	if layer {
		specs, values = spec.PerLayer, perLayer
	}
	fmt.Fprintf(w, "%-15s %-32s %12s %12s %12s %8s %7s %13s\n",
		"workload", "metric", "median", "q1", "q3", "spread", "bound", "spread/bound")
	for _, wl := range spec.Workloads {
		for _, ms := range specs {
			v := values[wl.Name][ms.Name]
			if len(v) == 0 {
				continue
			}
			q1, q3 := quartiles(v)
			gate := "-"
			if ms.Bound > 0 {
				gate = fmt.Sprintf("%.2f", spread(v)/ms.Bound)
			}
			fmt.Fprintf(w, "%-15s %-32s %12.4f %12.4f %12.4f %8.4f %7.3f %13s\n",
				wl.Name, ms.Name, median(v), q1, q3, spread(v), ms.Bound, gate)
		}
	}
	fmt.Fprintf(w, "failed %d of %d requests\n", failed, attempted)
}

// cpuModel returns the CPU's model name as /proc/cpuinfo gives it.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown CPU"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown CPU"
}
