package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/benchio"
)

const maxErrInc = 0.01

func healthyRows() []benchio.Row {
	return []benchio.Row{
		{Name: "Scenario_steady", QPS: 95, OfferedQPS: 100, P50Ms: 2, P95Ms: 6, P99Ms: 10, ErrorRate: 0},
		{Name: "Scenario_steady/model=rm1", Model: "rm1", QPS: 95, P50Ms: 2, P99Ms: 10},
		{Name: "Scenario_steady/phase=faults", QPS: 90, P50Ms: 3, P99Ms: 12},
	}
}

// hotRows is one autoscaled model row carrying the deterministic counters.
func hotRows(added, swaps, hitRate float64) []benchio.Row {
	return []benchio.Row{{
		Name: "Scenario_hot/model=hot", P50Ms: 2, P99Ms: 10,
		Extra: map[string]float64{"replicas_added": added, "swaps": swaps, "rowcache_hit_rate": hitRate},
	}}
}

// TestCompareRows drives every gate through one table: what is judged,
// what is flagged, and what a row that exists on one side only means.
func TestCompareRows(t *testing.T) {
	healthyBut := func(f func([]benchio.Row)) []benchio.Row {
		r := healthyRows()
		f(r)
		return r
	}
	for _, tc := range []struct {
		name          string
		base, cur     []benchio.Row
		wantCompared  int
		wantRegs      []string // "row metric" per regression, in baseline order
		wantInMessage string   // substring of the first regression's message
	}{
		{
			name: "identical rows pass", base: healthyRows(), cur: healthyRows(),
			wantCompared: 3,
		},
		{
			// Latency is information, not a gate: 100x the baseline
			// quantiles on every row is not this command's business.
			name: "latency is not judged", base: healthyRows(),
			cur: healthyBut(func(r []benchio.Row) {
				for i := range r {
					r[i].P50Ms, r[i].P95Ms, r[i].P99Ms = r[i].P50Ms*100, 600, r[i].P99Ms*100
				}
			}),
			wantCompared: 3,
		},
		{
			name: "error-rate increase past the allowance", base: healthyRows(),
			cur: healthyBut(func(r []benchio.Row) {
				r[2].ErrorRate = 0.05 // the fault-injection phase started leaking failures
			}),
			wantCompared: 3, wantRegs: []string{"Scenario_steady/phase=faults error_rate"},
			wantInMessage: "phase=faults error_rate regressed 0.000 -> 0.050",
		},
		{
			name: "error-rate increase inside the allowance", base: healthyRows(),
			cur: healthyBut(func(r []benchio.Row) {
				r[0].ErrorRate = 0.005
			}),
			wantCompared: 3,
		},
		{
			name: "row only in current is not judged", base: healthyRows(),
			cur:          append(healthyRows(), benchio.Row{Name: "Scenario_steady/phase=new", ErrorRate: 1}),
			wantCompared: 3,
		},
		{
			name: "baseline phase row missing from current", base: healthyRows(),
			cur:          healthyRows()[:2],
			wantCompared: 2, wantRegs: []string{"Scenario_steady/phase=faults missing"},
			wantInMessage: "baseline row Scenario_steady/phase=faults is missing",
		},
		{
			name: "baseline model row missing from current", base: healthyRows(),
			cur:          []benchio.Row{healthyRows()[0], healthyRows()[2]},
			wantCompared: 2, wantRegs: []string{"Scenario_steady/model=rm1 missing"},
		},
		{
			name: "every baseline row missing", base: healthyRows(), cur: nil,
			wantRegs: []string{"Scenario_steady missing", "Scenario_steady/model=rm1 missing", "Scenario_steady/phase=faults missing"},
		},
		{
			name: "autoscaler stopped scaling out", base: hotRows(2, 0, 0), cur: hotRows(0, 0, 0),
			wantCompared: 3, wantRegs: []string{"Scenario_hot/model=hot replicas_added"},
		},
		{
			name: "unexpected repartition", base: hotRows(2, 1, 0), cur: hotRows(2, 2, 0),
			wantCompared: 3, wantRegs: []string{"Scenario_hot/model=hot swaps"},
		},
		{
			name: "counters at or better than baseline", base: hotRows(2, 1, 0.6), cur: hotRows(3, 1, 0.4),
			wantCompared: 4, // error_rate + replicas_added + swaps + rowcache_hit_rate
		},
		{
			name: "hit rate collapsed below half of baseline", base: hotRows(2, 1, 0.6), cur: hotRows(2, 1, 0.2),
			wantCompared: 4, wantRegs: []string{"Scenario_hot/model=hot rowcache_hit_rate"},
		},
		{
			// A baseline from before the counters existed never judges
			// them retroactively.
			name: "baseline without counters", base: []benchio.Row{{Name: "Scenario_hot/model=hot"}},
			cur:          hotRows(0, 99, 0),
			wantCompared: 1,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			compared, regs := compareRows("a", tc.base, tc.cur, maxErrInc)
			var got []string
			for _, r := range regs {
				got = append(got, r.row+" "+r.metric)
			}
			if compared != tc.wantCompared || strings.Join(got, ";") != strings.Join(tc.wantRegs, ";") {
				t.Fatalf("compared=%d regs=%v, want compared=%d regs=%v", compared, got, tc.wantCompared, tc.wantRegs)
			}
			if tc.wantInMessage != "" && !strings.Contains(regs[0].String(), tc.wantInMessage) {
				t.Fatalf("message %q does not contain %q", regs[0], tc.wantInMessage)
			}
		})
	}
}

// TestRun checks the exit code over whole directories: 0 pass, 1 regression
// (degraded, missing row, missing artifact), 2 nothing to judge or
// unreadable input.
func TestRun(t *testing.T) {
	degraded := healthyRows()
	degraded[0].ErrorRate = 0.2
	type files map[string][]benchio.Row // artifact name -> rows
	for _, tc := range []struct {
		name       string
		base, cur  files
		rawCurrent map[string]string // artifact name -> raw file content
		filter     string
		want       int
	}{
		{name: "baseline against itself", base: files{"steady": healthyRows()}, cur: files{"steady": healthyRows()}, want: 0},
		{name: "degraded artifact", base: files{"steady": healthyRows()}, cur: files{"steady": degraded}, want: 1},
		{name: "current lost a row", base: files{"steady": healthyRows()}, cur: files{"steady": healthyRows()[:1]}, want: 1},
		{
			// One scenario silently produced no artifact; the other
			// overlapping and healthy must not mask it.
			name: "baseline without a current artifact",
			base: files{"steady": healthyRows(), "flash": healthyRows()}, cur: files{"steady": healthyRows()}, want: 1,
		},
		{name: "no current artifacts at all", base: files{"steady": healthyRows()}, cur: files{}, want: 1},
		{
			name: "filter narrows which baselines are expected",
			base: files{"steady": healthyRows(), "flash": healthyRows()}, cur: files{"steady": healthyRows()},
			filter: "steady", want: 0,
		},
		{
			name: "artifact only in current passes",
			base: files{"steady": healthyRows()}, cur: files{"steady": healthyRows(), "new": degraded}, want: 0,
		},
		{name: "no baselines", base: files{}, cur: files{"steady": healthyRows()}, want: 2},
		{name: "filter matches no baseline", base: files{"steady": healthyRows()}, cur: files{"steady": healthyRows()}, filter: "flash", want: 2},
		{name: "empty baseline rows", base: files{"steady": nil}, cur: files{"steady": healthyRows()}, want: 2},
		{
			name: "malformed current artifact", base: files{"steady": healthyRows()},
			rawCurrent: map[string]string{"steady": "not json"}, want: 2,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseDir, curDir := t.TempDir(), t.TempDir()
			path := func(dir, name string) string { return filepath.Join(dir, "BENCH_scenario_"+name+".json") }
			for name, rows := range tc.base {
				if err := benchio.WriteRows(path(baseDir, name), rows); err != nil {
					t.Fatal(err)
				}
			}
			for name, rows := range tc.cur {
				if err := benchio.WriteRows(path(curDir, name), rows); err != nil {
					t.Fatal(err)
				}
			}
			for name, raw := range tc.rawCurrent {
				if err := os.WriteFile(path(curDir, name), []byte(raw), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if code := run(baseDir, curDir, tc.filter, maxErrInc); code != tc.want {
				t.Fatalf("exit %d, want %d", code, tc.want)
			}
		})
	}
}
