package core

import (
	"os"
	"strings"
	"testing"

	"repro/internal/deploy"
	"repro/internal/model"
	"repro/internal/perfmodel"
)

func TestNewSystem(t *testing.T) {
	sys, err := NewSystem(perfmodel.CPUOnly)
	if err != nil {
		t.Fatal(err)
	}
	if sys.Profile == nil || sys.Planner == nil {
		t.Fatal("system not wired")
	}
	if _, err := NewSystem("abacus"); err == nil {
		t.Fatal("want platform error")
	}
}

func TestCompareHeadlineMetrics(t *testing.T) {
	sys, _ := NewSystem(perfmodel.CPUOnly)
	cmp, err := sys.Compare(model.RM1(), 100)
	if err != nil {
		t.Fatal(err)
	}
	if x := cmp.MemoryReductionX(); x < 2 {
		t.Fatalf("memory reduction %vx below the paper's band", x)
	}
	x, err := cmp.ServerReductionX(sys.Profile.Node)
	if err != nil {
		t.Fatal(err)
	}
	if x < 1 {
		t.Fatalf("server reduction %vx — ElasticRec must not need more servers", x)
	}
}

func TestPlanDispatch(t *testing.T) {
	sys, _ := NewSystem(perfmodel.CPUGPU)
	p, err := sys.Planner.Plan(deploy.PolicyModelWiseCache, model.RM1(), 200)
	if err != nil {
		t.Fatal(err)
	}
	if p.Policy != deploy.PolicyModelWiseCache {
		t.Fatalf("policy = %v", p.Policy)
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"x", "1"}, {"yy", "2"}},
		Notes:  []string{"a note"},
	}
	s := tab.String()
	for _, want := range []string{"demo", "long-header", "yy", "note: a note"} {
		if !strings.Contains(s, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestAllStaticFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment: regenerates every static figure (~12s)")
	}
	figs := map[string]func() (*Table, error){
		"fig3":   Figure3,
		"fig5":   Figure5,
		"fig9":   Figure9,
		"fig12a": Figure12a,
		"fig12b": Figure12b,
		"fig12c": Figure12c,
		"fig12d": Figure12d,
		"fig13":  Figure13,
		"fig15":  Figure15,
		"fig16":  Figure16,
		"fig18":  Figure18,
		"fig20":  Figure20,
	}
	for name, fn := range figs {
		tab, err := fn()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tab.Rows) == 0 {
			t.Fatalf("%s: no rows", name)
		}
		if len(tab.Header) == 0 || tab.Title == "" {
			t.Fatalf("%s: missing header/title", name)
		}
	}
}

func TestFigure6SeriesShape(t *testing.T) {
	tab, err := Figure6(200_000, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	// All three datasets appear.
	seen := map[string]bool{}
	for _, r := range tab.Rows {
		seen[r[0]] = true
	}
	for _, ds := range []string{"amazon-books", "criteo", "movielens"} {
		if !seen[ds] {
			t.Fatalf("dataset %s missing", ds)
		}
	}
}

func TestTablesIandII(t *testing.T) {
	tab := TablesIandII()
	if len(tab.Rows) < 13 { // 3 RMs + 3 MLP + 3 locality + 4 table-count
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestMeasureUtilityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment: live utility measurement (~1s)")
	}
	rows, err := MeasureUtility(perfmodel.CPUOnly, model.RM1(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Policy != deploy.PolicyModelWise {
		t.Fatal("first row must be model-wise")
	}
	mwUtil := rows[0].Utility
	// Paper: model-wise averages ~6% utility.
	if mwUtil < 0.01 || mwUtil > 0.25 {
		t.Fatalf("model-wise utility %v outside plausible band", mwUtil)
	}
	// ElasticRec's hottest shard must be far better utilized, and
	// utilities must decrease with shard index.
	er := rows[1:]
	if er[0].Utility < 4*mwUtil {
		t.Fatalf("hot shard utility %v not clearly above model-wise %v", er[0].Utility, mwUtil)
	}
	for i := 1; i < len(er); i++ {
		if er[i].Utility > er[i-1].Utility {
			t.Fatalf("utilities not decreasing with shard index: %+v", er)
		}
		if er[i].Replicas > er[i-1].Replicas {
			t.Fatalf("replicas not decreasing with shard index: %+v", er)
		}
	}
}

func TestRunDynamicTrafficBothPolicies(t *testing.T) {
	cfg := DynamicTrafficConfig{
		Platform: perfmodel.CPUOnly,
		Model:    model.RM1(),
		PeakQPS:  250,
	}
	mw, err := RunDynamicTraffic(cfg, deploy.PolicyModelWise)
	if err != nil {
		t.Fatal(err)
	}
	er, err := RunDynamicTraffic(cfg, deploy.PolicyElastic)
	if err != nil {
		t.Fatal(err)
	}
	if len(mw.Points) == 0 || len(er.Points) == 0 {
		t.Fatal("no samples")
	}
	// Paper: model-wise peaks at ~3.1x ElasticRec's memory.
	ratio := float64(mw.PeakMemBytes) / float64(er.PeakMemBytes)
	if ratio < 2 {
		t.Fatalf("peak memory ratio %v, want >= 2", ratio)
	}
	// Both must eventually serve the peak.
	peakServedMW, peakServedER := 0.0, 0.0
	for i := range mw.Points {
		if mw.Points[i].AchievedQPS > peakServedMW {
			peakServedMW = mw.Points[i].AchievedQPS
		}
		if er.Points[i].AchievedQPS > peakServedER {
			peakServedER = er.Points[i].AchievedQPS
		}
	}
	if peakServedMW < 240 || peakServedER < 240 {
		t.Fatalf("peaks not reached: MW %v, ER %v", peakServedMW, peakServedER)
	}
	// Memory timelines: ElasticRec must stay below model-wise at the end
	// of the run (steady state at 100 QPS).
	last := len(mw.Points) - 1
	if er.Points[last].MemBytes >= mw.Points[last].MemBytes {
		t.Fatal("ElasticRec steady-state memory must undercut model-wise")
	}
}

func TestFigure19Table(t *testing.T) {
	tab, err := Figure19()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 25 {
		t.Fatalf("rows = %d, want the 30-minute timeline", len(tab.Rows))
	}
	// The golden pins every rendered sample, peak and SLA-violation
	// count, and with them the order of the HPA step, the sample and the
	// pod tick at one instant.
	want, err := os.ReadFile("testdata/fig19.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.String(); got != string(want) {
		t.Fatalf("Figure 19 differs from testdata/fig19.golden:\n%s", got)
	}
}

func TestFigure14And17(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment: live utility experiments (~6s)")
	}
	for _, fn := range []func() (*Table, error){Figure14, Figure17} {
		tab, err := fn()
		if err != nil {
			t.Fatal(err)
		}
		// 3 models x (1 MW row + >=2 ER rows).
		if len(tab.Rows) < 9 {
			t.Fatalf("rows = %d", len(tab.Rows))
		}
	}
}

func TestDefaultTarget(t *testing.T) {
	if DefaultTarget(perfmodel.CPUOnly) != 100 || DefaultTarget(perfmodel.CPUGPU) != 200 {
		t.Fatal("default targets wrong")
	}
}

func TestRunDynamicTrafficCPUGPU(t *testing.T) {
	cfg := DynamicTrafficConfig{
		Platform: perfmodel.CPUGPU,
		Model:    model.RM1(),
		PeakQPS:  400,
	}
	er, err := RunDynamicTraffic(cfg, deploy.PolicyElastic)
	if err != nil {
		t.Fatal(err)
	}
	mw, err := RunDynamicTraffic(cfg, deploy.PolicyModelWise)
	if err != nil {
		t.Fatal(err)
	}
	if er.PeakMemBytes >= mw.PeakMemBytes {
		t.Fatalf("CPU-GPU: ER peak %d >= MW peak %d", er.PeakMemBytes, mw.PeakMemBytes)
	}
}

func TestSchemesTable(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment: partition-scheme sweep (~1s)")
	}
	tab, err := SchemesTable()
	if err != nil {
		t.Fatal(err)
	}
	// 3 models x 5 schemes (row, table, column k=2/4/8).
	if len(tab.Rows) != 15 {
		t.Fatalf("rows = %d, want 15", len(tab.Rows))
	}
	// Row-wise must be the 1.00x reference and never beaten.
	for i := 0; i < len(tab.Rows); i += 5 {
		if tab.Rows[i][4] != "1.00x" {
			t.Fatalf("row-wise reference broken: %v", tab.Rows[i])
		}
	}
}

func TestStressTable(t *testing.T) {
	tab, err := StressTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
}

func TestRepartitionTable(t *testing.T) {
	if testing.Short() {
		t.Skip("live repartition loop skipped in -short")
	}
	tab, err := RepartitionTable(false)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The loop's contract: zero failed requests in every phase, the
	// repartitioned phase serves from epoch 1, and the revert phase
	// (hotness shifted back, second live replan) from epoch 2.
	assertNoFailedPhase(t, tab)
	if got := epochCell(t, tab, 2, "rm1-repartition"); got != "1" {
		t.Fatalf("repartitioned phase epoch = %s, want 1", got)
	}
	if got := epochCell(t, tab, 3, "rm1-repartition"); got != "2" {
		t.Fatalf("reverted phase epoch = %s, want 2", got)
	}
}

func TestMultiModelTable(t *testing.T) {
	if testing.Short() {
		t.Skip("live multi-model loop skipped in -short")
	}
	tab, err := MultiModelTable(false)
	if err != nil {
		t.Fatal(err)
	}
	// aligned, A drifted, A swapped, B drifted, B swapped.
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tab.Rows))
	}
	assertNoFailedPhase(t, tab)
	// Each swap advances only its own model's epoch.
	if a, b := epochCell(t, tab, 2, "rm1a"), epochCell(t, tab, 2, "rm1b"); a != "1" || b != "0" {
		t.Fatalf("after rm1a's swap: rm1a epoch %s, rm1b epoch %s, want 1 and 0", a, b)
	}
	last := len(tab.Rows) - 1
	if a, b := epochCell(t, tab, last, "rm1a"), epochCell(t, tab, last, "rm1b"); a != "1" || b != "1" {
		t.Fatalf("last phase: rm1a epoch %s, rm1b epoch %s, want both 1", a, b)
	}
}

func TestLifecycleTable(t *testing.T) {
	tab, err := LifecycleTable(true)
	if err != nil {
		t.Fatal(err)
	}
	// baseline, C deployed, A undeployed, A redeployed.
	if len(tab.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(tab.Rows))
	}
	assertNoFailedPhase(t, tab)
	// The undeployed phase must not list rm1a; the redeploy phase must,
	// back at epoch 0.
	if got := tab.Rows[2]; got[0] != "A undeployed" || epochCell(t, tab, 2, "rm1a") != "-" {
		t.Fatalf("undeployed variant still reported: %v", got)
	}
	if got := tab.Rows[3]; got[0] != "A redeployed" || epochCell(t, tab, 3, "rm1a") != "0" {
		t.Fatalf("redeployed row = %v, want rm1a back at epoch 0", got)
	}
}

// assertNoFailedPhase checks a closed-loop table's failed column is 0 in
// every phase.
func assertNoFailedPhase(t *testing.T, tab *Table) {
	t.Helper()
	for _, row := range tab.Rows {
		if row[2] != "0" {
			t.Fatalf("phase %s dropped %s requests", row[0], row[2])
		}
	}
}

// epochCell returns the epoch in model's column of a closed-loop table
// row ("-" when the model was not serving).
func epochCell(t *testing.T, tab *Table, row int, mdl string) string {
	t.Helper()
	for i, h := range tab.Header {
		if h == mdl {
			return strings.Split(tab.Rows[row][i], "/")[0]
		}
	}
	t.Fatalf("no column for model %q in %v", mdl, tab.Header)
	return ""
}
