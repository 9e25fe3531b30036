package core

import (
	"fmt"
	"time"

	"repro/internal/deploy"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/perfmodel"
	"repro/internal/workload"
)

// Default target throughputs used by the paper's end-to-end experiments.
const (
	// TargetQPSCPUOnly is the CPU-only fleet target (Figs. 13-15).
	TargetQPSCPUOnly = 100.0
	// TargetQPSCPUGPU is the CPU-GPU fleet target (Figs. 16-18, 20).
	TargetQPSCPUGPU = 200.0
)

// DefaultTarget returns the paper's target QPS for a platform.
func DefaultTarget(p perfmodel.Platform) float64 {
	if p == perfmodel.CPUGPU {
		return TargetQPSCPUGPU
	}
	return TargetQPSCPUOnly
}

func f1(v float64) string     { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string     { return fmt.Sprintf("%.2f", v) }
func pct(v float64) string    { return fmt.Sprintf("%.1f%%", 100*v) }
func gb(bytes float64) string { return fmt.Sprintf("%.1f", bytes/(1<<30)) }

// Figure3 reproduces Fig. 3: the FLOPs/memory occupancy of dense vs sparse
// layers (architecture-independent) and their end-to-end latency shares on
// both platforms.
func Figure3() (*Table, error) {
	cpu := perfmodel.CPUOnlyProfile()
	gpu := perfmodel.CPUGPUProfile()
	t := &Table{
		Title: "Figure 3: dense vs sparse occupancy (FLOPs, memory, latency share)",
		Header: []string{"model", "dense FLOPs", "sparse FLOPs", "dense mem", "sparse mem",
			"dense lat (CPU-only)", "dense lat (CPU-GPU)"},
	}
	for _, cfg := range model.StateOfTheArt() {
		occ := cfg.Occupancy()
		cpuDense := float64(cpu.DenseLatency(cfg))
		cpuTotal := cpuDense + float64(cpu.MonoSparseLatency(cfg))
		gpuDense := float64(gpu.DenseLatency(cfg))
		gpuTotal := gpuDense + float64(gpu.MonoSparseLatency(cfg))
		t.Rows = append(t.Rows, []string{
			cfg.Name,
			pct(occ.DenseFLOPsShare), pct(occ.SparseFLOPsShare),
			pct(occ.DenseMemShare), pct(occ.SparseMemShare),
			pct(cpuDense / cpuTotal), pct(gpuDense / gpuTotal),
		})
	}
	t.Notes = append(t.Notes,
		"paper: dense dominates FLOPs (~98%+), sparse dominates memory (~99.6%+); dense is ~67% of CPU-only and ~19% of CPU-GPU latency for RM1")
	return t, nil
}

// Figure5 reproduces Fig. 5: dense and sparse layer QPS measured
// separately per platform.
func Figure5() (*Table, error) {
	t := &Table{
		Title:  "Figure 5: per-layer service throughput (QPS)",
		Header: []string{"platform", "model", "dense QPS", "sparse QPS"},
	}
	for _, plat := range []perfmodel.Platform{perfmodel.CPUOnly, perfmodel.CPUGPU} {
		prof, err := perfmodel.ProfileFor(plat)
		if err != nil {
			return nil, err
		}
		for _, cfg := range model.StateOfTheArt() {
			t.Rows = append(t.Rows, []string{
				string(plat), cfg.Name,
				f1(prof.DenseQPS(cfg)), f1(prof.MonoSparseQPS(cfg)),
			})
		}
	}
	t.Notes = append(t.Notes,
		"paper shape: significant dense/sparse QPS mismatch on both platforms; GPU accelerates dense by an order of magnitude")
	return t, nil
}

// Figure6 reproduces Fig. 6: sorted access-frequency series for the three
// dataset shapes. points rows are reported, sampled log-spaced.
func Figure6(draws int64, points int) (*Table, error) {
	if draws <= 0 {
		draws = 2_000_000
	}
	if points <= 0 {
		points = 12
	}
	t := &Table{
		Title:  "Figure 6: sorted embedding access frequency (% of accesses)",
		Header: []string{"dataset", "sorted vector rank", "access freq (%)"},
	}
	for _, ds := range workload.Datasets() {
		// Scale row count down for sampling speed; shape is preserved.
		sampleRows := ds.Rows
		if sampleRows > 200_000 {
			sampleRows = 200_000
		}
		freqs, err := ds.AccessFrequencies(draws, sampleRows, 42)
		if err != nil {
			return nil, err
		}
		idx := int64(1)
		for len(t.Rows) == 0 || idx <= int64(len(freqs)) {
			i := idx - 1
			if i >= int64(len(freqs)) {
				break
			}
			t.Rows = append(t.Rows, []string{
				ds.Name, fmt.Sprintf("%d", idx), fmt.Sprintf("%.6f", freqs[i]),
			})
			next := idx * 4
			if next == idx {
				next = idx + 1
			}
			idx = next
			if len(t.Rows) > points*3*10 { // safety bound
				break
			}
		}
	}
	t.Notes = append(t.Notes,
		"power-law: a small hot set covers most accesses (MovieLens-like P=94% of accesses in top 10% of rows)")
	return t, nil
}

// Figure9 reproduces Fig. 9: gather-operator QPS versus the number of
// vectors gathered, for embedding dimensions 32/128/512 over a 20M-row
// table.
func Figure9() (*Table, error) {
	prof := perfmodel.CPUOnlyProfile()
	t := &Table{
		Title:  "Figure 9: QPS vs number of vectors gathered (20M-row table)",
		Header: []string{"gathers/input", "dim=32", "dim=128", "dim=512"},
	}
	gathers := []int{1, 5, 10, 20, 40, 60, 80, 100}
	for _, x := range gathers {
		row := []string{fmt.Sprintf("%d", x)}
		for _, dim := range []int{32, 128, 512} {
			row = append(row, f1(prof.ShardQPS(32, float64(x), dim)))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"paper shape: QPS decays with gather count; larger dimensions fetch more bytes and sustain lower QPS")
	return t, nil
}

// Figure12a reproduces Fig. 12(a): memory consumption vs MLP size
// (microbenchmark, CPU-only, 100 QPS).
func Figure12a() (*Table, error) {
	sys, err := NewSystem(perfmodel.CPUOnly)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 12a: memory consumption vs MLP size (GB, CPU-only @100 QPS)",
		Header: []string{"MLP size", "model-wise", "elasticrec", "reduction"},
	}
	for _, size := range []model.MLPSize{model.MLPLight, model.MLPMedium, model.MLPHeavy} {
		cfg, err := model.MicroMLP(size)
		if err != nil {
			return nil, err
		}
		cmp, err := sys.Compare(cfg, TargetQPSCPUOnly)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			string(size),
			gb(float64(cmp.ModelWise.TotalMemoryBytes())),
			gb(float64(cmp.Elastic.TotalMemoryBytes())),
			f2(cmp.MemoryReductionX()) + "x",
		})
	}
	t.Notes = append(t.Notes,
		"paper shape: model-wise memory grows quickly with MLP compute; ElasticRec adds dense replicas only")
	return t, nil
}

// Figure12b reproduces Fig. 12(b): memory consumption vs table locality.
func Figure12b() (*Table, error) {
	sys, err := NewSystem(perfmodel.CPUOnly)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 12b: memory consumption vs locality (GB, CPU-only @100 QPS)",
		Header: []string{"locality", "model-wise", "elasticrec", "reduction"},
	}
	for _, level := range []model.LocalityLevel{model.LocalityLow, model.LocalityMedium, model.LocalityHigh} {
		cfg, err := model.MicroLocality(level)
		if err != nil {
			return nil, err
		}
		cmp, err := sys.Compare(cfg, TargetQPSCPUOnly)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			string(level),
			gb(float64(cmp.ModelWise.TotalMemoryBytes())),
			gb(float64(cmp.Elastic.TotalMemoryBytes())),
			f2(cmp.MemoryReductionX()) + "x",
		})
	}
	t.Notes = append(t.Notes,
		"paper: ElasticRec saves ~2.2x at High locality; model-wise is locality-insensitive")
	return t, nil
}

// Figure12c reproduces Fig. 12(c): memory consumption vs number of tables.
func Figure12c() (*Table, error) {
	sys, err := NewSystem(perfmodel.CPUOnly)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 12c: memory consumption vs number of tables (GB, CPU-only @100 QPS)",
		Header: []string{"tables", "model-wise", "elasticrec", "reduction"},
	}
	for _, n := range model.MicroTableCounts() {
		cfg, err := model.MicroTables(n)
		if err != nil {
			return nil, err
		}
		cmp, err := sys.Compare(cfg, TargetQPSCPUOnly)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			gb(float64(cmp.ModelWise.TotalMemoryBytes())),
			gb(float64(cmp.Elastic.TotalMemoryBytes())),
			f2(cmp.MemoryReductionX()) + "x",
		})
	}
	return t, nil
}

// Figure12d reproduces Fig. 12(d): ElasticRec memory vs the (manually
// forced) number of shards per table, plus the DP's own choice.
func Figure12d() (*Table, error) {
	prof := perfmodel.CPUOnlyProfile()
	cfg := model.RM1()
	t := &Table{
		Title:  "Figure 12d: ElasticRec memory vs forced shard count (GB, CPU-only @100 QPS)",
		Header: []string{"shards/table", "elasticrec memory"},
	}
	for _, s := range model.MicroShardCounts() {
		pl := &deploy.Planner{Profile: prof, ForceShards: s}
		plan, err := pl.PlanElastic(cfg, TargetQPSCPUOnly)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", s),
			gb(float64(plan.TotalMemoryBytes())),
		})
	}
	pl := &deploy.Planner{Profile: prof}
	opt, err := pl.PlanElastic(cfg, TargetQPSCPUOnly)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{
		fmt.Sprintf("DP choice (%d)", opt.TablePlan.NumShards()),
		gb(float64(opt.TotalMemoryBytes())),
	})
	t.Notes = append(t.Notes,
		"paper shape: memory drops with shard count, plateaus (min_mem_alloc per container), DP picks the knee")
	return t, nil
}

// memoryFigure is the shared body of Figs. 13 and 16.
func memoryFigure(platform perfmodel.Platform, title string) (*Table, error) {
	sys, err := NewSystem(platform)
	if err != nil {
		return nil, err
	}
	target := DefaultTarget(platform)
	t := &Table{
		Title:  title,
		Header: []string{"model", "model-wise (GB)", "elasticrec (GB)", "reduction", "shards/table"},
	}
	for _, cfg := range model.StateOfTheArt() {
		cmp, err := sys.Compare(cfg, target)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			cfg.Name,
			gb(float64(cmp.ModelWise.TotalMemoryBytes())),
			gb(float64(cmp.Elastic.TotalMemoryBytes())),
			f2(cmp.MemoryReductionX()) + "x",
			fmt.Sprintf("%d", cmp.Elastic.TablePlan.NumShards()),
		})
	}
	return t, nil
}

// Figure13 reproduces Fig. 13: CPU-only memory consumption at 100 QPS.
func Figure13() (*Table, error) {
	t, err := memoryFigure(perfmodel.CPUOnly, "Figure 13: memory consumption, CPU-only @100 QPS")
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "paper: 2.2x / 2.6x / 8.1x reductions; partitioned into 4/3/3 shards per table")
	return t, nil
}

// Figure16 reproduces Fig. 16: CPU-GPU memory consumption at 200 QPS.
func Figure16() (*Table, error) {
	t, err := memoryFigure(perfmodel.CPUGPU, "Figure 16: memory consumption, CPU-GPU @200 QPS")
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "paper: 2.7x / 3.6x / 2.6x reductions; 3 shards per table")
	return t, nil
}

// serversFigure is the shared body of Figs. 15 and 18.
func serversFigure(platform perfmodel.Platform, title string) (*Table, error) {
	sys, err := NewSystem(platform)
	if err != nil {
		return nil, err
	}
	target := DefaultTarget(platform)
	t := &Table{
		Title:  title,
		Header: []string{"model", "model-wise servers", "elasticrec servers", "reduction", "MW lat", "ER lat"},
	}
	for _, cfg := range model.StateOfTheArt() {
		cmp, err := sys.Compare(cfg, target)
		if err != nil {
			return nil, err
		}
		mwFleet, err := cmp.ModelWise.Materialize(sys.Profile.Node)
		if err != nil {
			return nil, err
		}
		erFleet, err := cmp.Elastic.Materialize(sys.Profile.Node)
		if err != nil {
			return nil, err
		}
		mw, er := mwFleet.NodesInUse(), erFleet.NodesInUse()
		t.Rows = append(t.Rows, []string{
			cfg.Name,
			fmt.Sprintf("%d", mw),
			fmt.Sprintf("%d", er),
			f2(float64(mw)/float64(er)) + "x",
			cmp.ModelWise.AvgLatency.Round(time.Millisecond).String(),
			cmp.Elastic.AvgLatency.Round(time.Millisecond).String(),
		})
	}
	return t, nil
}

// Figure15 reproduces Fig. 15: CPU-only server counts at 100 QPS.
func Figure15() (*Table, error) {
	t, err := serversFigure(perfmodel.CPUOnly, "Figure 15: CPU servers needed @100 QPS")
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "paper: 1.67x / 1.67x / 2.0x fewer servers; ElasticRec adds ~31 ms avg latency (8% of SLA)")
	return t, nil
}

// Figure18 reproduces Fig. 18: CPU-GPU server counts at 200 QPS.
func Figure18() (*Table, error) {
	t, err := serversFigure(perfmodel.CPUGPU, "Figure 18: CPU-GPU servers needed @200 QPS")
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "paper: 1.4x / 1.6x / 1.2x fewer servers; ElasticRec adds ~60 ms avg latency (15% of SLA)")
	return t, nil
}

// Figure20 reproduces Fig. 20: model-wise vs model-wise+GPU-cache vs
// ElasticRec memory on the CPU-GPU platform.
func Figure20() (*Table, error) {
	sys, err := NewSystem(perfmodel.CPUGPU)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 20: memory with GPU embedding cache baseline (GB, CPU-GPU @200 QPS)",
		Header: []string{"model", "model-wise", "model-wise (cache)", "elasticrec", "ER vs cache"},
	}
	for _, cfg := range model.StateOfTheArt() {
		mw, err := sys.Planner.PlanModelWise(cfg, TargetQPSCPUGPU)
		if err != nil {
			return nil, err
		}
		mwc, err := sys.Planner.PlanModelWiseCache(cfg, TargetQPSCPUGPU)
		if err != nil {
			return nil, err
		}
		er, err := sys.Planner.PlanElastic(cfg, TargetQPSCPUGPU)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			cfg.Name,
			gb(float64(mw.TotalMemoryBytes())),
			gb(float64(mwc.TotalMemoryBytes())),
			gb(float64(er.TotalMemoryBytes())),
			f2(float64(mwc.TotalMemoryBytes())/float64(er.TotalMemoryBytes())) + "x",
		})
	}
	t.Notes = append(t.Notes,
		"cache model per Sec. VI-E: 90% GPU hit rate cuts embedding latency 47%, reducing replicas but still duplicating full tables; paper: ElasticRec beats cache baseline 1.7x")
	return t, nil
}

// TablesIandII renders the workload configuration tables.
func TablesIandII() *Table {
	t := &Table{
		Title: "Tables I & II: workload configurations",
		Header: []string{"name", "bottom MLP", "top MLP", "tables", "rows/table", "dim",
			"pooling", "locality P", "batch", "sparse mem"},
	}
	add := func(cfg model.Config) {
		t.Rows = append(t.Rows, []string{
			cfg.Name,
			fmt.Sprint(cfg.BottomMLP), fmt.Sprint(cfg.TopMLP),
			fmt.Sprintf("%d", cfg.NumTables), fmt.Sprintf("%d", cfg.RowsPerTable),
			fmt.Sprintf("%d", cfg.EmbeddingDim), fmt.Sprintf("%d", cfg.Pooling),
			pct(cfg.LocalityP), fmt.Sprintf("%d", cfg.BatchSize),
			metrics.FormatBytes(cfg.SparseBytes()),
		})
	}
	for _, cfg := range model.StateOfTheArt() {
		add(cfg)
	}
	for _, size := range []model.MLPSize{model.MLPLight, model.MLPMedium, model.MLPHeavy} {
		cfg, _ := model.MicroMLP(size)
		add(cfg)
	}
	for _, lvl := range []model.LocalityLevel{model.LocalityLow, model.LocalityMedium, model.LocalityHigh} {
		cfg, _ := model.MicroLocality(lvl)
		add(cfg)
	}
	for _, n := range model.MicroTableCounts() {
		cfg, _ := model.MicroTables(n)
		add(cfg)
	}
	return t
}
