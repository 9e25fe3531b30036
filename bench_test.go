// Package repro_test is the benchmark harness: one benchmark per table and
// figure of the ElasticRec paper (regenerating the reported rows/series),
// plus ablation benches for the design choices called out in DESIGN.md and
// microbenchmarks of the hot kernels.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Figure benchmarks report their headline scalar through b.ReportMetric
// (e.g. memory-reduction factors), so the bench output doubles as the
// experiment summary. Nothing here measures the serving stack: the only
// program that makes a performance statement about it is benchmark/ (see
// BENCHMARK.json); the Kernel_ rows are a development aid.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/bucketize"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/embedding"
	"repro/internal/mlp"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/perfmodel"
	"repro/internal/serving"
	"repro/internal/tensor"
	"repro/internal/workload"
)

func runTable(b *testing.B, fn func() (*core.Table, error)) *core.Table {
	b.Helper()
	var tab *core.Table
	var err error
	for i := 0; i < b.N; i++ {
		tab, err = fn()
		if err != nil {
			b.Fatal(err)
		}
	}
	return tab
}

// --- Tables I & II ---

func BenchmarkTablesIandII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tab := core.TablesIandII(); len(tab.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- Figures ---

func BenchmarkFig03_OccupancyBreakdown(b *testing.B) {
	runTable(b, core.Figure3)
}

func BenchmarkFig05_LayerQPS(b *testing.B) {
	runTable(b, core.Figure5)
}

func BenchmarkFig06_AccessDistribution(b *testing.B) {
	runTable(b, func() (*core.Table, error) { return core.Figure6(500_000, 10) })
}

func BenchmarkFig09_GatherQPSCurve(b *testing.B) {
	runTable(b, core.Figure9)
}

func BenchmarkFig10_DPWorkedExample(b *testing.B) {
	cost := func(lo, hi int64) float64 { return float64((hi-lo)*(hi-lo)) / float64(lo+1) }
	pt := &partition.Partitioner{Granularity: 1}
	for i := 0; i < b.N; i++ {
		plan, err := pt.PartitionFixedShards(5, 3, cost)
		if err != nil || plan.Cost != 4 {
			b.Fatalf("plan %v err %v", plan, err)
		}
	}
}

func BenchmarkFig11_Bucketization(b *testing.B) {
	batch := &embedding.Batch{Indices: []int64{1, 7, 3, 4, 8}, Offsets: []int32{0, 2}}
	boundaries := []int64{6, 10}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := bucketize.Split(batch, boundaries); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12a_MLPSize(b *testing.B)   { runTable(b, core.Figure12a) }
func BenchmarkFig12b_Locality(b *testing.B)  { runTable(b, core.Figure12b) }
func BenchmarkFig12c_NumTables(b *testing.B) { runTable(b, core.Figure12c) }
func BenchmarkFig12d_NumShards(b *testing.B) { runTable(b, core.Figure12d) }

// reportReduction attaches model-wise/ElasticRec ratios to the bench.
func reportReduction(b *testing.B, platform perfmodel.Platform, target float64) {
	b.Helper()
	sys, err := core.NewSystem(platform)
	if err != nil {
		b.Fatal(err)
	}
	var totalMem, totalSrv float64
	for _, cfg := range model.StateOfTheArt() {
		cmp, err := sys.Compare(cfg, target)
		if err != nil {
			b.Fatal(err)
		}
		totalMem += cmp.MemoryReductionX()
		sx, err := cmp.ServerReductionX(sys.Profile.Node)
		if err != nil {
			b.Fatal(err)
		}
		totalSrv += sx
	}
	b.ReportMetric(totalMem/3, "avg-mem-reduction-x")
	b.ReportMetric(totalSrv/3, "avg-server-reduction-x")
}

func BenchmarkFig13_MemoryCPUOnly(b *testing.B) {
	runTable(b, core.Figure13)
	reportReduction(b, perfmodel.CPUOnly, core.TargetQPSCPUOnly)
}

func BenchmarkFig14_UtilityCPUOnly(b *testing.B) {
	tab := runTable(b, core.Figure14)
	if len(tab.Rows) == 0 {
		b.Fatal("no rows")
	}
}

func BenchmarkFig15_ServersCPUOnly(b *testing.B) {
	runTable(b, core.Figure15)
}

func BenchmarkFig16_MemoryCPUGPU(b *testing.B) {
	runTable(b, core.Figure16)
	reportReduction(b, perfmodel.CPUGPU, core.TargetQPSCPUGPU)
}

func BenchmarkFig17_UtilityCPUGPU(b *testing.B) {
	runTable(b, core.Figure17)
}

func BenchmarkFig18_ServersCPUGPU(b *testing.B) {
	runTable(b, core.Figure18)
}

func BenchmarkFig19_DynamicTraffic(b *testing.B) {
	cfg := core.DynamicTrafficConfig{Platform: perfmodel.CPUOnly, Model: model.RM1(), PeakQPS: 250}
	var ratio float64
	for i := 0; i < b.N; i++ {
		mw, err := core.RunDynamicTraffic(cfg, deploy.PolicyModelWise)
		if err != nil {
			b.Fatal(err)
		}
		er, err := core.RunDynamicTraffic(cfg, deploy.PolicyElastic)
		if err != nil {
			b.Fatal(err)
		}
		ratio = float64(mw.PeakMemBytes) / float64(er.PeakMemBytes)
	}
	b.ReportMetric(ratio, "peak-mem-ratio-x")
}

func BenchmarkFig20_GPUCache(b *testing.B) {
	runTable(b, core.Figure20)
}

// --- Ablation benches (DESIGN.md) ---

// rm1CostModel builds the Algorithm 1 estimator at paper scale.
func rm1CostModel(b *testing.B, minMem int64) *partition.CostModel {
	b.Helper()
	prof := perfmodel.CPUOnlyProfile()
	if minMem > 0 {
		prof.MinMemAlloc = minMem
	}
	pl := &deploy.Planner{Profile: prof}
	cm, err := pl.CostModel(model.RM1())
	if err != nil {
		b.Fatal(err)
	}
	return cm
}

// BenchmarkAblation_PartitionerPolicy compares the DP against equal-size
// and greedy-coverage partitioning under the same cost model, reporting
// each policy's expected memory in GB.
func BenchmarkAblation_PartitionerPolicy(b *testing.B) {
	cm := rm1CostModel(b, 0)
	rows := model.RM1().RowsPerTable
	pt := &partition.Partitioner{}
	var dpGB, eqGB, grGB float64
	for i := 0; i < b.N; i++ {
		dp, err := pt.Partition(rows, cm.CostFunc())
		if err != nil {
			b.Fatal(err)
		}
		eq, err := partition.EqualSize(rows, dp.NumShards())
		if err != nil {
			b.Fatal(err)
		}
		eqCost, err := partition.PlanCost(eq, cm.CostFunc())
		if err != nil {
			b.Fatal(err)
		}
		gr, err := partition.GreedyCoverage(cm.CDF, []float64{0.5, 0.9, 0.99})
		if err != nil {
			b.Fatal(err)
		}
		grCost, err := partition.PlanCost(gr, cm.CostFunc())
		if err != nil {
			b.Fatal(err)
		}
		dpGB, eqGB, grGB = dp.Cost/(1<<30), eqCost/(1<<30), grCost/(1<<30)
	}
	b.ReportMetric(dpGB, "dp-GB")
	b.ReportMetric(eqGB, "equal-size-GB")
	b.ReportMetric(grGB, "greedy-GB")
}

// BenchmarkAblation_MinMemAlloc sweeps the per-container minimum memory
// and reports the DP's chosen shard count at each point (Fig. 12d's
// plateau driver).
func BenchmarkAblation_MinMemAlloc(b *testing.B) {
	rows := model.RM1().RowsPerTable
	pt := &partition.Partitioner{}
	sweep := []int64{64 << 20, 256 << 20, 512 << 20, 2 << 30}
	shards := make([]float64, len(sweep))
	for i := 0; i < b.N; i++ {
		for j, mm := range sweep {
			cm := rm1CostModel(b, mm)
			plan, err := pt.Partition(rows, cm.CostFunc())
			if err != nil {
				b.Fatal(err)
			}
			shards[j] = float64(plan.NumShards())
		}
	}
	b.ReportMetric(shards[0], "shards-at-64MB")
	b.ReportMetric(shards[2], "shards-at-512MB")
	b.ReportMetric(shards[3], "shards-at-2GB")
}

// BenchmarkAblation_QPSRegression compares the default piecewise-linear
// regression against the log-log fit on held-out gather counts.
func BenchmarkAblation_QPSRegression(b *testing.B) {
	prof := perfmodel.CPUOnlyProfile()
	train := prof.SweepGatherQPS(32, 32, perfmodel.DefaultSweep(128))
	holdout := prof.SweepGatherQPS(32, 32, []int{3, 11, 29, 47, 73, 101, 119})
	var pwErr, llErr float64
	for i := 0; i < b.N; i++ {
		pw, err := perfmodel.NewPiecewiseLinearQPS(train)
		if err != nil {
			b.Fatal(err)
		}
		ll, err := perfmodel.NewLogLogQPS(train)
		if err != nil {
			b.Fatal(err)
		}
		pwErr = perfmodel.MeanAbsRelError(pw, holdout)
		llErr = perfmodel.MeanAbsRelError(ll, holdout)
	}
	b.ReportMetric(pwErr*100, "piecewise-err-%")
	b.ReportMetric(llErr*100, "loglog-err-%")
}

// BenchmarkAblation_HotnessSort quantifies Fig. 8: partitioning the sorted
// table vs. an unsorted one (uniform CDF — hot rows scattered) under the
// same estimator.
func BenchmarkAblation_HotnessSort(b *testing.B) {
	cmSorted := rm1CostModel(b, 0)
	uniform := &partition.CostModel{
		CDF:             uniformCDF(model.RM1().RowsPerTable),
		PoolingPerInput: cmSorted.PoolingPerInput,
		BatchSize:       cmSorted.BatchSize,
		VectorBytes:     cmSorted.VectorBytes,
		MinMemAlloc:     cmSorted.MinMemAlloc,
		TargetTraffic:   cmSorted.TargetTraffic,
		QPS:             cmSorted.QPS,
	}
	pt := &partition.Partitioner{}
	rows := model.RM1().RowsPerTable
	var sortedGB, unsortedGB float64
	for i := 0; i < b.N; i++ {
		sp, err := pt.Partition(rows, cmSorted.CostFunc())
		if err != nil {
			b.Fatal(err)
		}
		up, err := pt.Partition(rows, uniform.CostFunc())
		if err != nil {
			b.Fatal(err)
		}
		sortedGB, unsortedGB = sp.Cost/(1<<30), up.Cost/(1<<30)
	}
	b.ReportMetric(sortedGB, "sorted-GB")
	b.ReportMetric(unsortedGB, "unsorted-GB")
}

// uniformCDFImpl models a table whose hot rows are scattered (Fig. 8a): a
// contiguous shard's traffic share is proportional to its row share.
type uniformCDFImpl struct{ rows int64 }

func uniformCDF(rows int64) partition.CDF { return uniformCDFImpl{rows: rows} }

func (u uniformCDFImpl) Rows() int64 { return u.rows }
func (u uniformCDFImpl) At(j int64) float64 {
	if j <= 0 {
		return 0
	}
	if j >= u.rows {
		return 1
	}
	return float64(j) / float64(u.rows)
}
func (u uniformCDFImpl) RangeProbability(k, j int64) float64 {
	p := u.At(j) - u.At(k)
	if p < 0 {
		return 0
	}
	return p
}

// BenchmarkAblation_DPGranularity sweeps the DP's row-group width and
// reports plan quality (expected GB) at each granularity.
func BenchmarkAblation_DPGranularity(b *testing.B) {
	cm := rm1CostModel(b, 0)
	rows := model.RM1().RowsPerTable
	costs := map[int64]float64{}
	grans := []int64{rows / 64, rows / 512, rows / 2048}
	for i := 0; i < b.N; i++ {
		for _, g := range grans {
			pt := &partition.Partitioner{Granularity: g}
			plan, err := pt.Partition(rows, cm.CostFunc())
			if err != nil {
				b.Fatal(err)
			}
			costs[g] = plan.Cost / (1 << 30)
		}
	}
	b.ReportMetric(costs[grans[0]], "64-groups-GB")
	b.ReportMetric(costs[grans[1]], "512-groups-GB")
	b.ReportMetric(costs[grans[2]], "2048-groups-GB")
}

// BenchmarkAblation_PartitionScheme compares ElasticRec's row-wise DP
// against table-wise and column-wise partitioning under the same cost
// model (related-work discussion), reporting expected per-table GB.
func BenchmarkAblation_PartitionScheme(b *testing.B) {
	prof := perfmodel.CPUOnlyProfile()
	pl := &deploy.Planner{Profile: prof}
	var rowGB, tableGB, colGB float64
	for i := 0; i < b.N; i++ {
		schemes, err := pl.CompareSchemes(model.RM1(), []int{4})
		if err != nil {
			b.Fatal(err)
		}
		rowGB = schemes[0].MemoryBytes / (1 << 30)
		tableGB = schemes[1].MemoryBytes / (1 << 30)
		colGB = schemes[2].MemoryBytes / (1 << 30)
	}
	b.ReportMetric(rowGB, "row-wise-GB")
	b.ReportMetric(tableGB, "table-wise-GB")
	b.ReportMetric(colGB, "column-wise4-GB")
}

// --- Kernel microbenchmarks ---

func BenchmarkKernel_GatherPool(b *testing.B) {
	tab, err := embedding.NewRandomTable("bench", 1_000_000, 32, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := workload.NewRNG(2)
	idx := make([]int64, 128)
	for i := range idx {
		idx[i] = rng.Intn(1_000_000)
	}
	dst := make(tensor.Vector, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tab.GatherPool(dst, idx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernel_GatherPoolServed times the pooled gather at the geometry
// the gather workloads serve — a 200k x 64 table, batches of 32 bags of 128
// rows drawn with the benchmark's power-law locality (P = 0.9, s = 0.9) —
// and reports ns per pooled row. It cycles through 64 pre-drawn batches so
// the rows touched are not one cache-resident set.
func BenchmarkKernel_GatherPoolServed(b *testing.B) {
	const rows, dim, bags, bag, batches = 200_000, 64, 32, 128, 64
	tab, err := embedding.NewRandomTable("bench", rows, dim, 1)
	if err != nil {
		b.Fatal(err)
	}
	sampler, err := workload.NewPowerLawSampler(rows, 0.9, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	rng := workload.NewRNG(2)
	in := make([]*embedding.Batch, batches)
	for k := range in {
		in[k] = &embedding.Batch{Indices: make([]int64, bags*bag), Offsets: make([]int32, bags)}
		for i := range in[k].Indices {
			in[k].Indices[i] = sampler.SampleRank(rng)
		}
		for i := range in[k].Offsets {
			in[k].Offsets[i] = int32(i * bag)
		}
	}
	out := tensor.NewMatrix(bags, dim)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tab.GatherPoolBatch(out, in[i%batches]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(bags*bag), "ns/row")
}

// BenchmarkKernel_MatVec times the dense kernel on the two layers that
// dominate bench-dense — bottom 256->128 (most MACs) and top 42->256 (a
// width no unroll factor divides) — and reports ns per multiply-accumulate.
func BenchmarkKernel_MatVec(b *testing.B) {
	for _, shape := range [][2]int{{256, 128}, {42, 256}} {
		in, out := shape[0], shape[1]
		b.Run(fmt.Sprintf("%dx%d", in, out), func(b *testing.B) {
			l, err := mlp.NewLayer(in, out, 1)
			if err != nil {
				b.Fatal(err)
			}
			x, y := make(tensor.Vector, in), make(tensor.Vector, out)
			tensor.InitUniform(x, 1, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tensor.MatVecBias(y, l.W, x, l.B); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(in*out), "ns/MAC")
		})
	}
}

// BenchmarkKernel_MatMul times the batched kernel the dense shard runs on
// a fused batch — the same two layers at batch 32 — in ns per
// multiply-accumulate, beside Kernel_MatVec's single-sample figure.
func BenchmarkKernel_MatMul(b *testing.B) {
	const bs = 32
	for _, shape := range [][2]int{{256, 128}, {42, 256}} {
		in, out := shape[0], shape[1]
		b.Run(fmt.Sprintf("%dx%d_bs%d", in, out, bs), func(b *testing.B) {
			l, err := mlp.NewLayer(in, out, 1)
			if err != nil {
				b.Fatal(err)
			}
			x, y := tensor.NewMatrix(bs, in), tensor.NewMatrix(bs, out)
			tensor.InitUniform(x.Data, 1, 2)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := tensor.MatMulBias(y, l.W, x, l.B); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(bs*in*out), "ns/MAC")
		})
	}
}

func BenchmarkKernel_MLPForward(b *testing.B) {
	m, err := mlp.New([]int{13, 256, 128, 32}, 1)
	if err != nil {
		b.Fatal(err)
	}
	in := make(tensor.Vector, 13)
	tensor.InitUniform(in, 1, 2)
	out := make(tensor.Vector, 32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Forward(out, in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernel_DPPartition20M(b *testing.B) {
	cm := rm1CostModel(b, 0)
	pt := &partition.Partitioner{}
	rows := model.RM1().RowsPerTable
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pt.Partition(rows, cm.CostFunc()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernel_BucketizeRM1Batch(b *testing.B) {
	cfg := model.RM1()
	s, err := workload.NewPowerLawSampler(cfg.RowsPerTable, cfg.LocalityP, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewQueryGenerator(s, nil, cfg.BatchSize, cfg.Pooling, 3)
	if err != nil {
		b.Fatal(err)
	}
	batch := gen.NextRanks()
	boundaries := []int64{312504, 2109402, 6836025, cfg.RowsPerTable}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bucketize.Split(batch, boundaries); err != nil {
			b.Fatal(err)
		}
	}
}

// preprocessConfig is the gather workloads' geometry: 4 tables of 200k rows
// of dimension 64 behind tiny MLPs.
func preprocessConfig() model.Config {
	return model.Config{
		Name:          "bench-gather",
		DenseInputDim: 13,
		BottomMLP:     []int{16, 64},
		TopMLP:        []int{16, 1},
		NumTables:     4,
		RowsPerTable:  200_000,
		EmbeddingDim:  64,
		Pooling:       128,
		LocalityP:     0.9,
		BatchSize:     32,
	}
}

// powerLawBatches draws n batch-32, pooling-128 lookups (4096 indices each)
// from the power-law sampler through a shuffled ID mapping, so the hot
// rows are scattered over the table the way an unsorted table sees them.
func powerLawBatches(b *testing.B, cfg model.Config, n int, seed uint64) []*embedding.Batch {
	s, err := workload.NewPowerLawSampler(cfg.RowsPerTable, cfg.LocalityP, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewQueryGenerator(s, workload.NewShuffledMapping(cfg.RowsPerTable, seed), cfg.BatchSize, cfg.Pooling, seed)
	if err != nil {
		b.Fatal(err)
	}
	out := make([]*embedding.Batch, n)
	for i := range out {
		out[i] = gen.Next()
	}
	return out
}

// BenchmarkKernel_RecordBatch times the profiling window's counting loop on
// one batch of 4096 power-law indices.
func BenchmarkKernel_RecordBatch(b *testing.B) {
	cfg := preprocessConfig()
	batch := powerLawBatches(b, cfg, 1, 5)[0]
	st := embedding.NewAccessStats(cfg.RowsPerTable)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := st.RecordBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernel_ModelNew times model.New at the gather workloads'
// geometry: four 200k x 64 tables filled with seeded values (the first
// stage of every benchmark set-up).
func BenchmarkKernel_ModelNew(b *testing.B) {
	cfg := preprocessConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := model.New(cfg, 7); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernel_Preprocess times the epoch build's hotness sort, table
// permutation, rank inversion and CDF on 4 x 200k x 64 tables whose counts
// come from one million power-law lookups per table.
func BenchmarkKernel_Preprocess(b *testing.B) {
	cfg := preprocessConfig()
	m, err := model.New(cfg, 7)
	if err != nil {
		b.Fatal(err)
	}
	stats := make([]*embedding.AccessStats, cfg.NumTables)
	for t := range stats {
		stats[t] = embedding.NewAccessStats(cfg.RowsPerTable)
		for _, batch := range powerLawBatches(b, cfg, 256, uint64(t)+1) {
			if err := stats[t].RecordBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := serving.Preprocess(m, stats); err != nil {
			b.Fatal(err)
		}
	}
}
