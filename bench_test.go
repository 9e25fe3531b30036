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
// experiment summary.
package repro_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bucketize"
	"repro/internal/core"
	"repro/internal/deploy"
	"repro/internal/embedding"
	"repro/internal/mlp"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/perfmodel"
	"repro/internal/serving"
	"repro/internal/serving/wire"
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

func BenchmarkServing_EndToEndPredict(b *testing.B) {
	cfg := model.RM1().WithRows(50_000).WithName("rm1-bench")
	cfg.NumTables = 4
	m, err := model.New(cfg, 9)
	if err != nil {
		b.Fatal(err)
	}
	s, err := workload.NewPowerLawSampler(cfg.RowsPerTable, cfg.LocalityP, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewQueryGenerator(s, nil, cfg.BatchSize, cfg.Pooling, 4)
	if err != nil {
		b.Fatal(err)
	}
	perTable := make([][]*embedding.Batch, cfg.NumTables)
	for t := range perTable {
		for q := 0; q < 20; q++ {
			perTable[t] = append(perTable[t], gen.Next())
		}
	}
	stats, err := serving.CollectStats(cfg, perTable)
	if err != nil {
		b.Fatal(err)
	}
	ld, err := serving.BuildElastic(m, stats, []int64{5_000, 20_000, cfg.RowsPerTable}, serving.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer ld.Close()
	req := &serving.PredictRequest{
		BatchSize: cfg.BatchSize,
		DenseDim:  cfg.DenseInputDim,
		Dense:     make([]float32, cfg.BatchSize*cfg.DenseInputDim),
	}
	for t := 0; t < cfg.NumTables; t++ {
		batch := gen.Next()
		req.Tables = append(req.Tables, serving.TableBatch{Indices: batch.Indices, Offsets: batch.Offsets})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var reply serving.PredictReply
		if err := ld.Predict(context.Background(), req, &reply); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Closed-loop concurrent serving benchmarks ---

// concurrentPredictFixture builds a small live deployment plus a pool of
// workload-driven requests for closed-loop load generation.
func concurrentPredictFixture(b *testing.B, batching *serving.BatcherOptions) (*serving.LiveDeployment, []*serving.PredictRequest) {
	b.Helper()
	cfg := model.RM1().WithRows(50_000).WithName("rm1-concurrent-bench")
	cfg.NumTables = 4
	m, err := model.New(cfg, 9)
	if err != nil {
		b.Fatal(err)
	}
	s, err := workload.NewPowerLawSampler(cfg.RowsPerTable, cfg.LocalityP, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewQueryGenerator(s, nil, cfg.BatchSize, cfg.Pooling, 4)
	if err != nil {
		b.Fatal(err)
	}
	perTable := make([][]*embedding.Batch, cfg.NumTables)
	for t := range perTable {
		for q := 0; q < 20; q++ {
			perTable[t] = append(perTable[t], gen.Next())
		}
	}
	stats, err := serving.CollectStats(cfg, perTable)
	if err != nil {
		b.Fatal(err)
	}
	ld, err := serving.BuildElastic(m, stats, []int64{5_000, 20_000, cfg.RowsPerTable},
		serving.BuildOptions{Batching: batching})
	if err != nil {
		b.Fatal(err)
	}
	rng := workload.NewRNG(77)
	reqs := make([]*serving.PredictRequest, 32)
	for i := range reqs {
		req := &serving.PredictRequest{
			BatchSize: cfg.BatchSize,
			DenseDim:  cfg.DenseInputDim,
			Dense:     make([]float32, cfg.BatchSize*cfg.DenseInputDim),
		}
		for j := range req.Dense {
			req.Dense[j] = float32(rng.Float64()*2 - 1)
		}
		for t := 0; t < cfg.NumTables; t++ {
			batch := gen.Next()
			req.Tables = append(req.Tables, serving.TableBatch{Indices: batch.Indices, Offsets: batch.Offsets})
		}
		reqs[i] = req
	}
	return ld, reqs
}

// runClosedLoopPredict drives b.N requests through the client from the
// given number of closed-loop in-flight clients and reports sustained QPS.
func runClosedLoopPredict(b *testing.B, client serving.PredictClient, reqs []*serving.PredictRequest, clients int) {
	b.Helper()
	var next atomic.Int64
	var wg sync.WaitGroup
	b.ResetTimer()
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(b.N) {
					return
				}
				req := reqs[(int(i)+c)%len(reqs)]
				var reply serving.PredictReply
				if err := client.Predict(context.Background(), req, &reply); err != nil {
					b.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "qps")
}

// BenchmarkServing_ConcurrentPredict is the closed-loop multi-client
// throughput benchmark: the same deployment is driven by 1 and by 8
// in-flight clients, without and with the dynamic batcher. With the dense
// hot path de-serialized (per-call scratch from the model pool) and fused
// request batches amortizing the gather fan-out, the 8-client rows scale
// with GOMAXPROCS instead of flatlining at the 1-client rate. Compare the
// qps metric across rows, e.g.:
//
//	go test -run='^$' -bench=ConcurrentPredict -benchtime=200x
func BenchmarkServing_ConcurrentPredict(b *testing.B) {
	plain, plainReqs := concurrentPredictFixture(b, nil)
	defer plain.Close()
	batched, batchedReqs := concurrentPredictFixture(b,
		&serving.BatcherOptions{MaxBatch: 4 * model.RM1().BatchSize, MaxDelay: 200 * time.Microsecond})
	defer batched.Close()
	for _, sub := range []struct {
		name    string
		client  serving.PredictClient
		reqs    []*serving.PredictRequest
		clients int
	}{
		{"unbatched/clients=1", plain, plainReqs, 1},
		{"unbatched/clients=8", plain, plainReqs, 8},
		{"batched/clients=1", batched, batchedReqs, 1},
		{"batched/clients=8", batched, batchedReqs, 8},
	} {
		b.Run(sub.name, func(b *testing.B) {
			runClosedLoopPredict(b, sub.client, sub.reqs, sub.clients)
		})
	}
}

// concurrentPredictTCPFixture builds a wire-bound deployment behind
// loopback TCP, exports the predict frontend the same way, and returns a
// dialed network client. The geometry
// isolates the transport: RM1's batch/pooling (32x128 indices per table,
// 64-wide embeddings) keeps the payloads realistic while tiny MLPs keep
// dense compute off the critical path, and the deployment is unbatched so
// each predict fans out 12 gather RPCs (4 tables x 3 shards). opts
// layers gather-path options (GatherRows, RowCacheBytes, WireFP16) on
// top of the transport, which the fixture pins to TCP itself; the
// returned deployment exposes BuildCounters for cache-metric reporting.
func concurrentPredictTCPFixture(b *testing.B, opts serving.BuildOptions) (serving.PredictClient, []*serving.PredictRequest, *serving.LiveDeployment, func()) {
	b.Helper()
	cfg := model.Config{
		Name:          "wire-bench",
		DenseInputDim: 13,
		BottomMLP:     []int{16, 64},
		TopMLP:        []int{16, 1},
		NumTables:     4,
		RowsPerTable:  50_000,
		EmbeddingDim:  64,
		Pooling:       128,
		LocalityP:     0.90,
		BatchSize:     32,
	}
	m, err := model.New(cfg, 9)
	if err != nil {
		b.Fatal(err)
	}
	s, err := workload.NewPowerLawSampler(cfg.RowsPerTable, cfg.LocalityP, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewQueryGenerator(s, nil, cfg.BatchSize, cfg.Pooling, 4)
	if err != nil {
		b.Fatal(err)
	}
	perTable := make([][]*embedding.Batch, cfg.NumTables)
	for t := range perTable {
		for q := 0; q < 20; q++ {
			perTable[t] = append(perTable[t], gen.Next())
		}
	}
	stats, err := serving.CollectStats(cfg, perTable)
	if err != nil {
		b.Fatal(err)
	}
	opts.Transport = serving.TransportTCP
	ld, err := serving.BuildElastic(m, stats, []int64{5_000, 20_000, cfg.RowsPerTable}, opts)
	if err != nil {
		b.Fatal(err)
	}
	addr, err := ld.ExportPredict("WireBench")
	if err != nil {
		ld.Close()
		b.Fatal(err)
	}
	client, err := serving.DialPredict(addr, "WireBench")
	if err != nil {
		ld.Close()
		b.Fatal(err)
	}
	rng := workload.NewRNG(77)
	reqs := make([]*serving.PredictRequest, 32)
	for i := range reqs {
		req := &serving.PredictRequest{
			BatchSize: cfg.BatchSize,
			DenseDim:  cfg.DenseInputDim,
			Dense:     make([]float32, cfg.BatchSize*cfg.DenseInputDim),
		}
		for j := range req.Dense {
			req.Dense[j] = float32(rng.Float64()*2 - 1)
		}
		for t := 0; t < cfg.NumTables; t++ {
			batch := gen.Next()
			req.Tables = append(req.Tables, serving.TableBatch{Indices: batch.Indices, Offsets: batch.Offsets})
		}
		reqs[i] = req
	}
	return client, reqs, ld, func() {
		_ = client.Close()
		ld.Close()
	}
}

// BenchmarkServing_ConcurrentPredictWire is the transport-bound row: a
// deployment whose shard gathers and frontend both ride loopback TCP,
// under 8 closed-loop clients. The row keeps the name it had when a gob
// row sat beside it, so its trajectory continues.
func BenchmarkServing_ConcurrentPredictWire(b *testing.B) {
	client, reqs, _, cleanup := concurrentPredictTCPFixture(b, serving.BuildOptions{})
	defer cleanup()
	b.Run("tcp/wire=binary/clients=8", func(b *testing.B) {
		runClosedLoopPredict(b, client, reqs, 8)
	})
}

// BenchmarkServing_HotRowCache is the gather-path-v2 shoot-out on the
// identical TCP deployment and Zipf-skewed workload: the v1 pooled
// fan-out, the v2 dedup rows fan-out, and v2 with the frontend hot-row
// cache. Compare the qps metric across rows — dedup shrinks every
// gather's index payload, and at this locality most deduped rows then
// resolve in the frontend cache without touching the wire at all. The
// cache row also reports its measured hit rate.
func BenchmarkServing_HotRowCache(b *testing.B) {
	for _, sub := range []struct {
		name string
		opts serving.BuildOptions
	}{
		{"tcp/path=v1", serving.BuildOptions{}},
		{"tcp/path=rows", serving.BuildOptions{GatherRows: true}},
		{"tcp/path=rows+cache", serving.BuildOptions{RowCacheBytes: 32 << 20}},
	} {
		client, reqs, ld, cleanup := concurrentPredictTCPFixture(b, sub.opts)
		b.Run(sub.name+"/clients=8", func(b *testing.B) {
			runClosedLoopPredict(b, client, reqs, 8)
			if bc := ld.BuildCounters(); bc.RowCacheHits+bc.RowCacheMisses > 0 {
				b.ReportMetric(float64(bc.RowCacheHits)/float64(bc.RowCacheHits+bc.RowCacheMisses), "hitrate")
			}
		})
		cleanup()
	}
}

// wireBenchMessages builds representative shard-gather and frontend
// predict messages for codec microbenchmarks: a 32x64 float32 gather
// reply and an RM1-shaped predict request.
func wireBenchMessages() (*wire.GatherReply, *wire.PredictRequest) {
	rng := workload.NewRNG(5)
	rep := &wire.GatherReply{BatchSize: 32, Dim: 64, Pooled: make([]float32, 32*64)}
	for i := range rep.Pooled {
		rep.Pooled[i] = float32(rng.Float64()*2 - 1)
	}
	req := &wire.PredictRequest{
		Model: "rm1", BatchSize: 32, DenseDim: 13,
		Dense: make([]float32, 32*13), Deadline: 1,
	}
	for i := range req.Dense {
		req.Dense[i] = float32(rng.Float64()*2 - 1)
	}
	for t := 0; t < 4; t++ {
		tb := wire.TableBatch{Indices: make([]int64, 32*20), Offsets: make([]int32, 32)}
		for i := range tb.Indices {
			tb.Indices[i] = rng.Intn(1 << 24)
		}
		for i := range tb.Offsets {
			tb.Offsets[i] = int32(i * 20)
		}
		req.Tables = append(req.Tables, tb)
	}
	return rep, req
}

// BenchmarkWire_Codec measures one encode+decode round trip per op,
// message by message. wire-bytes/op is the encoded frame size.
func BenchmarkWire_Codec(b *testing.B) {
	rep, req := wireBenchMessages()
	b.Run("gather-reply/binary", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = wire.AppendGatherReply(buf[:0], rep, false)
			var got wire.GatherReply
			if err := wire.DecodeGatherReply(buf, &got); err != nil {
				b.Fatal(err)
			}
			wire.FreeGatherReply(&got)
		}
		b.ReportMetric(float64(len(buf)), "wire-bytes/op")
	})
	b.Run("gather-reply/binary-quant", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = wire.AppendGatherReply(buf[:0], rep, true)
			var got wire.GatherReply
			if err := wire.DecodeGatherReply(buf, &got); err != nil {
				b.Fatal(err)
			}
			wire.FreeGatherReply(&got)
		}
		b.ReportMetric(float64(len(buf)), "wire-bytes/op")
	})
	b.Run("predict-request/binary", func(b *testing.B) {
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = wire.AppendPredictRequest(buf[:0], req)
			var got wire.PredictRequest
			if err := wire.DecodePredictRequest(buf, &got); err != nil {
				b.Fatal(err)
			}
			wire.FreePredictRequest(&got)
		}
		b.ReportMetric(float64(len(buf)), "wire-bytes/op")
	})
}

// multiModelBenchFixture builds a two-variant multi-model deployment plus
// per-variant request pools for closed-loop load generation.
func multiModelBenchFixture(b *testing.B) (*serving.MultiDeployment, map[string][]*serving.PredictRequest) {
	b.Helper()
	specs := []struct {
		name       string
		cfg        model.Config
		seed       uint64
		boundaries []int64
	}{
		{"hot", model.RM1().WithRows(50_000).WithName("rm1-mm-hot"), 9, []int64{5_000, 20_000, 50_000}},
		{"slow", model.RM1().WithRows(20_000).WithName("rm1-mm-slow"), 1009, []int64{2_000, 8_000, 20_000}},
	}
	var modelSpecs []serving.ModelSpec
	reqs := map[string][]*serving.PredictRequest{}
	for _, sp := range specs {
		cfg := sp.cfg
		cfg.NumTables = 4
		m, err := model.New(cfg, sp.seed)
		if err != nil {
			b.Fatal(err)
		}
		s, err := workload.NewPowerLawSampler(cfg.RowsPerTable, cfg.LocalityP, 0.9)
		if err != nil {
			b.Fatal(err)
		}
		gen, err := workload.NewQueryGenerator(s, nil, cfg.BatchSize, cfg.Pooling, 4)
		if err != nil {
			b.Fatal(err)
		}
		perTable := make([][]*embedding.Batch, cfg.NumTables)
		for t := range perTable {
			for q := 0; q < 20; q++ {
				perTable[t] = append(perTable[t], gen.Next())
			}
		}
		stats, err := serving.CollectStats(cfg, perTable)
		if err != nil {
			b.Fatal(err)
		}
		modelSpecs = append(modelSpecs, serving.ModelSpec{
			Name: sp.name, Model: m, Stats: stats, Boundaries: sp.boundaries,
		})
		rng := workload.NewRNG(77)
		for i := 0; i < 32; i++ {
			req := &serving.PredictRequest{
				Model:     sp.name,
				BatchSize: cfg.BatchSize,
				DenseDim:  cfg.DenseInputDim,
				Dense:     make([]float32, cfg.BatchSize*cfg.DenseInputDim),
			}
			for j := range req.Dense {
				req.Dense[j] = float32(rng.Float64()*2 - 1)
			}
			for t := 0; t < cfg.NumTables; t++ {
				batch := gen.Next()
				req.Tables = append(req.Tables, serving.TableBatch{Indices: batch.Indices, Offsets: batch.Offsets})
			}
			reqs[sp.name] = append(reqs[sp.name], req)
		}
	}
	md, err := serving.BuildMulti(modelSpecs...)
	if err != nil {
		b.Fatal(err)
	}
	return md, reqs
}

// BenchmarkServing_MultiModelPredict measures per-variant serving through
// the multi-model frontend: both variants live behind one router while
// each sub-bench drives one variant closed-loop with 4 clients. The
// "model=NAME" segment feeds cmd/benchjson's per-model BENCH_serving.json
// entries, so each variant's qps trajectory is diffable run-over-run.
func BenchmarkServing_MultiModelPredict(b *testing.B) {
	md, reqs := multiModelBenchFixture(b)
	defer md.Close()
	for _, name := range md.Models() {
		b.Run("model="+name+"/clients=4", func(b *testing.B) {
			runClosedLoopPredict(b, md, reqs[name], 4)
		})
	}
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

// repartitionBenchFixture builds the swap-bench deployment: 2 tables of
// 20k rows plus the profiling window the plans are cut from.
func repartitionBenchFixture(b *testing.B, opts serving.BuildOptions, boundaries []int64) (*serving.LiveDeployment, []*embedding.AccessStats) {
	b.Helper()
	cfg := model.RM1().WithRows(20_000).WithName("rm1-swap-bench")
	cfg.NumTables = 2
	m, err := model.New(cfg, 9)
	if err != nil {
		b.Fatal(err)
	}
	s, err := workload.NewPowerLawSampler(cfg.RowsPerTable, cfg.LocalityP, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewQueryGenerator(s, nil, cfg.BatchSize, cfg.Pooling, 4)
	if err != nil {
		b.Fatal(err)
	}
	perTable := make([][]*embedding.Batch, cfg.NumTables)
	for t := range perTable {
		for q := 0; q < 20; q++ {
			perTable[t] = append(perTable[t], gen.Next())
		}
	}
	stats, err := serving.CollectStats(cfg, perTable)
	if err != nil {
		b.Fatal(err)
	}
	ld, err := serving.BuildElastic(m, stats, boundaries, opts)
	if err != nil {
		b.Fatal(err)
	}
	return ld, stats
}

// BenchmarkServing_Repartition measures the control-plane cost of one
// zero-downtime plan swap under the three epoch-reuse regimes (the
// Predict-path cost of a swap is zero by construction — the hot path reads
// one atomic pointer):
//
//   - cold: plan cache disabled — every swap re-preprocesses both tables
//     and rebuilds and re-warms every shard service (the pre-reuse
//     behaviour).
//   - cache-hit: both plans stay in the cache — a swap back to a recent
//     plan reuses the memoized hotness sort and every live shard service.
//   - incremental: one boundary moves per swap with a one-epoch cache —
//     only the two moved shards per table are rebuilt; the unchanged
//     shard services carry over by refcount.
//
// The shards-built/op and shards-reused/op metrics assert the regimes
// structurally (cache-hit must build 0); BENCH_serving.json tracks the
// latency trajectory run-over-run.
func BenchmarkServing_Repartition(b *testing.B) {
	rows := int64(20_000)
	planA := []int64{2_000, 8_000, rows}
	planB := []int64{1_500, 6_000, rows} // every boundary moved
	// The incremental cycle moves only the middle boundary, over three
	// positions: with a one-epoch cache the returning plan's moved shards
	// have aged out, so each swap rebuilds exactly the moved shards while
	// the untouched first shard carries over epoch after epoch.
	incremental := [][]int64{
		{2_000, 8_000, rows},
		{2_000, 9_000, rows},
		{2_000, 10_000, rows},
	}
	run := func(b *testing.B, opts serving.BuildOptions, plans [][]int64) {
		ld, stats := repartitionBenchFixture(b, opts, plans[0])
		defer ld.Close()
		// Prime the rotation so a caching regime reaches its steady
		// state before measurement.
		for i := 0; i < len(plans); i++ {
			if err := ld.Repartition(context.Background(), stats, plans[(i+1)%len(plans)]); err != nil {
				b.Fatal(err)
			}
		}
		base := ld.BuildCounters()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := ld.Repartition(context.Background(), stats, plans[(i+1)%len(plans)]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		now := ld.BuildCounters()
		b.ReportMetric(float64(now.ShardsBuilt-base.ShardsBuilt)/float64(b.N), "shards-built/op")
		b.ReportMetric(float64(now.ShardsReused-base.ShardsReused)/float64(b.N), "shards-reused/op")
	}
	b.Run("cold", func(b *testing.B) {
		run(b, serving.BuildOptions{PlanCacheEpochs: -1}, [][]int64{planA, planB})
	})
	b.Run("cache-hit", func(b *testing.B) {
		run(b, serving.BuildOptions{}, [][]int64{planA, planB})
	})
	b.Run("incremental", func(b *testing.B) {
		run(b, serving.BuildOptions{PlanCacheEpochs: 1}, incremental)
	})
}

// BenchmarkServing_MonolithPredict measures the model-wise baseline's
// end-to-end predict path for comparison with the sharded path above.
func BenchmarkServing_MonolithPredict(b *testing.B) {
	cfg := model.RM1().WithRows(50_000).WithName("rm1-mono-bench")
	cfg.NumTables = 4
	m, err := model.New(cfg, 9)
	if err != nil {
		b.Fatal(err)
	}
	mono := serving.NewMonolith(m)
	s, err := workload.NewPowerLawSampler(cfg.RowsPerTable, cfg.LocalityP, 0.9)
	if err != nil {
		b.Fatal(err)
	}
	gen, err := workload.NewQueryGenerator(s, nil, cfg.BatchSize, cfg.Pooling, 4)
	if err != nil {
		b.Fatal(err)
	}
	req := &serving.PredictRequest{
		BatchSize: cfg.BatchSize,
		DenseDim:  cfg.DenseInputDim,
		Dense:     make([]float32, cfg.BatchSize*cfg.DenseInputDim),
	}
	for t := 0; t < cfg.NumTables; t++ {
		batch := gen.Next()
		req.Tables = append(req.Tables, serving.TableBatch{Indices: batch.Indices, Offsets: batch.Offsets})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var reply serving.PredictReply
		if err := mono.Predict(context.Background(), req, &reply); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServing_QueueDepthScaling is the autoscale-hotshard closed loop
// in benchmark form: every gather against a single-replica pull pool
// stalls (fault injection), concurrent bursts pile depth into the bounded
// queue, and the queue-depth policy is evaluated between bursts. The
// replicas-added/op metric reports how much capacity the policy granted
// per burst; it saturates at MaxReplicas, so compare runs at the same
// fixed -benchtime. Replicas are pre-built so the measured allocations
// are the steady-state enqueue/dispatch path, not shard construction.
func BenchmarkServing_QueueDepthScaling(b *testing.B) {
	const rows = 4_000
	tab, err := embedding.NewRandomTable("qds", rows, 16, 3)
	if err != nil {
		b.Fatal(err)
	}
	shard, err := serving.NewEmbeddingShard(0, 0, tab, 0, rows)
	if err != nil {
		b.Fatal(err)
	}
	pool := serving.NewReplicaPool(shard)
	defer pool.Close()
	pool.InjectDelay(200 * time.Microsecond)
	const maxReplicas = 4
	spares := make([]serving.GatherClient, 0, maxReplicas-1)
	for i := 1; i < maxReplicas; i++ {
		s, err := serving.NewEmbeddingShard(0, i, tab, 0, rows)
		if err != nil {
			b.Fatal(err)
		}
		spares = append(spares, s)
	}
	var added atomic.Int64
	scaler := &serving.LiveAutoscaler{OnScale: func(_ *serving.AutoscaledShard, from, to int) {
		if to > from {
			added.Add(1)
		}
	}}
	hot := &serving.AutoscaledShard{
		Name:        "qds-t0-s0",
		Pool:        pool,
		Queue:       &serving.QueuePolicy{HighDepth: 2, LowDepth: 0},
		MaxReplicas: maxReplicas,
		Spawn: func() (serving.GatherClient, error) {
			if len(spares) == 0 {
				return nil, context.Canceled // never reached: MaxReplicas caps first
			}
			s := spares[0]
			spares = spares[1:]
			return s, nil
		},
	}
	req := &serving.GatherRequest{Indices: []int64{1, 2, 3}, Offsets: []int32{0}}
	const burst = 8
	replies := make([]serving.GatherReply, burst)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for c := 0; c < burst; c++ {
			c := c
			wg.Add(1)
			go func() {
				defer wg.Done()
				replies[c] = serving.GatherReply{}
				if err := pool.Gather(context.Background(), req, &replies[c]); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
		scaler.Evaluate(hot)
	}
	b.StopTimer()
	b.ReportMetric(float64(added.Load())/float64(b.N), "replicas-added/op")
}

// BenchmarkServing_StressTestShard runs the Sec. IV-D QPSmax stress test
// against a live embedding shard.
func BenchmarkServing_StressTestShard(b *testing.B) {
	tab, err := embedding.NewRandomTable("stress", 100_000, 32, 5)
	if err != nil {
		b.Fatal(err)
	}
	shard, err := serving.NewEmbeddingShard(0, 0, tab, 0, 100_000)
	if err != nil {
		b.Fatal(err)
	}
	var n atomic.Int64 // newReq is called from concurrent ramp workers
	newReq := func() *serving.GatherRequest {
		v := n.Add(1)
		return &serving.GatherRequest{
			Indices: []int64{v % 100_000, (v * 31) % 100_000, (v * 77) % 100_000},
			Offsets: []int32{0},
		}
	}
	var qpsMax float64
	for i := 0; i < b.N; i++ {
		res, err := serving.StressTest(context.Background(), shard, newReq, serving.StressOptions{
			MaxConcurrency:   8,
			RequestsPerLevel: 64,
		})
		if err != nil {
			b.Fatal(err)
		}
		qpsMax = res.QPSMax
	}
	b.ReportMetric(qpsMax, "shard-qpsmax")
}
