package perfmodel

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/model"
)

func TestProfileFor(t *testing.T) {
	for _, p := range []Platform{CPUOnly, CPUGPU} {
		prof, err := ProfileFor(p)
		if err != nil {
			t.Fatal(err)
		}
		if prof.Platform != p {
			t.Fatalf("platform mismatch: %v", prof.Platform)
		}
	}
	if _, err := ProfileFor("tpu"); err == nil {
		t.Fatal("want error for unknown platform")
	}
}

func TestNodeSpecsMatchPaper(t *testing.T) {
	cpu := CPUOnlyProfile()
	if cpu.Node.Cores != 64 || cpu.Node.MemBytes != 384<<30 || cpu.Node.GPUs != 0 {
		t.Fatalf("CPU-only node: %+v", cpu.Node)
	}
	gpu := CPUGPUProfile()
	if gpu.Node.Cores != 32 || gpu.Node.MemBytes != 120<<30 || gpu.Node.GPUs != 1 {
		t.Fatalf("CPU-GPU node: %+v", gpu.Node)
	}
}

func TestDenseLatencyGrowsWithFLOPs(t *testing.T) {
	p := CPUOnlyProfile()
	light, _ := model.MicroMLP(model.MLPLight)
	heavy, _ := model.MicroMLP(model.MLPHeavy)
	if p.DenseLatency(heavy) <= p.DenseLatency(light) {
		t.Fatal("heavier MLP must be slower")
	}
	if p.DenseQPS(heavy) >= p.DenseQPS(light) {
		t.Fatal("heavier MLP must sustain lower QPS")
	}
}

func TestGPUAcceleratesDense(t *testing.T) {
	cpu := CPUOnlyProfile()
	gpu := CPUGPUProfile()
	for _, cfg := range model.StateOfTheArt() {
		if gpu.DenseQPS(cfg) <= cpu.DenseQPS(cfg) {
			t.Fatalf("%s: GPU dense QPS %v <= CPU %v", cfg.Name, gpu.DenseQPS(cfg), cpu.DenseQPS(cfg))
		}
		// Sparse stays on the CPU for both platforms (Sec. II-B).
		if gpu.MonoSparseQPS(cfg) != cpu.MonoSparseQPS(cfg) {
			t.Fatalf("%s: sparse QPS must match across platforms", cfg.Name)
		}
	}
}

func TestFigure5Mismatch(t *testing.T) {
	// The core observation of Sec. III-A: dense and sparse QPS differ
	// substantially for every workload on both platforms.
	for _, plat := range []Platform{CPUOnly, CPUGPU} {
		prof, _ := ProfileFor(plat)
		for _, cfg := range model.StateOfTheArt() {
			d, s := prof.DenseQPS(cfg), prof.MonoSparseQPS(cfg)
			ratio := d / s
			if ratio > 0.85 && ratio < 1.18 {
				t.Errorf("%s/%s: dense %v vs sparse %v — no QPS mismatch", plat, cfg.Name, d, s)
			}
		}
	}
}

func TestFigure3LatencyShares(t *testing.T) {
	cpu := CPUOnlyProfile()
	gpu := CPUGPUProfile()
	cfg := model.RM1()
	cpuShare := float64(cpu.DenseLatency(cfg)) / float64(cpu.DenseLatency(cfg)+cpu.MonoSparseLatency(cfg))
	gpuShare := float64(gpu.DenseLatency(cfg)) / float64(gpu.DenseLatency(cfg)+gpu.MonoSparseLatency(cfg))
	// Paper: ~67% CPU-only, ~19% CPU-GPU. Require the calibrated shape.
	if cpuShare < 0.45 || cpuShare > 0.80 {
		t.Errorf("CPU-only dense share = %v, want ~0.67", cpuShare)
	}
	if gpuShare > 0.30 {
		t.Errorf("CPU-GPU dense share = %v, want ~0.19", gpuShare)
	}
	if gpuShare >= cpuShare {
		t.Error("GPU offload must shrink the dense share")
	}
}

func TestShardLatencyMonotonicity(t *testing.T) {
	p := CPUOnlyProfile()
	prev := time.Duration(0)
	for _, ns := range []float64{0, 1, 8, 32, 128} {
		lat := p.ShardLatency(32, ns, 32)
		if lat <= prev {
			t.Fatalf("latency must grow with gathers: ns=%v", ns)
		}
		prev = lat
	}
}

func TestFigure9DimensionOrdering(t *testing.T) {
	p := CPUOnlyProfile()
	for _, x := range []float64{1, 10, 100} {
		q32 := p.ShardQPS(32, x, 32)
		q128 := p.ShardQPS(32, x, 128)
		q512 := p.ShardQPS(32, x, 512)
		if !(q32 > q128 && q128 > q512) {
			t.Fatalf("x=%v: QPS ordering broken: %v %v %v", x, q32, q128, q512)
		}
	}
}

func TestElasticLatencyExceedsStages(t *testing.T) {
	p := CPUOnlyProfile()
	cfg := model.RM1()
	shardLat := p.ShardLatency(cfg.BatchSize, 115, cfg.EmbeddingDim)
	e2e := p.ElasticLatency(cfg, 40, shardLat)
	if e2e <= p.DenseLatency(cfg)+shardLat {
		t.Fatal("elastic latency must include RPC and fan-out overheads")
	}
}

func TestRPCLatencyScalesWithPayload(t *testing.T) {
	p := CPUOnlyProfile()
	small := p.RPCLatency(1 << 10)
	big := p.RPCLatency(100 << 20)
	if big <= small {
		t.Fatal("RPC latency must grow with payload")
	}
	if small < p.RPCBase {
		t.Fatal("RPC latency must include the base cost")
	}
}

func TestColdStartScalesWithParams(t *testing.T) {
	p := CPUOnlyProfile()
	cfg := model.RM1()
	mono := p.ColdStart(cfg.DenseBytes() + cfg.SparseBytes())
	dense := p.ColdStart(cfg.DenseBytes())
	if mono <= dense {
		t.Fatal("loading the full model must take longer")
	}
	// Full RM1 (25.6 GB at 1 GB/s) should take tens of seconds.
	if mono < 20*time.Second || mono > 2*time.Minute {
		t.Fatalf("monolith cold start = %v, want tens of seconds", mono)
	}
}

func TestPerLookupGrowsWithDim(t *testing.T) {
	p := CPUOnlyProfile()
	if p.PerLookup(512) <= p.PerLookup(32) {
		t.Fatal("per-lookup cost must grow with dimension")
	}
}

// --- regression tests ---

func TestSweepGatherQPS(t *testing.T) {
	p := CPUOnlyProfile()
	pts := p.SweepGatherQPS(32, 32, []int{0, 10, 100})
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].QPS <= pts[2].QPS {
		t.Fatal("QPS must decrease with gathers")
	}
	neg := p.SweepGatherQPS(32, 32, []int{-1, 5})
	if len(neg) != 1 {
		t.Fatal("negative gather counts must be skipped")
	}
}

func TestDefaultSweepCoversRange(t *testing.T) {
	xs := DefaultSweep(128)
	if xs[0] != 0 {
		t.Fatal("sweep must start at 0")
	}
	if xs[len(xs)-1] != 128 {
		t.Fatal("sweep must end at max")
	}
	for i := 1; i < len(xs); i++ {
		if xs[i] <= xs[i-1] {
			t.Fatal("sweep must be increasing")
		}
	}
}

func TestPiecewiseLinearExactOnProfile(t *testing.T) {
	p := CPUOnlyProfile()
	pts := p.SweepGatherQPS(32, 32, DefaultSweep(128))
	m, err := NewPiecewiseLinearQPS(pts)
	if err != nil {
		t.Fatal(err)
	}
	// Shard latency is affine in the gather count, so interpolation is
	// exact at and between profiled points.
	for _, x := range []float64{0, 3, 17, 64, 128, 99.5} {
		want := p.ShardQPS(32, x, 32)
		got := m.QPS(x)
		if math.Abs(got-want)/want > 1e-6 {
			t.Fatalf("QPS(%v) = %v, want %v", x, got, want)
		}
	}
	// Extrapolation beyond the profiled range stays sane.
	if q := m.QPS(256); q <= 0 || q >= m.QPS(128) {
		t.Fatalf("extrapolated QPS(256) = %v", q)
	}
	if m.Name() != "piecewise-linear" {
		t.Fatal("name mismatch")
	}
}

func TestPiecewiseLinearValidation(t *testing.T) {
	if _, err := NewPiecewiseLinearQPS(nil); err == nil {
		t.Fatal("want error for no points")
	}
	if _, err := NewPiecewiseLinearQPS([]ProfilePoint{{0, 10}}); err == nil {
		t.Fatal("want error for one point")
	}
	if _, err := NewPiecewiseLinearQPS([]ProfilePoint{{0, 10}, {1, -1}}); err == nil {
		t.Fatal("want error for negative QPS")
	}
	if _, err := NewPiecewiseLinearQPS([]ProfilePoint{{1, 10}, {1, 10}}); err == nil {
		t.Fatal("want error for duplicate x only")
	}
}

func TestLogLogQPS(t *testing.T) {
	p := CPUOnlyProfile()
	pts := p.SweepGatherQPS(32, 32, DefaultSweep(128))
	m, err := NewLogLogQPS(pts)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "log-log" {
		t.Fatal("name mismatch")
	}
	// Must be monotone decreasing and within a reasonable error band.
	if m.QPS(1) <= m.QPS(100) {
		t.Fatal("log-log fit must decrease")
	}
	if e := MeanAbsRelError(m, pts); e > 0.5 {
		t.Fatalf("log-log error %v too large", e)
	}
	if _, err := NewLogLogQPS([]ProfilePoint{{1, 10}}); err == nil {
		t.Fatal("want error for one point")
	}
	if _, err := NewLogLogQPS([]ProfilePoint{{1, 10}, {1, 20}}); err == nil {
		t.Fatal("want degenerate-fit error")
	}
}

func TestBuildQPSModel(t *testing.T) {
	p := CPUOnlyProfile()
	m, err := p.BuildQPSModel(32, 32, 128)
	if err != nil {
		t.Fatal(err)
	}
	if e := MeanAbsRelError(m, p.SweepGatherQPS(32, 32, []int{2, 33, 77, 111})); e > 1e-6 {
		t.Fatalf("default regression error %v", e)
	}
}

// Property: the piecewise regression is monotone non-increasing in ns on
// profile-generated data.
func TestPiecewiseMonotoneProperty(t *testing.T) {
	p := CPUOnlyProfile()
	pts := p.SweepGatherQPS(32, 64, DefaultSweep(200))
	m, err := NewPiecewiseLinearQPS(pts)
	if err != nil {
		t.Fatal(err)
	}
	f := func(aRaw, bRaw uint8) bool {
		a := float64(aRaw % 200)
		b := float64(bRaw % 200)
		if a > b {
			a, b = b, a
		}
		return m.QPS(a) >= m.QPS(b)-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestElasticLatencyMonotoneInFanout(t *testing.T) {
	p := CPUOnlyProfile()
	cfg := model.RM1()
	shardLat := p.ShardLatency(cfg.BatchSize, 64, cfg.EmbeddingDim)
	prev := time.Duration(0)
	for _, contacted := range []int{1, 10, 40, 100} {
		lat := p.ElasticLatency(cfg, contacted, shardLat)
		if lat <= prev {
			t.Fatalf("latency not monotone in fan-out at %d shards", contacted)
		}
		prev = lat
	}
}

func TestShardLatencyScalesWithBatch(t *testing.T) {
	p := CPUOnlyProfile()
	if p.ShardLatency(64, 32, 32) <= p.ShardLatency(8, 32, 32) {
		t.Fatal("larger batches must take longer")
	}
}

func TestMonoSparseScalesWithPoolingNotTables(t *testing.T) {
	p := CPUOnlyProfile()
	base := model.RM1()
	morePool := base
	morePool.Pooling = 256
	if p.MonoSparseLatency(morePool) <= p.MonoSparseLatency(base) {
		t.Fatal("higher pooling must be slower")
	}
	// Tables run in parallel pipelines: only the bandwidth-contention
	// term grows with table count, so the increase is sub-linear.
	moreTables := base
	moreTables.NumTables = 32
	l1 := float64(p.MonoSparseLatency(base))
	l32 := float64(p.MonoSparseLatency(moreTables))
	if l32 <= l1 {
		t.Fatal("more tables must add bandwidth contention")
	}
	if l32 > 3.2*l1 {
		t.Fatalf("table scaling should be sub-linear: %v vs %v", l32, l1)
	}
}
