package serving

import (
	"context"
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// bg is the no-deadline context the plumbing tests thread through the
// ctx-aware client interfaces.
var bg = context.Background()

// liveConfig returns a small but structurally complete DLRM for live
// serving tests.
func liveConfig() model.Config {
	return model.Config{
		Name:          "live",
		DenseInputDim: 8,
		BottomMLP:     []int{16, 8},
		TopMLP:        []int{16, 1},
		NumTables:     4,
		RowsPerTable:  500,
		EmbeddingDim:  8,
		Pooling:       6,
		LocalityP:     0.9,
		BatchSize:     3,
	}
}

// buildFixture instantiates the model, collects access statistics from
// random traffic, and returns (model, stats, a query generator).
func buildFixture(t *testing.T, cfg model.Config) (*model.Model, []*embedding.AccessStats, *workload.QueryGenerator) {
	t.Helper()
	m, err := model.New(cfg, 123)
	if err != nil {
		t.Fatal(err)
	}
	s, err := workload.NewPowerLawSampler(cfg.RowsPerTable, cfg.LocalityP, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	mapping := workload.NewShuffledMapping(cfg.RowsPerTable, 5)
	gen, err := workload.NewQueryGenerator(s, mapping, cfg.BatchSize, cfg.Pooling, 99)
	if err != nil {
		t.Fatal(err)
	}
	var perTable [][]*embedding.Batch
	for tb := 0; tb < cfg.NumTables; tb++ {
		var batches []*embedding.Batch
		for q := 0; q < 50; q++ {
			batches = append(batches, gen.Next())
		}
		perTable = append(perTable, batches)
	}
	stats, err := CollectStats(cfg, perTable)
	if err != nil {
		t.Fatal(err)
	}
	return m, stats, gen
}

// makeRequest builds a random predict request in original-ID space.
func makeRequest(cfg model.Config, gen *workload.QueryGenerator, seed uint64) *PredictRequest {
	rng := workload.NewRNG(seed)
	req := &PredictRequest{
		BatchSize: cfg.BatchSize,
		DenseDim:  cfg.DenseInputDim,
		Dense:     make([]float32, cfg.BatchSize*cfg.DenseInputDim),
	}
	for i := range req.Dense {
		req.Dense[i] = float32(rng.Float64()*2 - 1)
	}
	for tb := 0; tb < cfg.NumTables; tb++ {
		b := gen.Next()
		req.Tables = append(req.Tables, TableBatch{Indices: b.Indices, Offsets: b.Offsets})
	}
	return req
}

func TestPreprocessSortsByHotness(t *testing.T) {
	cfg := liveConfig()
	m, stats, _ := buildFixture(t, cfg)
	pre, err := Preprocess(m, stats)
	if err != nil {
		t.Fatal(err)
	}
	if len(pre.Sorted) != cfg.NumTables {
		t.Fatalf("sorted tables = %d", len(pre.Sorted))
	}
	// Rank 0 must be the most-accessed original row of table 0.
	best := int64(0)
	for i, c := range stats[0].Counts {
		if c > stats[0].Counts[best] {
			best = int64(i)
		}
	}
	if got := pre.RankOf[0][best]; got != 0 {
		t.Fatalf("hottest row rank = %d, want 0", got)
	}
	// Sorted row 0 must hold the hottest original vector.
	want, _ := m.Tables[0].Vector(best)
	got, _ := pre.Sorted[0].Vector(0)
	if !tensor.AlmostEqual(want, got, 0) {
		t.Fatal("sorted table row 0 != hottest original row")
	}
}

func TestPreprocessValidation(t *testing.T) {
	cfg := liveConfig()
	m, stats, _ := buildFixture(t, cfg)
	if _, err := Preprocess(m, stats[:1]); err == nil {
		t.Fatal("want stats arity error")
	}
	badStats := make([]*embedding.AccessStats, cfg.NumTables)
	for i := range badStats {
		badStats[i] = embedding.NewAccessStats(10) // wrong row count
	}
	if _, err := Preprocess(m, badStats); err == nil {
		t.Fatal("want row-count mismatch error")
	}
}

func TestRemapBatchRoundTrip(t *testing.T) {
	cfg := liveConfig()
	m, stats, gen := buildFixture(t, cfg)
	pre, err := Preprocess(m, stats)
	if err != nil {
		t.Fatal(err)
	}
	b := gen.Next()
	rb, err := pre.RemapBatch(0, b)
	if err != nil {
		t.Fatal(err)
	}
	// The remapped gather over the sorted table equals the original
	// gather over the original table.
	want := make(tensor.Vector, cfg.EmbeddingDim)
	got := make(tensor.Vector, cfg.EmbeddingDim)
	if err := m.Tables[0].GatherPool(want, b.InputIndices(0)); err != nil {
		t.Fatal(err)
	}
	if err := pre.Sorted[0].GatherPool(got, rb.InputIndices(0)); err != nil {
		t.Fatal(err)
	}
	if !tensor.AlmostEqual(want, got, 1e-5) {
		t.Fatal("remapped gather differs from original")
	}
	if _, err := pre.RemapBatch(99, b); err == nil {
		t.Fatal("want table range error")
	}
	bad := &embedding.Batch{Indices: []int64{cfg.RowsPerTable + 5}, Offsets: []int32{0}}
	if _, err := pre.RemapBatch(0, bad); err == nil {
		t.Fatal("want index range error")
	}
}

// TestShardedEquivalence is the paper's core serving-correctness check:
// the microservice deployment must reproduce monolithic predictions.
func TestShardedEquivalence(t *testing.T) {
	cfg := liveConfig()
	m, stats, gen := buildFixture(t, cfg)
	mono := NewMonolith(m.Clone())
	boundaries := []int64{50, 200, cfg.RowsPerTable}
	ld, err := BuildElastic(m, stats, boundaries, BuildOptions{Transport: TransportLocal})
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()
	for i := 0; i < 20; i++ {
		req := makeRequest(cfg, gen, uint64(i))
		var monoReply, shardReply PredictReply
		if err := mono.Predict(bg, req, &monoReply); err != nil {
			t.Fatal(err)
		}
		if err := ld.Predict(bg, req, &shardReply); err != nil {
			t.Fatal(err)
		}
		if len(monoReply.Probs) != cfg.BatchSize || len(shardReply.Probs) != cfg.BatchSize {
			t.Fatal("bad reply sizes")
		}
		for j := range monoReply.Probs {
			diff := math.Abs(float64(monoReply.Probs[j] - shardReply.Probs[j]))
			if diff > 1e-5 {
				t.Fatalf("query %d input %d: monolith %v vs sharded %v",
					i, j, monoReply.Probs[j], shardReply.Probs[j])
			}
		}
	}
}

func TestShardedEquivalenceOverTCP(t *testing.T) {
	cfg := liveConfig()
	cfg.NumTables = 2 // fewer sockets
	m, stats, gen := buildFixture(t, cfg)
	mono := NewMonolith(m.Clone())
	boundaries := []int64{50, cfg.RowsPerTable}
	ld, err := BuildElastic(m, stats, boundaries, BuildOptions{Transport: TransportTCP})
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()
	for i := 0; i < 5; i++ {
		req := makeRequest(cfg, gen, uint64(i))
		var monoReply, shardReply PredictReply
		if err := mono.Predict(bg, req, &monoReply); err != nil {
			t.Fatal(err)
		}
		if err := ld.Predict(bg, req, &shardReply); err != nil {
			t.Fatal(err)
		}
		for j := range monoReply.Probs {
			if math.Abs(float64(monoReply.Probs[j]-shardReply.Probs[j])) > 1e-5 {
				t.Fatalf("TCP transport diverged at query %d input %d", i, j)
			}
		}
	}
}

func TestBuildElasticValidation(t *testing.T) {
	cfg := liveConfig()
	m, stats, _ := buildFixture(t, cfg)
	if _, err := BuildElastic(m, stats, nil, BuildOptions{}); err == nil {
		t.Fatal("want empty-boundaries error")
	}
	if _, err := BuildElastic(m, stats, []int64{100}, BuildOptions{}); err == nil {
		t.Fatal("want boundary-end error")
	}
	if _, err := BuildElastic(m, stats, []int64{cfg.RowsPerTable}, BuildOptions{Transport: "carrier-pigeon"}); err == nil {
		t.Fatal("want transport error")
	}
}

func TestEmbeddingShardGather(t *testing.T) {
	tab, err := embedding.NewRandomTable("t", 100, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	shard, err := NewEmbeddingShard(0, 1, tab, 10, 60)
	if err != nil {
		t.Fatal(err)
	}
	if shard.Rows() != 50 || shard.ParamBytes() != 50*4*4 {
		t.Fatalf("shard geometry: rows=%d bytes=%d", shard.Rows(), shard.ParamBytes())
	}
	req := &GatherRequest{Indices: []int64{0, 5, 5}, Offsets: []int32{0, 1}}
	var reply GatherReply
	if err := shard.Gather(bg, req, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.BatchSize != 2 || reply.Dim != 4 {
		t.Fatalf("reply geometry: %+v", reply)
	}
	// Input 0 pooled row must equal table row 10 (shard-local 0).
	want, _ := tab.Vector(10)
	if !tensor.AlmostEqual(want, reply.Pooled[:4], 1e-6) {
		t.Fatal("pooled row mismatch")
	}
	// Utility counts distinct local rows: {0, 5}.
	if got := shard.Utility.TouchedRows(); got != 2 {
		t.Fatalf("touched = %d", got)
	}
	if shard.Latency.Count() != 1 {
		t.Fatal("latency sample missing")
	}
	// Out-of-shard index errors.
	bad := &GatherRequest{Indices: []int64{55}, Offsets: []int32{0}}
	if err := shard.Gather(bg, bad, &reply); err == nil {
		t.Fatal("want range error (local index beyond shard)")
	}
	malformed := &GatherRequest{Indices: []int64{1}, Offsets: []int32{1}}
	if err := shard.Gather(bg, malformed, &reply); err == nil {
		t.Fatal("want batch validation error")
	}
}

func TestReplicaPoolSharesLoadAndScaling(t *testing.T) {
	tab, _ := embedding.NewRandomTable("t", 10, 2, 1)
	s1, _ := NewEmbeddingShard(0, 0, tab, 0, 10)
	s2, _ := NewEmbeddingShard(0, 0, tab, 0, 10)
	pool := NewReplicaPool(s1, s2)
	defer pool.Close()
	req := &GatherRequest{Indices: []int64{1}, Offsets: []int32{0}}
	// Pull model: any idle worker may claim a gather, so distribution is
	// load-sharing rather than strict round robin — under enough
	// concurrent traffic both replicas must see work, and every call must
	// succeed.
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var reply GatherReply
			if err := pool.Gather(bg, req, &reply); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s1.Latency.Count() == 0 || s2.Latency.Count() == 0 {
		t.Fatalf("distribution: %d/%d — a replica never pulled work", s1.Latency.Count(), s2.Latency.Count())
	}
	if got := s1.Latency.Count() + s2.Latency.Count(); got != 64 {
		t.Fatalf("served %d gathers, want 64", got)
	}
	// Remove keeps at least one replica.
	if pool.Remove() == nil {
		t.Fatal("remove should succeed with 2 replicas")
	}
	if pool.Remove() != nil {
		t.Fatal("remove must keep the last replica")
	}
	if pool.Size() != 1 {
		t.Fatalf("size = %d", pool.Size())
	}
	empty := NewReplicaPool()
	var reply GatherReply
	if err := empty.Gather(bg, req, &reply); err == nil {
		t.Fatal("want empty-pool error")
	}
}

func TestLiveAutoscalerStartStop(t *testing.T) {
	md, _, _ := multiFixture(t, BuildOptions{}, BuildOptions{})
	as := &LiveAutoscaler{Frontend: md, Interval: time.Millisecond, Queue: &QueuePolicy{HighDepth: 1}}
	as.Start()
	time.Sleep(10 * time.Millisecond)
	as.Stop()
	as.Stop() // idempotent
}

func TestConcurrentPredict(t *testing.T) {
	cfg := liveConfig()
	m, stats, gen := buildFixture(t, cfg)
	ld, err := BuildElastic(m, stats, []int64{100, cfg.RowsPerTable},
		BuildOptions{Transport: TransportLocal, Replicas: []int{2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()
	reqs := make([]*PredictRequest, 8)
	for i := range reqs {
		reqs[i] = makeRequest(cfg, gen, uint64(i))
	}
	var wg sync.WaitGroup
	errs := make(chan error, len(reqs)*4)
	for round := 0; round < 4; round++ {
		for _, req := range reqs {
			wg.Add(1)
			go func(r *PredictRequest) {
				defer wg.Done()
				var reply PredictReply
				if err := ld.Predict(bg, r, &reply); err != nil {
					errs <- err
				}
			}(req)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if ld.Dense.QPS == nil || ld.Dense.Latency.Count() != 32 {
		t.Fatalf("dense latency samples = %d, want 32", ld.Dense.Latency.Count())
	}
}

func TestPredictRequestValidate(t *testing.T) {
	cfg := liveConfig()
	req := &PredictRequest{BatchSize: 0}
	if err := req.Validate(cfg.NumTables); err == nil {
		t.Fatal("want batch error")
	}
	req = &PredictRequest{BatchSize: 1, DenseDim: 2, Dense: []float32{1}}
	if err := req.Validate(cfg.NumTables); err == nil {
		t.Fatal("want dense payload error")
	}
	req = &PredictRequest{BatchSize: 1, DenseDim: 1, Dense: []float32{1}}
	if err := req.Validate(2); err == nil {
		t.Fatal("want table arity error")
	}
	req = &PredictRequest{
		BatchSize: 1, DenseDim: 1, Dense: []float32{1},
		Tables: []TableBatch{{Indices: []int64{1}, Offsets: []int32{0, 0}}},
	}
	if err := req.Validate(1); err == nil {
		t.Fatal("want table batch-size error")
	}
}

func TestShardUtilityTracking(t *testing.T) {
	cfg := liveConfig()
	m, stats, gen := buildFixture(t, cfg)
	ld, err := BuildElastic(m, stats, []int64{50, cfg.RowsPerTable}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()
	for i := 0; i < 100; i++ {
		var reply PredictReply
		if err := ld.Predict(bg, makeRequest(cfg, gen, uint64(i)), &reply); err != nil {
			t.Fatal(err)
		}
	}
	hot := ld.ShardUtility(0, 0)
	cold := ld.ShardUtility(0, 1)
	if hot <= cold {
		t.Fatalf("hot shard utility %v <= cold %v — hotness sort broken", hot, cold)
	}
	if hot < 0.5 {
		t.Fatalf("hot shard utility %v unexpectedly low", hot)
	}
}

// Property: sharded and monolithic serving agree for random boundaries.
func TestShardedEquivalenceProperty(t *testing.T) {
	cfg := liveConfig()
	cfg.NumTables = 2
	cfg.RowsPerTable = 120
	m, stats, gen := buildFixture(t, cfg)
	mono := NewMonolith(m.Clone())
	f := func(seed uint64, cut1Raw, cut2Raw uint8) bool {
		c1 := int64(cut1Raw%118) + 1
		c2 := int64(cut2Raw%118) + 1
		if c1 > c2 {
			c1, c2 = c2, c1
		}
		boundaries := []int64{c1, cfg.RowsPerTable}
		if c2 > c1 && c2 < cfg.RowsPerTable {
			boundaries = []int64{c1, c2, cfg.RowsPerTable}
		}
		ld, err := BuildElastic(m, stats, boundaries, BuildOptions{})
		if err != nil {
			return false
		}
		defer ld.Close()
		req := makeRequest(cfg, gen, seed)
		var a, b PredictReply
		if mono.Predict(bg, req, &a) != nil || ld.Predict(bg, req, &b) != nil {
			return false
		}
		for j := range a.Probs {
			if math.Abs(float64(a.Probs[j]-b.Probs[j])) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the preprocessing remap preserves pooled gather results for
// arbitrary batches — sorting the table and remapping IDs is semantically
// invisible to the model.
func TestRemapPreservesGatherProperty(t *testing.T) {
	cfg := liveConfig()
	m, stats, _ := buildFixture(t, cfg)
	pre, err := Preprocess(m, stats)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64, tRaw, nRaw uint8) bool {
		tbl := int(tRaw) % cfg.NumTables
		rng := workload.NewRNG(seed)
		n := int(nRaw%12) + 1
		b := &embedding.Batch{Offsets: []int32{0}}
		for i := 0; i < n; i++ {
			b.Indices = append(b.Indices, rng.Intn(cfg.RowsPerTable))
		}
		rb, err := pre.RemapBatch(tbl, b)
		if err != nil {
			return false
		}
		want := make(tensor.Vector, cfg.EmbeddingDim)
		got := make(tensor.Vector, cfg.EmbeddingDim)
		if m.Tables[tbl].GatherPool(want, b.InputIndices(0)) != nil {
			return false
		}
		if pre.Sorted[tbl].GatherPool(got, rb.InputIndices(0)) != nil {
			return false
		}
		return tensor.AlmostEqual(want, got, 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
