package serving

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/workload"
)

// driftedStats collects a fresh profiling window whose hot set has been
// rotated by shift rows — the drifting-hotness scenario the repartition
// loop exists for.
func driftedStats(t *testing.T, cfg model.Config, shift int64, seed uint64) []*embedding.AccessStats {
	t.Helper()
	base, err := workload.NewPowerLawSampler(cfg.RowsPerTable, cfg.LocalityP, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	drift, err := workload.NewDriftingSampler(base)
	if err != nil {
		t.Fatal(err)
	}
	drift.SetShift(shift)
	gen, err := workload.NewQueryGenerator(drift, workload.NewShuffledMapping(cfg.RowsPerTable, 5),
		cfg.BatchSize, cfg.Pooling, seed)
	if err != nil {
		t.Fatal(err)
	}
	perTable := make([][]*embedding.Batch, cfg.NumTables)
	for tb := range perTable {
		for q := 0; q < 50; q++ {
			perTable[tb] = append(perTable[tb], gen.Next())
		}
	}
	stats, err := CollectStats(cfg, perTable)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestRepartitionUnderFire is the acceptance test for zero-downtime plan
// swaps: 8 closed-loop clients hammer Predict while Repartition swaps the
// plan 10 times with freshly drifted statistics. Every reply must match
// the monolithic baseline (a cross-epoch mix of boundaries, clients or
// remaps would corrupt the pooled sums), no request may fail, and every
// request's utility/served accounting must land in exactly one epoch.
// Run with -race in CI.
func TestRepartitionUnderFire(t *testing.T) {
	for _, tc := range []struct {
		name     string
		opts     BuildOptions
		numTab   int
		swaps    int
		perSwap  []int64 // alternating plans
		batching bool
	}{
		{name: "local", opts: BuildOptions{Transport: TransportLocal}, numTab: 4, swaps: 10},
		{name: "tcp", opts: BuildOptions{Transport: TransportTCP}, numTab: 2, swaps: 10},
		{name: "local-batched", opts: BuildOptions{Transport: TransportLocal,
			Batching: &BatcherOptions{MaxBatch: 12, MaxDelay: 200 * time.Microsecond}},
			numTab: 4, swaps: 10, batching: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := liveConfig()
			cfg.NumTables = tc.numTab
			m, stats, gen := buildFixture(t, cfg)
			mono := NewMonolith(m.Clone())
			ld, err := BuildElastic(m, stats, []int64{50, 200, cfg.RowsPerTable}, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer ld.Close()

			const clients = 8
			const perClient = 40
			reqs := make([]*PredictRequest, clients*perClient)
			want := make([][]float32, len(reqs))
			for i := range reqs {
				reqs[i] = makeRequest(cfg, gen, uint64(5000+i))
				var mr PredictReply
				if err := mono.Predict(bg, reqs[i], &mr); err != nil {
					t.Fatal(err)
				}
				want[i] = mr.Probs
			}

			epochs := []*RoutingTable{ld.Table()}
			var stop atomic.Bool
			var wg sync.WaitGroup
			errc := make(chan error, clients)
			var served atomic.Int64
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for q := 0; !stop.Load(); q = (q + 1) % perClient {
						i := c*perClient + q
						var reply PredictReply
						if err := ld.Predict(bg, reqs[i], &reply); err != nil {
							errc <- fmt.Errorf("client %d query %d: %w", c, q, err)
							return
						}
						for j := range want[i] {
							if math.Abs(float64(reply.Probs[j]-want[i][j])) > 1e-4 {
								errc <- fmt.Errorf("client %d query %d input %d: %v != monolith %v (cross-epoch mix?)",
									c, q, j, reply.Probs[j], want[i][j])
								return
							}
						}
						served.Add(1)
					}
				}(c)
			}

			// Swap plans under fire: alternate between two boundary sets,
			// re-profiling with a drifting hot set each time.
			plans := [][]int64{
				{80, 300, cfg.RowsPerTable},
				{50, 200, cfg.RowsPerTable},
				{120, 250, 400, cfg.RowsPerTable},
			}
			for swap := 0; swap < tc.swaps; swap++ {
				fresh := driftedStats(t, cfg, int64(swap*40), uint64(swap))
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				err := ld.Repartition(ctx, fresh, plans[swap%len(plans)])
				cancel()
				if err != nil {
					stop.Store(true)
					wg.Wait()
					t.Fatalf("swap %d: %v", swap, err)
				}
				epochs = append(epochs, ld.Table())
			}
			stop.Store(true)
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}

			if got := ld.Epoch(); got != int64(tc.swaps) {
				t.Fatalf("final epoch = %d, want %d", got, tc.swaps)
			}
			if got := ld.Router.Swaps.Value(); got != int64(tc.swaps) {
				t.Fatalf("swap counter = %d, want %d", got, tc.swaps)
			}
			// Served accounting: every dense-shard request landed in
			// exactly one epoch, so the per-epoch counters partition the
			// total (fused batches count once per dispatch when batching).
			var inEpochs int64
			for _, rt := range epochs {
				inEpochs += rt.Served.Value()
			}
			wantServed := served.Load()
			if tc.batching {
				wantServed = ld.Batcher.Batches.Value()
			}
			if inEpochs != wantServed {
				t.Fatalf("per-epoch served sum = %d, want %d (request counted in zero or two epochs)",
					inEpochs, wantServed)
			}
			// Retired epochs froze their final utilities into the gauges.
			if _, ok := ld.EpochUtility.Value("epoch0/t0/s0"); !ok {
				t.Fatalf("retired epoch 0 utility missing; labels = %v", ld.EpochUtility.Labels())
			}
		})
	}
}

// TestRepartitionRebalancesUtility drives drifted traffic against a stale
// plan — flattening the Fig. 14 utility profile — then repartitions from
// the drifted profile and checks the skew signal recovers: the hot shard
// saturates again while the cold shard goes quiet.
func TestRepartitionRebalancesUtility(t *testing.T) {
	cfg := liveConfig()
	m, stats, _ := buildFixture(t, cfg)
	ld, err := BuildElastic(m, stats, []int64{50, 200, cfg.RowsPerTable}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()

	// Drifted traffic in original-ID space.
	const shift = 250
	base, _ := workload.NewPowerLawSampler(cfg.RowsPerTable, cfg.LocalityP, 0.9)
	drift, _ := workload.NewDriftingSampler(base)
	drift.SetShift(shift)
	gen, err := workload.NewQueryGenerator(drift, workload.NewShuffledMapping(cfg.RowsPerTable, 5),
		cfg.BatchSize, cfg.Pooling, 321)
	if err != nil {
		t.Fatal(err)
	}
	fire := func(n int) {
		for i := 0; i < n; i++ {
			req := &PredictRequest{
				BatchSize: cfg.BatchSize,
				DenseDim:  cfg.DenseInputDim,
				Dense:     make([]float32, cfg.BatchSize*cfg.DenseInputDim),
			}
			for tb := 0; tb < cfg.NumTables; tb++ {
				b := gen.Next()
				req.Tables = append(req.Tables, TableBatch{Indices: b.Indices, Offsets: b.Offsets})
			}
			var reply PredictReply
			if err := ld.Predict(bg, req, &reply); err != nil {
				t.Fatal(err)
			}
		}
	}

	ld.StartProfile()
	fire(150)
	staleSkew := ld.Table().UtilitySkew()

	profile := ld.SnapshotProfile()
	if profile == nil || profile[0].Total == 0 {
		t.Fatal("live profiling window captured nothing")
	}
	if err := ld.Repartition(context.Background(), profile, []int64{50, 200, cfg.RowsPerTable}); err != nil {
		t.Fatal(err)
	}
	fire(150)
	freshSkew := ld.Table().UtilitySkew()
	if freshSkew <= staleSkew {
		t.Fatalf("repartition did not re-concentrate utility: stale skew %.3f, fresh skew %.3f",
			staleSkew, freshSkew)
	}
}

// blockingGather blocks until its context is canceled; it counts how many
// calls "landed" (returned success), which must stay zero when a sibling
// failure cancels the fan-out.
type blockingGather struct {
	started chan struct{}
	landed  atomic.Int64
	dim     int
}

func (b *blockingGather) Gather(ctx context.Context, req *GatherRequest, reply *GatherReply) error {
	select {
	case b.started <- struct{}{}:
	default:
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-time.After(30 * time.Second):
		reply.BatchSize = len(req.Offsets)
		reply.Dim = b.dim
		reply.Pooled = make([]float32, reply.BatchSize*b.dim)
		b.landed.Add(1)
		return nil
	}
}

// TestPredictCancelsStragglerGathers is the regression test for the
// sibling-cancellation satellite: when one shard's gather fails, the
// in-flight gathers against the other shards must be canceled, and no
// straggler may land after Predict has returned its error.
func TestPredictCancelsStragglerGathers(t *testing.T) {
	cfg := liveConfig()
	cfg.NumTables = 1
	m, err := model.New(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	straggler := &blockingGather{started: make(chan struct{}, 1), dim: cfg.EmbeddingDim}
	failing := &flakyClient{failures: 1 << 30}
	rt, err := NewRoutingTable(0, cfg, nil, [][]int64{{250, cfg.RowsPerTable}},
		[][]GatherClient{{failing, straggler}})
	if err != nil {
		t.Fatal(err)
	}
	dense, err := NewDenseShard(m, NewRouter(rt))
	if err != nil {
		t.Fatal(err)
	}
	// One input per shard so both clients receive a gather.
	req := &PredictRequest{
		BatchSize: 2,
		DenseDim:  cfg.DenseInputDim,
		Dense:     make([]float32, 2*cfg.DenseInputDim),
		Tables:    []TableBatch{{Indices: []int64{10, 400}, Offsets: []int32{0, 1}}},
	}
	start := time.Now()
	var reply PredictReply
	err = dense.Predict(bg, req, &reply)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("want gather failure")
	}
	if elapsed > 5*time.Second {
		t.Fatalf("Predict blocked %v behind a straggler instead of canceling it", elapsed)
	}
	if got := straggler.landed.Load(); got != 0 {
		t.Fatalf("%d straggler gathers landed after the error return", got)
	}
	// The straggler really was in flight (not just never called).
	select {
	case <-straggler.started:
	default:
		t.Fatal("straggler gather never started; cancellation untested")
	}
}

// TestDeadlinePropagatesOverTCP checks the wire leg of deadline
// propagation: the client's context deadline rides in the request, is
// reconstructed server-side, and cancels a slow shard there, while the
// client unblocks as soon as its own deadline expires.
func TestDeadlinePropagatesOverTCP(t *testing.T) {
	slow := &blockingGather{started: make(chan struct{}, 1), dim: 1}
	srv, err := NewRPCServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.RegisterGather("Slow", slow); err != nil {
		t.Fatal(err)
	}
	client, err := DialGather(srv.Addr(), "Slow")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	var reply GatherReply
	err = client.Gather(ctx, &GatherRequest{Indices: []int64{0}, Offsets: []int32{0}}, &reply)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("client blocked %v past its deadline", elapsed)
	}
	// The server-side service saw the deadline too: its reconstructed ctx
	// fires well before the 30s success path, so after a short grace the
	// call must have started but never landed.
	select {
	case <-slow.started:
	case <-time.After(2 * time.Second):
		t.Fatal("slow gather never reached the server")
	}
	time.Sleep(300 * time.Millisecond)
	if slow.landed.Load() != 0 {
		t.Fatal("server-side gather landed despite the propagated deadline")
	}
}

// TestRouterDrainWaitsForInflight pins the epoch-retirement contract:
// Drain must not complete while a request still holds the epoch, and must
// complete promptly once released.
func TestRouterDrainWaitsForInflight(t *testing.T) {
	cfg := liveConfig()
	rtA, err := NewRoutingTable(0, cfg, nil, emptyPlan(cfg), emptyClients(cfg))
	if err != nil {
		t.Fatal(err)
	}
	r := NewRouter(rtA)
	pinned, err := r.AcquireModel(DefaultModel)
	if err != nil {
		t.Fatal(err)
	}
	if pinned != rtA {
		t.Fatal("acquire returned wrong epoch")
	}
	rtB, err := NewRoutingTable(1, cfg, nil, emptyPlan(cfg), emptyClients(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if prev, err := r.PublishModel(DefaultModel, rtB); err != nil || prev != rtA {
		t.Fatal("publish returned wrong predecessor")
	}
	// Drain must time out while the request is pinned...
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	err = rtA.Drain(ctx)
	cancel()
	if err == nil {
		t.Fatal("drain completed with a request in flight")
	}
	// ...and complete once released.
	pinned.release()
	if err := rtA.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	// New acquisitions land on the published epoch.
	got, err := r.AcquireModel(DefaultModel)
	if err != nil {
		t.Fatal(err)
	}
	defer got.release()
	if got != rtB {
		t.Fatal("acquire after publish returned the retired epoch")
	}
}

// emptyPlan/emptyClients build a minimal one-shard-per-table plan backed
// by no-op clients, for router-only tests.
func emptyPlan(cfg model.Config) [][]int64 {
	out := make([][]int64, cfg.NumTables)
	for t := range out {
		out[t] = []int64{cfg.RowsPerTable}
	}
	return out
}

type nopGather struct{}

func (nopGather) Gather(ctx context.Context, req *GatherRequest, reply *GatherReply) error {
	return nil
}

func emptyClients(cfg model.Config) [][]GatherClient {
	out := make([][]GatherClient, cfg.NumTables)
	for t := range out {
		out[t] = []GatherClient{nopGather{}}
	}
	return out
}

// watchedDeployment serves one model (DefaultModel) behind a frontend for
// the control-loop tests, with the plan {50, 200, rows}.
func watchedDeployment(t *testing.T, cfg model.Config) (*MultiDeployment, *LiveDeployment) {
	t.Helper()
	m, stats, _ := buildFixture(t, cfg)
	md, err := BuildMulti(ModelSpec{Model: m, Stats: stats, Boundaries: []int64{50, 200, cfg.RowsPerTable}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(md.Close)
	ld, _ := md.Deployment(DefaultModel)
	return md, ld
}

// TestLiveAutoscalerTriggersRepartition wires the skew trigger end to
// end: drifted traffic widens the utility skew, the loop's repartition
// policy fires, the deployment re-plans from its live profiling window and
// the epoch advances — all deterministic by driving the loop's tick.
func TestLiveAutoscalerTriggersRepartition(t *testing.T) {
	cfg := liveConfig()
	md, ld := watchedDeployment(t, cfg)

	base, _ := workload.NewPowerLawSampler(cfg.RowsPerTable, cfg.LocalityP, 0.9)
	drift, _ := workload.NewDriftingSampler(base)
	drift.SetShift(250)
	gen, err := workload.NewQueryGenerator(drift, workload.NewShuffledMapping(cfg.RowsPerTable, 5),
		cfg.BatchSize, cfg.Pooling, 55)
	if err != nil {
		t.Fatal(err)
	}

	var retired []int64
	as := &LiveAutoscaler{
		Frontend: md,
		Repartition: &RepartitionPolicy{
			MinSkew:     0.5,
			MinRequests: 50,
			MinInterval: time.Hour,
		},
		Replan: func(string, []*embedding.AccessStats) ([]int64, error) {
			return []int64{50, 200, cfg.RowsPerTable}, nil
		},
		OnRepartition: func(_ string, epoch int64, err error) {
			retired = append(retired, epoch)
			if err != nil {
				t.Errorf("repartition: %v", err)
			}
		},
	}

	serve := func(n int) {
		for i := 0; i < n; i++ {
			req := &PredictRequest{
				BatchSize: cfg.BatchSize,
				DenseDim:  cfg.DenseInputDim,
				Dense:     make([]float32, cfg.BatchSize*cfg.DenseInputDim),
			}
			for tb := 0; tb < cfg.NumTables; tb++ {
				b := gen.Next()
				req.Tables = append(req.Tables, TableBatch{Indices: b.Indices, Offsets: b.Offsets})
			}
			var reply PredictReply
			if err := ld.Predict(bg, req, &reply); err != nil {
				t.Fatal(err)
			}
		}
	}
	ld.StartProfile()
	serve(150)

	skew := ld.Table().UtilitySkew()
	as.tick(time.Now())
	if len(retired) == 0 {
		t.Fatalf("skew %.3f did not trip the trigger", skew)
	}
	if ld.Epoch() != 1 {
		t.Fatalf("epoch = %d after triggered repartition, want 1", ld.Epoch())
	}
	if len(retired) != 1 || retired[0] != 0 {
		t.Fatalf("OnRepartition observed %v, want [0]", retired)
	}
	// The swap reopened the profiling window for the next cycle.
	if ld.profile.Load() == nil {
		t.Fatal("triggered repartition did not reopen the profiling window")
	}
	// MinInterval suppresses an immediate second swap: the hot set moves
	// back, so the new epoch is warm and stale too, and only the interval
	// holds the trigger.
	drift.SetShift(0)
	serve(150)
	if skew := ld.Table().UtilitySkew(); skew >= as.Repartition.MinSkew {
		t.Fatalf("epoch 1 skew %.3f is healthy; the interval check below would be vacuous", skew)
	}
	as.tick(time.Now())
	if len(retired) != 1 {
		t.Fatal("repartition re-fired inside MinInterval")
	}
	if ld.SnapshotProfile() == nil {
		t.Fatal("the loop left the deployment without a profiling window")
	}
}

// TestEvaluateRepartitionSurvivesReplanFailure pins the recovery path: a
// transient replan failure consumes the window's snapshot but must not
// wedge the trigger loop — the window is reopened so the next firing can
// profile and succeed.
func TestEvaluateRepartitionSurvivesReplanFailure(t *testing.T) {
	cfg := liveConfig()
	md, ld := watchedDeployment(t, cfg)

	base, _ := workload.NewPowerLawSampler(cfg.RowsPerTable, cfg.LocalityP, 0.9)
	drift, _ := workload.NewDriftingSampler(base)
	drift.SetShift(250)
	gen, err := workload.NewQueryGenerator(drift, workload.NewShuffledMapping(cfg.RowsPerTable, 5),
		cfg.BatchSize, cfg.Pooling, 99)
	if err != nil {
		t.Fatal(err)
	}
	fire := func(n int) {
		for i := 0; i < n; i++ {
			req := &PredictRequest{
				BatchSize: cfg.BatchSize,
				DenseDim:  cfg.DenseInputDim,
				Dense:     make([]float32, cfg.BatchSize*cfg.DenseInputDim),
			}
			for tb := 0; tb < cfg.NumTables; tb++ {
				b := gen.Next()
				req.Tables = append(req.Tables, TableBatch{Indices: b.Indices, Offsets: b.Offsets})
			}
			var reply PredictReply
			if err := ld.Predict(bg, req, &reply); err != nil {
				t.Fatal(err)
			}
		}
	}

	replanErr := fmt.Errorf("injected replan failure")
	failing := true
	var fired int
	var lastErr error
	as := &LiveAutoscaler{
		Frontend: md,
		Repartition: &RepartitionPolicy{
			MinSkew:     0.5,
			MinRequests: 50,
			MinInterval: 0, // allow immediate retry after the failure
		},
		Replan: func(string, []*embedding.AccessStats) ([]int64, error) {
			if failing {
				return nil, replanErr
			}
			return []int64{50, 200, cfg.RowsPerTable}, nil
		},
		OnRepartition: func(_ string, _ int64, err error) {
			fired++
			lastErr = err
		},
	}

	ld.StartProfile()
	fire(150)
	as.tick(time.Now())
	if fired != 1 || lastErr == nil {
		t.Fatalf("fired=%d err=%v, want fired with the injected failure", fired, lastErr)
	}
	if ld.Epoch() != 0 {
		t.Fatal("failed replan must not swap the epoch")
	}
	if ld.profile.Load() == nil {
		t.Fatal("failed replan left the profiling window closed")
	}
	// The window was reopened; the next firing profiles fresh traffic and
	// the swap goes through.
	failing = false
	fire(150)
	as.tick(time.Now())
	if lastErr != nil {
		t.Fatalf("retry after transient failure: %v", lastErr)
	}
	if fired != 2 || ld.Epoch() != 1 {
		t.Fatalf("fired=%d epoch=%d, want recovery swap to epoch 1", fired, ld.Epoch())
	}
}
