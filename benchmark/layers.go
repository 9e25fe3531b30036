package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/bucketize"
	"repro/internal/embedding"
	"repro/internal/mlp"
	"repro/internal/partition"
	"repro/internal/perfmodel"
	"repro/internal/serving"
	"repro/internal/serving/wire"
	"repro/internal/tensor"
)

// The kernels time one public function of one layer from outside, on inputs
// cut from one of the workload's own requests and its live plan, so a kernel
// number and the end-to-end number it should explain see the same shapes.

// kernelBatch is how long one timed batch of kernel calls aims to last; a
// kernel's figure is the median over its batches.
const kernelBatch = 2 * time.Millisecond

// timeOp calls fn back to back for about budget and returns the median
// per-call time over batches of calls.
func timeOp(budget time.Duration, fn func()) time.Duration {
	start := time.Now()
	fn() // warm, and a first cost estimate
	once := max(time.Since(start), time.Nanosecond)
	per := int(max(kernelBatch/once, 1))
	var batches []float64
	for deadline := start.Add(budget); time.Now().Before(deadline) || len(batches) < 3; {
		t0 := time.Now()
		for i := 0; i < per; i++ {
			fn()
		}
		batches = append(batches, float64(time.Since(t0))/float64(per))
	}
	return time.Duration(median(batches))
}

// must turns a kernel's error into a panic: the inputs are the
// benchmark's own, so a failure is a bug in the benchmark, and the
// recover in kernelMetrics reports it as an error.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// noopGather and noopPredict answer at once; the hand-off kernels time the
// layer above them.
type noopGather struct{}

func (noopGather) Gather(context.Context, *serving.GatherRequest, *serving.GatherReply) error {
	return nil
}

type noopPredict struct{}

func (noopPredict) Predict(_ context.Context, req *serving.PredictRequest, reply *serving.PredictReply) error {
	reply.Probs = make([]float32, req.BatchSize)
	return nil
}

// kernelCount is the number of timeOp calls kernelMetrics makes; the
// kernel share of a run is split evenly over them.
const kernelCount = 16

// kernelMetrics times every layer kernel on the deployment's shapes.
func kernelMetrics(m metricSet, w *workload, d *deployment, pool *requestPool, total time.Duration) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("kernel: %v", r)
		}
	}()
	budget := total / kernelCount
	ctx := context.Background()
	cfg := w.cfg
	mdl := d.model
	rt := d.ld.Table()
	bounds := rt.Boundaries[0]

	// The request the kernels are cut from: the head of the pool segment
	// the live plan fits best (most lookups in the hot shard). With one
	// segment that is the pool's first request; after plan swaps it is the
	// request of whichever hot set the last swap planned for.
	var req *serving.PredictRequest
	var sorted *embedding.Batch
	var parts []*embedding.Batch
	for s := 0; s < pool.segments; s++ {
		lo, _ := pool.segment(s)
		cand := pool.reqs[lo]
		remapped, err := rt.Pre.RemapBatch(0, &embedding.Batch{Indices: cand.Tables[0].Indices, Offsets: cand.Tables[0].Offsets})
		must(err)
		split, err := bucketize.Split(remapped, bounds)
		must(err)
		if req == nil || len(split[0].Indices) > len(parts[0].Indices) {
			req, sorted, parts = cand, remapped, split
		}
	}

	// tensor / mlp / model: the dense side, one sample at a time as the
	// dense shard calls it.
	widest := mdl.Bottom.Layers[0]
	for _, l := range append(append([]*mlp.Layer(nil), mdl.Bottom.Layers...), mdl.Top.Layers...) {
		if l.W.Rows*l.W.Cols > widest.W.Rows*widest.W.Cols {
			widest = l
		}
	}
	x, y := make(tensor.Vector, widest.In()), make(tensor.Vector, widest.Out())
	for i := range x {
		x[i] = float32(i%7) - 3
	}
	m.set("tensor.matvec_ns", float64(timeOp(budget, func() { must(tensor.MatVecBias(y, widest.W, x, widest.B)) })), "ns")

	denseRow := tensor.Vector(req.Dense[:cfg.DenseInputDim])
	bottomOut := make(tensor.Vector, cfg.EmbeddingDim)
	mlpScratch := mdl.Bottom.NewScratch()
	m.set("mlp.forward_us", us(timeOp(budget, func() { must(mdl.Bottom.ForwardScratch(mlpScratch, bottomOut, denseRow)) })), "us")

	pooled := make([]tensor.Vector, cfg.NumTables)
	for t := range pooled {
		pooled[t] = make(tensor.Vector, cfg.EmbeddingDim)
		must(mdl.Tables[t].GatherPool(pooled[t], inputIndices(req, t, 0)))
	}
	scratch := mdl.NewScratch()
	forward := timeOp(budget, func() {
		_, err := mdl.ForwardPooledScratch(scratch, denseRow, pooled)
		must(err)
	})
	m.set("model.forward_pooled_us", us(forward), "us")

	// embedding / bucketize: one input's gather, one table batch's split.
	dst := make(tensor.Vector, cfg.EmbeddingDim)
	one := inputIndices(req, 0, 0)
	m.set("embedding.gather_pool_ns", float64(timeOp(budget, func() { must(mdl.Tables[0].GatherPool(dst, one)) })), "ns")

	m.set("bucketize.split_us", us(timeOp(budget, func() {
		_, err := bucketize.Split(sorted, bounds)
		must(err)
	})), "us")

	// embedshard: the hot shard's pooled gather of its real sub-batch, and
	// a rows-mode gather of the request's unique rows in the cold shard —
	// the rows a warm cache still misses.
	hot := rt.Shards[0][0]
	gatherReq := &serving.GatherRequest{Table: 0, Shard: 0, Indices: parts[0].Indices, Offsets: parts[0].Offsets}
	var gatherReply serving.GatherReply
	must(hot.Gather(ctx, gatherReq, &gatherReply)) // kept: the codec kernels encode it
	m.set("embedshard.gather_us", us(timeOp(budget, func() {
		var rep serving.GatherReply
		must(hot.Gather(ctx, gatherReq, &rep))
		wire.FreeGatherReply(&rep)
	})), "us")

	last := len(bounds) - 1
	cold := rt.Shards[0][last]
	rowsReq := &serving.GatherRequest{Table: 0, Shard: last, Indices: uniqueSorted(parts[last].Indices)}
	var frame []byte
	m.set("embedshard.rows_us", us(timeOp(budget, func() {
		var err error
		frame, err = cold.AppendGatherRows(ctx, rowsReq, frame[:0], wire.EncFloat32)
		must(err)
	})), "us")

	// wire: the codec on the real messages, their sizes, and a gather
	// round trip over loopback to a service that does nothing.
	var buf []byte
	m.set("wire.enc_gather_req_ns", float64(timeOp(budget, func() { buf = wire.AppendGatherRequest(buf[:0], gatherReq) })), "ns")
	replyBytes := wire.AppendGatherReply(nil, &gatherReply, false)
	m.set("wire.dec_gather_reply_ns", float64(timeOp(budget, func() {
		var rep serving.GatherReply
		must(wire.DecodeGatherReply(replyBytes, &rep))
		wire.FreeGatherReply(&rep)
	})), "ns")
	m.set("wire.enc_predict_req_ns", float64(timeOp(budget, func() { buf = wire.AppendPredictRequest(buf[:0], req) })), "ns")
	predictBytes := wire.AppendPredictRequest(nil, req)
	m.set("wire.dec_predict_req_ns", float64(timeOp(budget, func() {
		var r serving.PredictRequest
		must(wire.DecodePredictRequest(predictBytes, &r))
		wire.FreePredictRequest(&r)
	})), "ns")
	m.set("wire.predict_bytes", float64(len(predictBytes)), "B")
	m.set("wire.gather_reply_bytes", float64(len(replyBytes)), "B")
	wire.FreeGatherReply(&gatherReply)

	srv, err := serving.NewRPCServer("127.0.0.1:0")
	must(err)
	defer srv.Close()
	must(srv.RegisterGather("Noop", noopGather{}))
	conn, err := serving.DialGather(srv.Addr(), "Noop")
	must(err)
	defer conn.Close()
	m.set("wire.gather_rtt_us", us(timeOp(budget, func() {
		var rep serving.GatherReply
		must(conn.Gather(ctx, gatherReq, &rep))
		wire.FreeGatherReply(&rep)
	})), "us")

	// pool / batcher: what the hand-off through each queue adds over
	// calling the same do-nothing backend directly, one caller.
	rp := serving.NewReplicaPool(noopGather{})
	defer rp.Close()
	var rep serving.GatherReply
	direct := timeOp(budget/2, func() { must(noopGather{}.Gather(ctx, gatherReq, &rep)) })
	pooledCall := timeOp(budget, func() { must(rp.Gather(ctx, gatherReq, &rep)) })
	m.set("pool.handoff_us", us(pooledCall-direct), "us")

	batcher := serving.NewBatcher(noopPredict{}, cfg, serving.BatcherOptions{})
	defer batcher.Close()
	var prep serving.PredictReply
	directPredict := timeOp(budget/2, func() { must(noopPredict{}.Predict(ctx, req, &prep)) })
	batched := timeOp(budget, func() { must(batcher.Predict(ctx, req, &prep)) })
	m.set("batcher.solo_overhead_us", us(batched-directPredict), "us")

	// partition: the DP planner at this table size, on the live access
	// CDF. Only plan_swap replans, so the others report 0.
	var dp time.Duration
	if w.planSwap {
		qps, err := perfmodel.CPUOnlyProfile().BuildQPSModel(cfg.BatchSize, cfg.EmbeddingDim, cfg.Pooling)
		must(err)
		cost := &partition.CostModel{
			CDF:             rt.Pre.CDFs[0],
			PoolingPerInput: float64(cfg.Pooling),
			BatchSize:       cfg.BatchSize,
			VectorBytes:     int64(cfg.EmbeddingDim) * 4,
			MinMemAlloc:     perfmodel.CPUOnlyProfile().MinMemAlloc,
			TargetTraffic:   1000,
			QPS:             qps,
		}
		must(cost.Validate())
		dp = timeOp(budget, func() {
			_, err := (&partition.Partitioner{}).Partition(cfg.RowsPerTable, cost.CostFunc())
			must(err)
		})
	}
	m.set("partition.dp_ms", ms(dp), "ms")
	return nil
}

// inputIndices returns the lookup list of input i of table t.
func inputIndices(req *serving.PredictRequest, t, i int) []int64 {
	b := embedding.Batch{Indices: req.Tables[t].Indices, Offsets: req.Tables[t].Offsets}
	return b.InputIndices(i)
}

// uniqueSorted returns the distinct values of ids in ascending order, the
// shape of a rows-mode gather's deduplicated index list.
func uniqueSorted(ids []int64) []int64 {
	out := append([]int64(nil), ids...)
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	n := 0
	for i, v := range out {
		if i == 0 || v != out[n-1] {
			out[n] = v
			n++
		}
	}
	return out[:n]
}

// directMetrics times in-process Predict on the sharded deployment against
// the monolith on the same requests, interleaved so that whatever the
// hardware does it does to both, and reports the same-run overhead ratio.
func directMetrics(m metricSet, d *deployment, pool *requestPool, budget time.Duration) error {
	mono := serving.NewMonolith(d.model)
	ctx := context.Background()
	var sharded, monolith []float64
	for i, deadline := 0, time.Now().Add(budget); time.Now().Before(deadline) || i < 8; i++ {
		req := pool.reqs[i%len(pool.reqs)]
		var a, b serving.PredictReply
		t0 := time.Now()
		if err := d.ld.Predict(ctx, req, &a); err != nil {
			return fmt.Errorf("in-process predict: %w", err)
		}
		t1 := time.Now()
		if err := mono.Predict(ctx, req, &b); err != nil {
			return fmt.Errorf("monolith predict: %w", err)
		}
		sharded = append(sharded, ms(t1.Sub(t0)))
		monolith = append(monolith, ms(time.Since(t1)))
	}
	m.set("monolith.predict_ms", median(monolith), "ms")
	m.set("sharding.overhead_ratio", median(sharded)/median(monolith), "ratio")
	return nil
}
