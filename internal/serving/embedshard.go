package serving

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/embedding"
	"repro/internal/metrics"
	"repro/internal/serving/wire"
	"repro/internal/tensor"
)

// EmbeddingShard is one sparse-shard microservice instance: it owns a
// contiguous hotness-sorted row range of one table and services bucketized
// gather-and-pool requests for it. Safe for concurrent use — gathers are
// read-only over the shard's rows, which is what lets a ReplicaPool drive
// one shard from several pull workers at once (and lets the queue-depth
// autoscaler spawn an extra in-process replica over the same sorted rows).
type EmbeddingShard struct {
	TableIndex int
	ShardIndex int
	RowLo      int64 // sorted-space range [RowLo, RowHi)
	RowHi      int64

	table *embedding.Table // view of sorted rows [RowLo, RowHi)

	// Utility tracks distinct rows touched (Figs. 14/17); Latency and
	// QPS feed the HPA-style live autoscaler.
	Utility *metrics.UtilityTracker
	Latency *metrics.LatencyRecorder
	QPS     *metrics.QPSMeter
}

// NewEmbeddingShard creates a shard service over sorted rows [lo, hi) of
// sortedTable (table index t, shard index s within the plan).
func NewEmbeddingShard(t, s int, sortedTable *embedding.Table, lo, hi int64) (*EmbeddingShard, error) {
	view, err := sortedTable.Slice(lo, hi)
	if err != nil {
		return nil, fmt.Errorf("serving: shard t%d s%d: %w", t, s, err)
	}
	return &EmbeddingShard{
		TableIndex: t,
		ShardIndex: s,
		RowLo:      lo,
		RowHi:      hi,
		table:      view,
		Utility:    metrics.NewUtilityTracker(hi - lo),
		Latency:    metrics.NewLatencyRecorder(0),
		QPS:        metrics.NewQPSMeter(10 * time.Second),
	}, nil
}

// Rows returns the shard's row count.
func (s *EmbeddingShard) Rows() int64 { return s.RowHi - s.RowLo }

// prewarmSink absorbs Prewarm's reads so the touch loop can never be
// optimized away.
var prewarmSink atomic.Uint32

// Prewarm touches the shard's first rows (local sorted space, so row 0 is
// the shard's hottest embedding) by streaming them through the cache —
// the pre-publish warm-up step of the epoch lifecycle. It deliberately
// bypasses the gather path: warming must not distort the shard's utility,
// latency or QPS metrics. Returns the number of rows touched.
func (s *EmbeddingShard) Prewarm(rows int64) int64 {
	if rows > s.Rows() {
		rows = s.Rows()
	}
	if rows <= 0 {
		return 0
	}
	var sum float32
	for r := int64(0); r < rows; r++ {
		row, err := s.table.Vector(r)
		if err != nil {
			return r
		}
		for _, v := range row {
			sum += v
		}
	}
	prewarmSink.Store(math.Float32bits(sum))
	return rows
}

// ParamBytes returns the shard's parameter footprint.
func (s *EmbeddingShard) ParamBytes() int64 { return s.table.SizeBytes() }

// Gather services one bucketized gather-and-pool request. It satisfies
// GatherClient, so a shard can be called directly (in-process transport)
// or registered on an RPCServer. A context canceled before the gather starts
// aborts the call without touching the utility counters, which is what
// lets the dense shard cancel straggler gathers after a sibling failure.
func (s *EmbeddingShard) Gather(ctx context.Context, req *GatherRequest, reply *GatherReply) error {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("serving: shard t%d s%d: %w", s.TableIndex, s.ShardIndex, err)
	}
	if len(req.Offsets) == 0 {
		// Rows mode (gather path v2): one raw row per index, no pooling.
		// This is the local transport's analogue of AppendGatherRows.
		n := len(req.Indices)
		dim := s.table.Dim
		out := wire.GetFloat32(n * dim)
		for i, idx := range req.Indices {
			row, err := s.table.Vector(idx)
			if err != nil {
				wire.PutFloat32(out)
				return fmt.Errorf("serving: shard t%d s%d: %w", s.TableIndex, s.ShardIndex, err)
			}
			copy(out[i*dim:(i+1)*dim], row)
		}
		s.Utility.TouchAll(req.Indices)
		reply.BatchSize = n
		reply.Dim = dim
		reply.Pooled = out
		s.Latency.Observe(time.Since(start))
		s.QPS.Mark()
		return nil
	}
	b := embedding.Batch{Indices: req.Indices, Offsets: req.Offsets}
	bs := b.BatchSize()
	// The pooled output draws from the shared buffer pool; the dense
	// shard recycles it after merging (GatherPoolBatch zeroes each row
	// before accumulating, so recycled contents never leak through). It
	// also validates the request — offsets and every index, once, before
	// writing — so a bad request hands the untouched buffer straight back.
	out := tensor.Matrix{Rows: bs, Cols: s.table.Dim, Data: wire.GetFloat32(bs * s.table.Dim)}
	if err := s.table.GatherPoolBatch(&out, &b); err != nil {
		wire.PutFloat32(out.Data)
		return fmt.Errorf("serving: shard t%d s%d: %w", s.TableIndex, s.ShardIndex, err)
	}
	s.Utility.TouchAll(req.Indices)
	reply.BatchSize = bs
	reply.Dim = s.table.Dim
	reply.Pooled = out.Data
	s.Latency.Observe(time.Since(start))
	s.QPS.Mark()
	return nil
}

// AppendGatherRows is the zero-copy server path for rows-mode gathers on
// the binary transport (wire.RowSource): rows are encoded straight from
// the shard's sorted-table storage into the connection's reply frame, so
// the per-call float32 Matrix copy disappears entirely. Metrics and
// validation mirror Gather.
func (s *EmbeddingShard) AppendGatherRows(ctx context.Context, req *wire.GatherRequest, frame []byte, enc byte) ([]byte, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return frame, fmt.Errorf("serving: shard t%d s%d: %w", s.TableIndex, s.ShardIndex, err)
	}
	dim := s.table.Dim
	frame = wire.AppendGatherReplyHeader(frame, len(req.Indices), dim, enc)
	for _, idx := range req.Indices {
		row, err := s.table.Vector(idx)
		if err != nil {
			return frame, fmt.Errorf("serving: shard t%d s%d: %w", s.TableIndex, s.ShardIndex, err)
		}
		frame = wire.AppendGatherRow(frame, row, enc)
	}
	s.Utility.TouchAll(req.Indices)
	s.Latency.Observe(time.Since(start))
	s.QPS.Mark()
	return frame, nil
}

var _ GatherClient = (*EmbeddingShard)(nil)
var _ wire.RowSource = (*EmbeddingShard)(nil)

// Gather-reply buffers recycle through the wire package's shared float32
// pool: on the in-process transport the same backing array cycles
// shard → dense merge → pool → shard; on TCP the server-side copy is
// consumed by the binary codec (and recycled there after the write),
// while the client-side decoded buffer returns to the same pool after the
// merge. One pool for all of it keeps the working set tight across
// transports.
