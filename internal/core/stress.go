package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/embedding"
	"repro/internal/serving"
	"repro/internal/workload"
)

// StressTable runs the Sec. IV-D QPSmax measurement against real,
// in-process embedding shards: a scaled-down RM1 table is hotness-split
// into three shards and each is ramped until its tail-latency knee. The
// per-shard QPSmax values are a report: in the paper they set the sparse
// shards' HPA thresholds, but nothing here reads them — the live loop
// scales on queue depth.
func StressTable() (*Table, error) {
	const rows = 200_000
	const dim = 32
	tab, err := embedding.NewRandomTable("stress", rows, dim, 11)
	if err != nil {
		return nil, err
	}
	sampler, err := workload.NewPowerLawSampler(rows, 0.9, 0.9)
	if err != nil {
		return nil, err
	}
	boundaries := []int64{rows / 10, rows / 2, rows}
	t := &Table{
		Title:  "Sec. IV-D: stress-tested QPSmax per live embedding shard",
		Header: []string{"shard", "rows", "QPSmax", "knee concurrency", "baseline P95"},
	}
	lo := int64(0)
	for s, hi := range boundaries {
		shard, err := serving.NewEmbeddingShard(0, s, tab, lo, hi)
		if err != nil {
			return nil, err
		}
		// StressTest calls newReq from its concurrent workers; the shard's
		// one RNG is guarded so they draw from it in turn.
		var rngMu sync.Mutex
		rng := workload.NewRNG(uint64(s) + 1)
		shardRows := hi - lo
		newReq := func() *serving.GatherRequest {
			rngMu.Lock()
			defer rngMu.Unlock()
			req := &serving.GatherRequest{Offsets: make([]int32, 4)}
			for i := 0; i < 4; i++ {
				req.Offsets[i] = int32(len(req.Indices))
				for k := 0; k < 16; k++ {
					rank := sampler.SampleRank(rng)
					// Fold the table-wide rank into this shard's range.
					req.Indices = append(req.Indices, rank%shardRows)
				}
			}
			return req
		}
		//lint:escape ctxflow the CLI stress driver is the top of its call tree; there is no caller context to inherit
		res, err := serving.StressTest(context.Background(), shard, newReq, serving.StressOptions{
			MaxConcurrency:   16,
			RequestsPerLevel: 128,
		})
		if err != nil {
			return nil, err
		}
		knee := "none"
		if res.KneeConcurrency > 0 {
			knee = fmt.Sprintf("%d", res.KneeConcurrency)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("S%d", s+1),
			fmt.Sprintf("%d", shardRows),
			fmt.Sprintf("%.0f", res.QPSMax),
			knee,
			res.Samples[0].P95.Round(time.Microsecond).String(),
		})
		lo = hi
	}
	t.Notes = append(t.Notes,
		"closed-loop ramp over live in-process shards on this machine; QPSmax is reported only (the paper's sparse-shard HPA target, Sec. IV-D; the live loop scales on queue depth)")
	return t, nil
}
