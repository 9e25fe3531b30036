package serving

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/bucketize"
	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/serving/wire"
	"repro/internal/workload"
)

// TestEmbeddingShardGatherIndexRange pins the pooled gather's error
// contract now that a request is validated once, up front: an
// out-of-range index at the first, a middle or the last position of any
// input returns embedding.ErrIndexRange, leaves the reply empty, counts
// nothing towards utility, and hands the pooled output buffer back to
// wire's float32 pool unwritten.
func TestEmbeddingShardGatherIndexRange(t *testing.T) {
	tab, err := embedding.NewRandomTable("t", 100, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	shard, err := NewEmbeddingShard(0, 0, tab, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	offsets := []int32{0, 5, 10}
	const sentinel = float32(12345)
	for in := 0; in < len(offsets); in++ {
		for _, at := range []int{0, 2, 4} {
			for _, bad := range []int64{-1, 50} {
				name := fmt.Sprintf("input %d position %d index %d", in, at, bad)
				req := &GatherRequest{Indices: make([]int64, 15), Offsets: offsets}
				for i := range req.Indices {
					req.Indices[i] = int64(i)
				}
				req.Indices[int(offsets[in])+at] = bad

				// A sync.Pool may drop a Put (the race detector does so on
				// purpose) or lose it to a GC, so one probe proves nothing
				// either way; a gather that leaked its buffer fails them all.
				recycled := false
				for attempt := 0; attempt < 50 && !recycled; attempt++ {
					probe := make([]float32, len(offsets)*tab.Dim)
					for i := range probe {
						probe[i] = sentinel
					}
					wire.PutFloat32(probe)
					var reply GatherReply
					err := shard.Gather(bg, req, &reply)
					if !errors.Is(err, embedding.ErrIndexRange) {
						t.Fatalf("%s: want ErrIndexRange, got %v", name, err)
					}
					if reply.Pooled != nil || reply.BatchSize != 0 {
						t.Fatalf("%s: failed gather filled the reply: %+v", name, reply)
					}
					got := wire.GetFloat32(len(probe))
					recycled = &got[0] == &probe[0] && !slices.ContainsFunc(got, func(v float32) bool { return v != sentinel })
				}
				if !recycled {
					t.Fatalf("%s: the pooled buffer never came back to the float32 pool untouched", name)
				}
			}
		}
	}
	if got := shard.Utility.TouchedRows(); got != 0 {
		t.Fatalf("failed gathers touched %d rows", got)
	}
}

// splitRecorder is a GatherClient that records the bucketized request it
// was sent and answers with zeros of the right shape.
type splitRecorder struct {
	mu   *sync.Mutex
	got  map[[2]int]*embedding.Batch // (table, shard) -> request copy
	bs   int
	dim  int
	t, s int
}

func (r *splitRecorder) Gather(_ context.Context, req *GatherRequest, reply *GatherReply) error {
	r.mu.Lock()
	r.got[[2]int{r.t, r.s}] = &embedding.Batch{Indices: slices.Clone(req.Indices), Offsets: slices.Clone(req.Offsets)}
	r.mu.Unlock()
	if req.Table != r.t || req.Shard != r.s {
		return fmt.Errorf("request addressed t%d s%d reached t%d s%d", req.Table, req.Shard, r.t, r.s)
	}
	reply.BatchSize, reply.Dim = r.bs, r.dim
	reply.Pooled = wire.GetFloat32(r.bs * r.dim)
	clear(reply.Pooled)
	return nil
}

// TestFusedBucketizeMatchesSplit is the differential test for the
// single-lookup remap+bucketize in DenseShard.Predict: for 1–8 shards per
// table, with and without a preprocessing remap, with empty bags and
// shards that receive nothing, every (table, shard) gather request it
// emits has exactly the indices and offsets bucketize.Split — the
// allocating reference — produces from the remapped batch.
func TestFusedBucketizeMatchesSplit(t *testing.T) {
	cfg := liveConfig()
	cfg.NumTables = 2
	cfg.RowsPerTable = 97
	cfg.BatchSize = 5
	dense, err := model.NewDenseOnly(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := workload.NewRNG(11)
	for ns := 1; ns <= 8; ns++ {
		for _, remap := range []bool{false, true} {
			// Strictly increasing random cuts ending at the row count.
			cuts := map[int64]bool{cfg.RowsPerTable: true}
			for len(cuts) < ns {
				cuts[1+rng.Intn(cfg.RowsPerTable-1)] = true
			}
			bounds := make([]int64, 0, ns)
			for c := range cuts {
				bounds = append(bounds, c)
			}
			slices.Sort(bounds)

			var pre *Preprocessed
			if remap {
				pre = &Preprocessed{Config: cfg}
				for tb := 0; tb < cfg.NumTables; tb++ {
					rank := make([]int64, cfg.RowsPerTable)
					for i := range rank {
						rank[i] = int64(i)
					}
					for i := len(rank) - 1; i > 0; i-- {
						j := rng.Intn(int64(i + 1))
						rank[i], rank[j] = rank[j], rank[i]
					}
					pre.RankOf = append(pre.RankOf, rank)
				}
			}

			var mu sync.Mutex
			got := make(map[[2]int]*embedding.Batch)
			boundaries := make([][]int64, cfg.NumTables)
			clients := make([][]GatherClient, cfg.NumTables)
			for tb := range clients {
				boundaries[tb] = bounds
				for s := 0; s < ns; s++ {
					clients[tb] = append(clients[tb], &splitRecorder{mu: &mu, got: got, bs: cfg.BatchSize, dim: cfg.EmbeddingDim, t: tb, s: s})
				}
			}
			rt, err := NewRoutingTable(0, cfg, pre, boundaries, clients)
			if err != nil {
				t.Fatal(err)
			}
			shard, err := NewDenseShard(dense, NewRouter(rt))
			if err != nil {
				t.Fatal(err)
			}

			for trial := 0; trial < 6; trial++ {
				clear(got)
				req := &PredictRequest{
					BatchSize: cfg.BatchSize,
					DenseDim:  cfg.DenseInputDim,
					Dense:     make([]float32, cfg.BatchSize*cfg.DenseInputDim),
				}
				for tb := 0; tb < cfg.NumTables; tb++ {
					var b TableBatch
					for i := 0; i < cfg.BatchSize; i++ {
						b.Offsets = append(b.Offsets, int32(len(b.Indices)))
						for n := rng.Intn(12); n > 0; n-- { // 0 = an empty bag
							b.Indices = append(b.Indices, rng.Intn(cfg.RowsPerTable))
						}
					}
					// Every boundary value and its predecessor appear too.
					for _, c := range bounds {
						b.Indices = append(b.Indices, c-1, c%cfg.RowsPerTable)
					}
					req.Tables = append(req.Tables, b)
				}
				var reply PredictReply
				if err := shard.Predict(bg, req, &reply); err != nil {
					t.Fatal(err)
				}
				for tb := 0; tb < cfg.NumTables; tb++ {
					sorted := &embedding.Batch{Indices: req.Tables[tb].Indices, Offsets: req.Tables[tb].Offsets}
					if remap {
						if sorted, err = pre.RemapBatch(tb, sorted); err != nil {
							t.Fatal(err)
						}
					}
					want, err := bucketize.Split(sorted, bounds)
					if err != nil {
						t.Fatal(err)
					}
					for s := 0; s < ns; s++ {
						g := got[[2]int{tb, s}]
						if g == nil {
							t.Fatalf("%d shards remap=%v: no gather reached t%d s%d", ns, remap, tb, s)
						}
						if !slices.Equal(g.Indices, want[s].Indices) || !slices.Equal(g.Offsets, want[s].Offsets) {
							t.Fatalf("%d shards remap=%v t%d s%d:\nfused  indices %v offsets %v\nSplit  indices %v offsets %v",
								ns, remap, tb, s, g.Indices, g.Offsets, want[s].Indices, want[s].Offsets)
						}
					}
				}
			}
		}
	}
}
