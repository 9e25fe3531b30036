package serving

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
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

// TestRoutingDirectoryMatchesRankAndShardOf checks every row directory
// word against the lookups it replaces: for every id of a table remapped
// by Preprocess and of an unremapped one, under plans with one shard, an
// empty shard and a single-row shard, the word unpacks to
// bucketize.ShardOf of the id's sorted row and that row rebased into its
// shard.
func TestRoutingDirectoryMatchesRankAndShardOf(t *testing.T) {
	cfg := liveConfig()
	m, stats, _ := buildFixture(t, cfg)
	pre, err := Preprocess(m, stats)
	if err != nil {
		t.Fatal(err)
	}
	rows := cfg.RowsPerTable
	plans := [][]int64{{rows}, {50, 200, rows}, {10, 10, 57, rows}, {1, rows - 1, rows}}
	for _, bnd := range plans {
		for _, p := range []*Preprocessed{nil, pre} {
			boundaries := make([][]int64, cfg.NumTables)
			clients := make([][]GatherClient, cfg.NumTables)
			for tb := range boundaries {
				boundaries[tb] = bnd
				clients[tb] = make([]GatherClient, len(bnd))
			}
			rt, err := NewRoutingTable(0, cfg, p, boundaries, clients)
			if err != nil {
				t.Fatal(err)
			}
			for tb := 0; tb < cfg.NumTables; tb++ {
				dir, shift := rt.dir[tb], rt.dirShift[tb]
				if int64(len(dir)) != rows {
					t.Fatalf("plan %v remap=%v t%d: directory of %d ids, want %d", bnd, p != nil, tb, len(dir), rows)
				}
				for id := int64(0); id < rows; id++ {
					r := id
					if p != nil {
						r = p.RankOf[tb][id]
					}
					s := bucketize.ShardOf(r, bnd)
					if s > 0 {
						r -= bnd[s-1]
					}
					w := dir[id]
					if gotS, gotR := int(w>>shift), int64(w&(1<<shift-1)); gotS != s || gotR != r {
						t.Fatalf("plan %v remap=%v t%d id %d: directory says shard %d row %d, want shard %d row %d",
							bnd, p != nil, tb, id, gotS, gotR, s, r)
					}
				}
			}
		}
	}
}

// TestRoutingTableRejectsPlanPast32Bits: a plan whose shard number and
// widest shard cannot pack into a 32-bit directory word is refused before
// its directory is allocated. Through NewRoutingTable the plan is 2^16
// one-row shards plus one of 2^15+1 rows (17 + 16 bits, small enough that
// a regression allocates little); directoryShift also refuses 2^33 rows in
// three shards and 2^32 rows in one, whose last id would be the wire's
// u32 sentinel.
func TestRoutingTableRejectsPlanPast32Bits(t *testing.T) {
	bnd := make([]int64, 0, 1<<16+1)
	for r := int64(1); r <= 1<<16; r++ {
		bnd = append(bnd, r)
	}
	bnd = append(bnd, 1<<16+1<<15+1)
	cfg := liveConfig()
	cfg.NumTables = 1
	cfg.RowsPerTable = bnd[len(bnd)-1]
	clients := [][]GatherClient{make([]GatherClient, len(bnd))}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := NewRoutingTable(0, cfg, nil, [][]int64{bnd}, clients)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "32-bit row directory") {
		t.Fatalf("NewRoutingTable = %v, want the 32-bit directory refusal", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
		t.Fatalf("the refused plan allocated %d bytes", grew)
	}
	for _, big := range [][]int64{{1 << 33 / 3, 2 << 33 / 3, 1 << 33}, {1 << 32}} {
		if _, err := directoryShift(big); err == nil || !strings.Contains(err.Error(), "32-bit row directory") {
			t.Fatalf("directoryShift(%v) = %v, want the 32-bit directory refusal", big, err)
		}
	}
	if shift, err := directoryShift([]int64{1<<32 - 1}); err != nil || shift != 32 {
		t.Fatalf("directoryShift of one 2^32−1-row shard = %d, %v; want 32, nil", shift, err)
	}
}
