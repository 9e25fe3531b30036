package bucketize

import (
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/embedding"
	"repro/internal/tensor"
	"repro/internal/workload"
)

// TestFigure11Example reproduces the paper's worked bucketization example:
// a 10-row table split into shard A = rows [0, 6) and shard B = rows
// [6, 10); input 0 uses indices {1, 7} and input 1 uses {3, 4, 8}.
func TestFigure11Example(t *testing.T) {
	batch := &embedding.Batch{
		Indices: []int64{1, 7, 3, 4, 8},
		Offsets: []int32{0, 2},
	}
	parts, err := Split(batch, []int64{6, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 {
		t.Fatalf("parts = %d", len(parts))
	}
	a, b := parts[0], parts[1]
	// Shard A: offsets [0, 1], indices [1, 3, 4] (Fig. 11b/c).
	wantIdx := []int64{1, 3, 4}
	if len(a.Indices) != 3 {
		t.Fatalf("shard A indices = %v", a.Indices)
	}
	for i := range wantIdx {
		if a.Indices[i] != wantIdx[i] {
			t.Fatalf("shard A indices = %v, want %v", a.Indices, wantIdx)
		}
	}
	if a.Offsets[0] != 0 || a.Offsets[1] != 1 {
		t.Fatalf("shard A offsets = %v, want [0 1]", a.Offsets)
	}
	// Shard B: offsets [0, 1], indices [7, 8] rebased by 6 -> [1, 2].
	if len(b.Indices) != 2 || b.Indices[0] != 1 || b.Indices[1] != 2 {
		t.Fatalf("shard B indices = %v, want [1 2]", b.Indices)
	}
	if b.Offsets[0] != 0 || b.Offsets[1] != 1 {
		t.Fatalf("shard B offsets = %v, want [0 1]", b.Offsets)
	}
	// Split outputs must themselves be valid batches.
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitValidation(t *testing.T) {
	b := &embedding.Batch{Indices: []int64{1}, Offsets: []int32{0}}
	if _, err := Split(b, nil); err == nil {
		t.Fatal("want error for no boundaries")
	}
	if _, err := Split(b, []int64{5, 5}); err == nil {
		t.Fatal("want error for non-increasing boundaries")
	}
	out := &embedding.Batch{Indices: []int64{10}, Offsets: []int32{0}}
	if _, err := Split(out, []int64{5, 10}); err == nil {
		t.Fatal("want error for out-of-range index")
	}
	neg := &embedding.Batch{Indices: []int64{-1}, Offsets: []int32{0}}
	if _, err := Split(neg, []int64{10}); err == nil {
		t.Fatal("want error for negative index")
	}
	malformed := &embedding.Batch{Indices: []int64{1}, Offsets: []int32{1}}
	if _, err := Split(malformed, []int64{10}); err == nil {
		t.Fatal("want error for malformed batch")
	}
}

func TestShardOf(t *testing.T) {
	boundaries := []int64{6, 10, 20}
	cases := []struct {
		idx  int64
		want int
	}{{0, 0}, {5, 0}, {6, 1}, {9, 1}, {10, 2}, {19, 2}}
	for _, c := range cases {
		if got := ShardOf(c.idx, boundaries); got != c.want {
			t.Errorf("ShardOf(%d) = %d, want %d", c.idx, got, c.want)
		}
	}
}

// TestShardOfMatchesSortSearch pins the closure-free search against the
// sort.Search it replaced, over random non-decreasing boundary lists on
// both sides of the linear/binary switch — including empty shards
// (repeated boundary values) — probing every boundary value, its
// neighbours and random ids.
func TestShardOfMatchesSortSearch(t *testing.T) {
	rng := workload.NewRNG(7)
	for trial := 0; trial < 2000; trial++ {
		n := int(rng.Intn(2*shardScanMax + 4))
		boundaries := make([]int64, n)
		prev := int64(0)
		for i := range boundaries {
			// A third of the steps are zero: duplicates of a boundary value.
			if rng.Intn(3) != 0 {
				prev += 1 + rng.Intn(50)
			}
			boundaries[i] = prev
		}
		probes := []int64{-1, 0, prev + 1, prev + 100}
		for _, b := range boundaries {
			probes = append(probes, b-1, b, b+1)
		}
		for i := 0; i < 8; i++ {
			probes = append(probes, rng.Intn(prev+2))
		}
		for _, idx := range probes {
			want := sort.Search(n, func(s int) bool { return idx < boundaries[s] })
			if got := ShardOf(idx, boundaries); got != want {
				t.Fatalf("ShardOf(%d, %v) = %d, sort.Search says %d", idx, boundaries, got, want)
			}
		}
	}
}

// The paper's central correctness requirement: bucketized gathers over the
// partitioned shards, merged back, must equal the monolithic gather-pool.
func TestSplitGatherMergeEquivalenceProperty(t *testing.T) {
	const rows, dim = 128, 8
	table, err := embedding.NewRandomTable("eq", rows, dim, 77)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64, nb, poolRaw, splitRaw uint8) bool {
		rng := workload.NewRNG(seed)
		batchSize := int(nb%4) + 1
		pooling := int(poolRaw%16) + 1
		// Random boundaries: 1..4 shards.
		numShards := int(splitRaw%4) + 1
		bset := map[int64]bool{}
		for len(bset) < numShards-1 {
			b := rng.Intn(rows-1) + 1
			bset[b] = true
		}
		boundaries := make([]int64, 0, numShards)
		for b := range bset {
			boundaries = append(boundaries, b)
		}
		boundaries = append(boundaries, rows)
		sortInt64(boundaries)

		batch := &embedding.Batch{Offsets: make([]int32, batchSize)}
		for i := 0; i < batchSize; i++ {
			batch.Offsets[i] = int32(len(batch.Indices))
			for k := 0; k < pooling; k++ {
				batch.Indices = append(batch.Indices, rng.Intn(rows))
			}
		}

		// Monolithic reference.
		want := tensor.NewMatrix(batchSize, dim)
		if table.GatherPoolBatch(want, batch) != nil {
			return false
		}

		// Sharded: split, gather per shard slice, sum the partial pools.
		parts, err := Split(batch, boundaries)
		if err != nil {
			return false
		}
		got := tensor.NewMatrix(batchSize, dim)
		lo := int64(0)
		for s, part := range parts {
			hi := boundaries[s]
			shard, err := table.Slice(lo, hi)
			if err != nil {
				return false
			}
			out := tensor.NewMatrix(batchSize, dim)
			if shard.GatherPoolBatch(out, part) != nil {
				return false
			}
			for i, v := range out.Data {
				got.Data[i] += v
			}
			lo = hi
		}
		for i := range got.Data {
			diff := float64(got.Data[i] - want.Data[i])
			if diff > 1e-4 || diff < -1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func sortInt64(v []int64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}

// Property: Split conserves every lookup exactly once and rebased indices
// stay within their shard.
func TestSplitConservationProperty(t *testing.T) {
	f := func(seed uint64, nb uint8) bool {
		rng := workload.NewRNG(seed)
		const rows = 100
		boundaries := []int64{17, 40, 77, rows}
		batchSize := int(nb%5) + 1
		batch := &embedding.Batch{Offsets: make([]int32, batchSize)}
		for i := 0; i < batchSize; i++ {
			batch.Offsets[i] = int32(len(batch.Indices))
			n := int(rng.Intn(10))
			for k := 0; k < n; k++ {
				batch.Indices = append(batch.Indices, rng.Intn(rows))
			}
		}
		parts, err := Split(batch, boundaries)
		if err != nil {
			return false
		}
		total := 0
		lo := int64(0)
		for s, part := range parts {
			hi := boundaries[s]
			if part.BatchSize() != batchSize {
				return false
			}
			for _, idx := range part.Indices {
				if idx < 0 || idx >= hi-lo {
					return false
				}
			}
			total += len(part.Indices)
			lo = hi
		}
		return total == len(batch.Indices)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
