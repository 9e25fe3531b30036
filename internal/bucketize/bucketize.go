// Package bucketize implements Sec. IV-C: translating a query's
// index/offset arrays, expressed against the original (hotness-sorted)
// embedding table, into per-shard index/offset arrays whose IDs are
// rebased to each shard's local index space (Fig. 11). The inverse
// reduction — summing the per-shard pooled partial sums back into the full
// pooled embedding — is exact because sum-pooling is associative and
// commutative.
package bucketize

import (
	"fmt"

	"repro/internal/embedding"
)

// Split partitions batch across the shards described by boundaries (the
// partition.Plan boundary list: shard s spans rows
// [boundaries[s-1], boundaries[s]) of the sorted table). The returned
// slice has one batch per shard, each with the same logical batch size as
// the input; shard-local indices are rebased so every shard's IDs start at
// 0 (Fig. 11(c)). Indices outside [0, boundaries[last]) are an error.
func Split(batch *embedding.Batch, boundaries []int64) ([]*embedding.Batch, error) {
	if len(boundaries) == 0 {
		return nil, fmt.Errorf("bucketize: no shard boundaries")
	}
	if err := batch.Validate(); err != nil {
		return nil, fmt.Errorf("bucketize: %w", err)
	}
	prev := int64(0)
	for i, b := range boundaries {
		if b <= prev {
			return nil, fmt.Errorf("bucketize: boundary %d (%d) not increasing past %d", i, b, prev)
		}
		prev = b
	}
	rows := boundaries[len(boundaries)-1]
	numShards := len(boundaries)
	bs := batch.BatchSize()

	// Two passes with exact-size backing arrays: count each shard's
	// lookups first, then carve every shard's index/offset slices out of
	// one allocation each — no append growth, and a fixed six allocations
	// regardless of batch or shard count.
	counts := make([]int64, numShards)
	for _, idx := range batch.Indices {
		if idx < 0 || idx >= rows {
			return nil, fmt.Errorf("bucketize: index %d outside table of %d rows", idx, rows)
		}
		counts[ShardOf(idx, boundaries)]++
	}
	idxBack := make([]int64, len(batch.Indices))
	offBack := make([]int32, numShards*bs)
	batches := make([]embedding.Batch, numShards)
	out := make([]*embedding.Batch, numShards)
	starts := make([]int64, numShards)
	cursors := make([]int64, numShards)
	pos := int64(0)
	for s := 0; s < numShards; s++ {
		starts[s], cursors[s] = pos, pos
		pos += counts[s]
	}
	for i := 0; i < bs; i++ {
		for s := 0; s < numShards; s++ {
			offBack[s*bs+i] = int32(cursors[s] - starts[s])
		}
		for _, idx := range batch.InputIndices(i) {
			s := ShardOf(idx, boundaries)
			lo := int64(0)
			if s > 0 {
				lo = boundaries[s-1]
			}
			idxBack[cursors[s]] = idx - lo
			cursors[s]++
		}
	}
	for s := 0; s < numShards; s++ {
		batches[s] = embedding.Batch{
			Indices: idxBack[starts[s]:cursors[s]:cursors[s]],
			Offsets: offBack[s*bs : (s+1)*bs : (s+1)*bs],
		}
		out[s] = &batches[s]
	}
	return out, nil
}

// shardScanMax is the boundary count up to which ShardOf scans linearly:
// partition plans have a handful of shards and the id space is
// hotness-sorted, so most lookups stop at the first compare.
const shardScanMax = 8

// ShardOf returns the shard index owning sorted row idx under the given
// non-decreasing boundaries: the smallest s with idx < boundaries[s], or
// len(boundaries) when idx is past the last one. It runs once per looked-up
// index on the serving hot path, so it searches without a closure call.
func ShardOf(idx int64, boundaries []int64) int {
	if len(boundaries) <= shardScanMax {
		for s, b := range boundaries {
			if idx < b {
				return s
			}
		}
		return len(boundaries)
	}
	lo, hi := 0, len(boundaries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if idx < boundaries[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
