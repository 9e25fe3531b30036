package embedding

// poolChunk is the column count one pass of the pooling kernel keeps in
// registers: eight 4-lane SSE accumulators.
const poolChunk = 32

// poolColsGo is the portable form of poolCols32. It sum-pools the rows
// named by indices into dst, reading len(dst) columns of each row: row idx
// starts at data[idx*dim]. Columns go poolChunk at a time; each column has
// one accumulator that starts from +0 and adds the rows in index order,
// then dst is written once. That is, bit for bit, clear(dst) followed by
// one-row-at-a-time adds, and dst's old contents are never read. It runs
// the columns past the last multiple of poolChunk on amd64 and every column
// elsewhere.
func poolColsGo(dst, data []float32, dim int, indices []int64) {
	for c := 0; c < len(dst); c += poolChunk {
		w := min(poolChunk, len(dst)-c)
		var acc [poolChunk]float32
		sum := acc[:w]
		for _, idx := range indices {
			o := int(idx)*dim + c
			r := data[o : o+w]
			for j, x := range r {
				sum[j] += x
			}
		}
		copy(dst[c:], sum)
	}
}
