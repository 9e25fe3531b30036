package embedding

// poolCols32 is poolColsGo in SSE2 assembly (pool_amd64.s) for a dst whose
// length is a multiple of poolChunk. SSE2 is part of the amd64 baseline, so
// it needs no CPU feature check.
//
//go:noescape
func poolCols32(dst, data []float32, dim int, indices []int64)
