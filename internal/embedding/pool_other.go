//go:build !amd64

package embedding

// poolCols32 runs the portable kernel where no assembly kernel exists.
func poolCols32(dst, data []float32, dim int, indices []int64) {
	poolColsGo(dst, data, dim, indices)
}
