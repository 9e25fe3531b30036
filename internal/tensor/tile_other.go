//go:build !amd64

package tensor

// tile4x8 runs the portable tile where no assembly tile exists.
func tile4x8(dst []float32, ldd int, w, panel, b []float32, relu bool) {
	tile4x8Go(dst, ldd, w, panel, b, relu)
}
