package tensor

// tileSamples is the sample count of one matMul tile: two 4-lane SSE
// registers per output row.
const tileSamples = 8

// tile4x8Go is the portable form of tile4x8, the kernel matMul runs on every
// whole group of tileSamples samples. It computes output rows r..r+3 of
// samples 0..7 of the group:
//
//	dst[s*ldd+k] = epilogue(Σ_c w[k*n+c] * panel[c*8+s], b[k])
//
// where n = len(panel)/8, w holds the four weight rows back to back, panel
// is the group's inputs packed column-major, and b the four biases. Each
// output is one accumulator adding its products in ascending column order
// from +0, then the bias, then the clamp when relu is set — matVec's order,
// so the two agree bit for bit. The amd64 assembly computes the same
// values in the same loop order with one SIMD lane per sample; other
// architectures run this.
func tile4x8Go(dst []float32, ldd int, w, panel, b []float32, relu bool) {
	n := len(panel) / tileSamples
	var acc [4][tileSamples]float32
	for c := 0; c < n; c++ {
		p := panel[c*tileSamples : (c+1)*tileSamples]
		for k := range acc {
			q := w[k*n+c]
			for s, v := range p {
				acc[k][s] += q * v
			}
		}
	}
	for k := range acc {
		for s, a := range acc[k] {
			dst[s*ldd+k] = epilogue(a, b, k, relu)
		}
	}
}
