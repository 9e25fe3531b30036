package tensor

// tile4x8 is tile4x8Go in SSE2 assembly (tile_amd64.s). SSE2 is part of the
// amd64 baseline, so it needs no CPU feature check.
//
//go:noescape
func tile4x8(dst []float32, ldd int, w, panel, b []float32, relu bool)
