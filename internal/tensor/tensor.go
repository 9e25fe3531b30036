// Package tensor provides the minimal float32 linear-algebra substrate used
// by the DLRM model: dense vectors, row-major matrices, matrix-vector and
// matrix-matrix products, and the element-wise activations DLRM needs.
//
// The package is deliberately small and allocation-conscious: all hot-path
// routines accept destination slices so the serving engine can reuse
// buffers across queries.
package tensor

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("tensor: shape mismatch")

// Vector is a dense float32 vector.
type Vector []float32

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols
}

// NewMatrix allocates a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// Row returns a view (not a copy) of row r.
func (m *Matrix) Row(r int) Vector { return Vector(m.Data[r*m.Cols : (r+1)*m.Cols]) }

// Clone returns a deep copy of the matrix.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MatVec computes dst = m * x for an m of shape (Rows x Cols) and x of
// length Cols. dst must have length Rows. It returns ErrShape on mismatch.
func MatVec(dst Vector, m *Matrix, x Vector) error {
	if err := checkMatVec(dst, m, x); err != nil {
		return err
	}
	matVec(dst, m, x, nil, false)
	return nil
}

// MatVecBias computes dst = m*x + b. b must have length m.Rows.
func MatVecBias(dst Vector, m *Matrix, x, b Vector) error {
	if err := checkMatVecBias(dst, m, x, b); err != nil {
		return err
	}
	matVec(dst, m, x, b, false)
	return nil
}

// MatVecBiasReLU computes dst = max(0, m*x + b): a fully-connected layer
// and its activation in one pass over dst.
func MatVecBiasReLU(dst Vector, m *Matrix, x, b Vector) error {
	if err := checkMatVecBias(dst, m, x, b); err != nil {
		return err
	}
	matVec(dst, m, x, b, true)
	return nil
}

func checkMatVec(dst Vector, m *Matrix, x Vector) error {
	if len(x) != m.Cols || len(dst) != m.Rows {
		return fmt.Errorf("%w: matvec (%dx%d)*(%d)->(%d)", ErrShape, m.Rows, m.Cols, len(x), len(dst))
	}
	return nil
}

func checkMatVecBias(dst Vector, m *Matrix, x, b Vector) error {
	if len(b) != m.Rows {
		return fmt.Errorf("%w: bias length %d for %d rows", ErrShape, len(b), m.Rows)
	}
	return checkMatVec(dst, m, x)
}

// matVec is the dense kernel behind every MatVec* entry point; shapes are
// already checked. It walks four output rows at a time against the one
// input vector: four independent accumulators hide the FP-add latency a
// single running sum serialises on, and re-slicing each weight row to
// len(x) lets the compiler drop the per-element bounds checks. Every
// output is still ONE accumulator adding its products in ascending column
// order with a separate multiply and add, so results are bit-identical to
// the one-row-at-a-time loop.
func matVec(dst Vector, m *Matrix, x, b Vector, relu bool) {
	n := len(x)
	r := 0
	for ; r+4 <= len(dst); r += 4 {
		w0 := m.Data[r*n:][:n]
		w1 := m.Data[(r+1)*n:][:n]
		w2 := m.Data[(r+2)*n:][:n]
		w3 := m.Data[(r+3)*n:][:n]
		var a0, a1, a2, a3 float32
		for c, q := range x {
			a0 += w0[c] * q
			a1 += w1[c] * q
			a2 += w2[c] * q
			a3 += w3[c] * q
		}
		dst[r] = epilogue(a0, b, r, relu)
		dst[r+1] = epilogue(a1, b, r+1, relu)
		dst[r+2] = epilogue(a2, b, r+2, relu)
		dst[r+3] = epilogue(a3, b, r+3, relu)
	}
	matVecRows(dst, m, x, b, relu, r)
}

// matVecRows computes output rows [r, len(dst)) one at a time, in the
// order and rounding of matVec's 4-row loop: the rows no 4-row group
// covers.
func matVecRows(dst Vector, m *Matrix, x, b Vector, relu bool, r int) {
	n := len(x)
	for ; r < len(dst); r++ {
		w := m.Data[r*n:][:n]
		var a float32
		for c, q := range x {
			a += w[c] * q
		}
		dst[r] = epilogue(a, b, r, relu)
	}
}

// MatMulBias computes a fully-connected layer over a batch: every row of
// dst is m times the same row of x, plus b. x is (batch x m.Cols), dst is
// (batch x m.Rows) and must not overlap x, b has length m.Rows. Each
// output is bit-identical to MatVecBias on that row of x.
func MatMulBias(dst, m, x *Matrix, b Vector) error {
	if err := checkMatMul(dst, m, x, b); err != nil {
		return err
	}
	matMul(dst, m, x, b, false)
	return nil
}

// MatMulBiasReLU is MatMulBias followed by max(0, ·), row for row
// bit-identical to MatVecBiasReLU.
func MatMulBiasReLU(dst, m, x *Matrix, b Vector) error {
	if err := checkMatMul(dst, m, x, b); err != nil {
		return err
	}
	matMul(dst, m, x, b, true)
	return nil
}

// checkMatMul also holds every Data length to its shape: the assembly tile
// has no bounds checks of its own.
func checkMatMul(dst, m, x *Matrix, b Vector) error {
	for _, a := range []*Matrix{dst, m, x} {
		if a.Rows < 0 || a.Cols < 0 || len(a.Data) != a.Rows*a.Cols {
			return fmt.Errorf("%w: %dx%d matrix holds %d values", ErrShape, a.Rows, a.Cols, len(a.Data))
		}
	}
	if x.Cols != m.Cols || dst.Cols != m.Rows || dst.Rows != x.Rows || len(b) != m.Rows {
		return fmt.Errorf("%w: matmul (%dx%d)*(%dx%d)^T+(%d)->(%dx%d)", ErrShape,
			x.Rows, x.Cols, m.Rows, m.Cols, len(b), dst.Rows, dst.Cols)
	}
	return nil
}

// panels recycles matMul's packed sample panels across calls.
var panels = sync.Pool{New: func() any { return new([]float32) }}

// matMul is the batched kernel behind MatMulBias*; shapes are already
// checked and b is non-nil. Whole groups of tileSamples samples go through
// tile4x8: the group's inputs are packed once into a column-major panel
// (panel[c*tileSamples+s] = x[s][c]), which every 4-row tile then streams
// with one sample per SIMD lane. Lanes are samples rather than output rows
// because then each lane is one output's own accumulator, so no lane ever
// has to be summed with or shuffled into another: every output still adds
// its products in ascending column order from +0 with a separate multiply
// and add, exactly as matVec does. Output rows past the last multiple of 4
// take matVecRows per sample, and samples past the last whole group take
// matVec, so a batch of one runs exactly the single-sample kernel.
func matMul(dst, m, x *Matrix, b Vector, relu bool) {
	n, rows, bs := m.Cols, m.Rows, x.Rows
	i := 0
	if rows >= 4 && bs >= tileSamples {
		p := panels.Get().(*[]float32)
		if cap(*p) < tileSamples*n {
			*p = make([]float32, tileSamples*n)
		}
		panel := (*p)[:tileSamples*n]
		r4 := rows &^ 3
		for ; i+tileSamples <= bs; i += tileSamples {
			for s := 0; s < tileSamples; s++ {
				for c, v := range x.Data[(i+s)*n:][:n] {
					panel[c*tileSamples+s] = v
				}
			}
			for r := 0; r < r4; r += 4 {
				tile4x8(dst.Data[i*rows+r:(i+tileSamples-1)*rows+r+4], rows, m.Data[r*n:(r+4)*n], panel, b[r:r+4], relu)
			}
			for s := i; s < i+tileSamples; s++ {
				matVecRows(dst.Row(s), m, x.Row(s), b, relu, r4)
			}
		}
		panels.Put(p)
	}
	for ; i < bs; i++ {
		matVec(dst.Row(i), m, x.Row(i), b, relu)
	}
}

// epilogue finishes output row r while its sum is still in a register:
// the bias unless b is nil, then the clamp. relu tests a < 0, so NaN and
// +Inf pass through unchanged.
func epilogue(a float32, b Vector, r int, relu bool) float32 {
	if b != nil {
		a += b[r]
	}
	if relu && a < 0 {
		a = 0
	}
	return a
}

// Dot returns the inner product of a and b, which must share a length.
func Dot(a, b Vector) (float32, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("%w: dot %d vs %d", ErrShape, len(a), len(b))
	}
	var acc float32
	for i := range a {
		acc += a[i] * b[i]
	}
	return acc, nil
}

// Add accumulates src into dst element-wise. Lengths must match.
func Add(dst, src Vector) error {
	if len(dst) != len(src) {
		return fmt.Errorf("%w: add %d vs %d", ErrShape, len(dst), len(src))
	}
	for i := range src {
		dst[i] += src[i]
	}
	return nil
}

// Scale multiplies every element of v by s in place.
func Scale(v Vector, s float32) {
	for i := range v {
		v[i] *= s
	}
}

// Sigmoid applies the logistic function element-wise in place.
func Sigmoid(v Vector) {
	for i, x := range v {
		v[i] = float32(1.0 / (1.0 + math.Exp(-float64(x))))
	}
}

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// AlmostEqual reports whether a and b are element-wise equal within eps.
func AlmostEqual(a, b Vector, eps float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(float64(a[i])-float64(b[i])) > eps {
			return false
		}
	}
	return true
}

// rng is a tiny deterministic splitmix64 generator so model initialisation
// is reproducible without pulling in math/rand state management. It is
// unexported; consumers seed it through the Init* helpers.
type rng struct{ state uint64 }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 in [0,1).
func (r *rng) float64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// InitXavier fills m with deterministic pseudo-random weights drawn from a
// uniform distribution scaled by sqrt(6/(fanIn+fanOut)) — the standard
// Glorot/Xavier initialisation — using seed for reproducibility.
func InitXavier(m *Matrix, seed uint64) {
	r := rng{state: seed}
	limit := math.Sqrt(6.0 / float64(m.Rows+m.Cols))
	for i := range m.Data {
		m.Data[i] = float32((r.float64()*2 - 1) * limit)
	}
}

// InitUniform fills v with deterministic pseudo-random values in
// [-limit, limit) using seed.
func InitUniform(v Vector, limit float64, seed uint64) {
	r := rng{state: seed}
	for i := range v {
		v[i] = float32((r.float64()*2 - 1) * limit)
	}
}
