package tensor

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestNewMatrixShape(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("unexpected geometry: %+v", m)
	}
}

// TestMatrixAtSetRow: element reads and writes go through Row views and
// row-major Data offsets, which must address the same storage.
func TestMatrixAtSetRow(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Data[1*3+2] = 5
	row := m.Row(1)
	if len(row) != 3 || row[2] != 5 {
		t.Fatalf("Row(1)=%v", row)
	}
	// Row is a view: mutating it mutates the matrix.
	row[0] = 7
	if m.Data[1*3+0] != 7 {
		t.Fatal("Row should alias matrix storage")
	}
}

func TestMatrixClone(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Row(0)[0] = 1
	c := m.Clone()
	c.Row(0)[0] = 9
	if m.Row(0)[0] != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestMatVecHandChecked(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float32{1, 2, 3, 4, 5, 6})
	x := Vector{1, 0, -1}
	dst := make(Vector, 2)
	if err := MatVec(dst, m, x); err != nil {
		t.Fatal(err)
	}
	if dst[0] != -2 || dst[1] != -2 {
		t.Fatalf("MatVec = %v, want [-2 -2]", dst)
	}
}

func TestMatVecBias(t *testing.T) {
	m := NewMatrix(2, 2)
	copy(m.Data, []float32{1, 0, 0, 1})
	dst := make(Vector, 2)
	if err := MatVecBias(dst, m, Vector{3, 4}, Vector{10, 20}); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 13 || dst[1] != 24 {
		t.Fatalf("MatVecBias = %v", dst)
	}
	if err := MatVecBias(dst, m, Vector{3, 4}, Vector{10}); err == nil {
		t.Fatal("want bias shape error")
	}
}

func TestDot(t *testing.T) {
	got, err := Dot(Vector{1, 2, 3}, Vector{4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	if _, err := Dot(Vector{1}, Vector{1, 2}); err == nil {
		t.Fatal("want length error")
	}
}

func TestAddScaleZero(t *testing.T) {
	v := Vector{1, 2}
	if err := Add(v, Vector{3, 4}); err != nil {
		t.Fatal(err)
	}
	if v[0] != 4 || v[1] != 6 {
		t.Fatalf("Add = %v", v)
	}
	Scale(v, 0.5)
	if v[0] != 2 || v[1] != 3 {
		t.Fatalf("Scale = %v", v)
	}
	if err := Add(v, Vector{1}); err == nil {
		t.Fatal("want length error")
	}
}

// refMatVec is the one-accumulator, one-row-at-a-time loop MatVec was
// before the 4-row kernel. It is kept here, sharing no code with the
// kernel, as the reference the kernel must match bit for bit.
func refMatVec(dst Vector, m *Matrix, x Vector) {
	for r := 0; r < m.Rows; r++ {
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		var acc float32
		for c, w := range row {
			acc += w * x[c]
		}
		dst[r] = acc
	}
}

// refReLU is the separate activation sweep the fused epilogue replaced.
func refReLU(v Vector) {
	for i, x := range v {
		if x < 0 {
			v[i] = 0
		}
	}
}

// sameBits demands Float32bits equality, except that any NaN equals any
// NaN: which payload survives NaN+NaN depends on the operand order the
// compiler picks for a commutative add, not on the summation order.
func sameBits(a, b float32) bool {
	if a != a && b != b {
		return true
	}
	return math.Float32bits(a) == math.Float32bits(b)
}

// matVecSpecials are sprinkled into weights, inputs and biases so sums
// overflow to +-Inf, cancel to NaN (Inf-Inf), underflow through denormals,
// and meet signed zeros — the values the ReLU predicate must not mangle.
var matVecSpecials = []float32{
	float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	float32(math.Copysign(0, -1)), 0,
	math.Float32frombits(1), math.Float32frombits(0x80000001), // +-smallest denormal
	math.MaxFloat32, -math.MaxFloat32, 1e-30, -1e-30,
}

// fillMatVecCase builds one (m, x, b) input. Variant 0 is plain random
// data; 1 plants one special per weight row and bias entry (so different
// rows take different paths through the epilogue); 2 scales everything so
// sums overflow; 3 scales everything so products are denormal or underflow.
func fillMatVecCase(rows, cols, variant int) (*Matrix, Vector, Vector) {
	seed := uint64(rows*1000+cols)*4 + uint64(variant)
	m, x, b := NewMatrix(rows, cols), make(Vector, cols), make(Vector, rows)
	InitUniform(m.Data, 1, seed)
	InitUniform(x, 1, seed+1)
	InitUniform(b, 1, seed+2)
	switch variant {
	case 1:
		for r := 0; r < rows; r++ {
			m.Row(r)[(r*7)%cols] = matVecSpecials[r%len(matVecSpecials)]
			b[r] = matVecSpecials[(r+1)%len(matVecSpecials)]
		}
	case 2:
		Scale(m.Data, 1e25)
		Scale(x, 1e25)
	case 3:
		Scale(m.Data, 1e-20)
		Scale(x, 1e-20)
		Scale(b, 1e-44)
	}
	return m, x, b
}

func TestMatVecBitExact(t *testing.T) {
	seen := map[string]bool{}
	for _, rows := range []int{1, 2, 3, 4, 5, 7, 8, 64, 256} {
		for _, cols := range []int{1, 13, 42, 256} {
			for variant := 0; variant < 4; variant++ {
				m, x, b := fillMatVecCase(rows, cols, variant)
				want, got := make(Vector, rows), make(Vector, rows)
				check := func(name string) {
					t.Helper()
					for r := range want {
						if !sameBits(got[r], want[r]) {
							t.Fatalf("%s %dx%d variant %d row %d: got %v (%#08x), want %v (%#08x)", name, rows, cols, variant,
								r, got[r], math.Float32bits(got[r]), want[r], math.Float32bits(want[r]))
						}
					}
				}

				refMatVec(want, m, x)
				if err := MatVec(got, m, x); err != nil {
					t.Fatal(err)
				}
				check("MatVec")

				if err := Add(want, b); err != nil { // the old separate bias pass
					t.Fatal(err)
				}
				if err := MatVecBias(got, m, x, b); err != nil {
					t.Fatal(err)
				}
				check("MatVecBias")

				for _, v := range want {
					switch {
					case v != v:
						seen["NaN"] = true
					case math.IsInf(float64(v), 1):
						seen["+Inf"] = true
					case math.IsInf(float64(v), -1):
						seen["-Inf"] = true
					case v != 0 && math.Abs(float64(v)) < 1e-38:
						seen["denormal"] = true
					case v == 0:
						seen["zero"] = true
					}
				}
				refReLU(want)
				if err := MatVecBiasReLU(got, m, x, b); err != nil {
					t.Fatal(err)
				}
				check("MatVecBiasReLU")
			}
		}
	}
	// The corpus must actually drive the epilogue through every special
	// class, or the equalities above prove less than they claim.
	for _, class := range []string{"NaN", "+Inf", "-Inf", "denormal", "zero"} {
		if !seen[class] {
			t.Errorf("no pre-activation output was %s: the special-value corpus is too tame", class)
		}
	}
}

// fillMatMulCase extends fillMatVecCase's (m, x, b) to a batch of bs input
// rows: row 0 is the single-sample case's x, later rows are drawn fresh and
// scaled like it, and variant 1 also plants a different special in each
// row, so neighbouring lanes of one tile take different paths.
func fillMatMulCase(rows, cols, bs, variant int) (*Matrix, *Matrix, Vector) {
	m, x0, b := fillMatVecCase(rows, cols, variant)
	x := NewMatrix(bs, cols)
	copy(x.Data, x0)
	for s := 1; s < bs; s++ {
		row := x.Row(s)
		InitUniform(row, 1, uint64(rows*1000+cols)*4+uint64(variant)+uint64(s)*7919)
		switch variant {
		case 1:
			row[(s*5)%cols] = matVecSpecials[s%len(matVecSpecials)]
		case 2:
			Scale(row, 1e25)
		case 3:
			Scale(row, 1e-20)
		}
	}
	return m, x, b
}

// TestMatMulBitExact holds the batched kernel, and each tile on its own,
// to the one-row reference per sample: every shape class matMul handles
// (tile groups, leftover samples, leftover rows, rows < 4) across the
// special-value corpora, with and without the clamp.
func TestMatMulBitExact(t *testing.T) {
	seen := map[string]bool{}
	tiles := map[string]func(dst []float32, ldd int, w, panel, b []float32, relu bool){
		"tile4x8": tile4x8, "tile4x8Go": tile4x8Go,
	}
	for _, rows := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 64, 256} {
		for _, cols := range []int{1, 3, 13, 42, 256} {
			for _, bs := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 32, 33, 64} {
				for variant := 0; variant < 4; variant++ {
					m, x, b := fillMatMulCase(rows, cols, bs, variant)
					want := NewMatrix(bs, rows)
					for s := 0; s < bs; s++ {
						w := want.Row(s)
						refMatVec(w, m, x.Row(s))
						if err := Add(w, b); err != nil {
							t.Fatal(err)
						}
					}
					for _, v := range want.Data {
						switch {
						case v != v:
							seen["NaN"] = true
						case math.IsInf(float64(v), 0):
							seen["Inf"] = true
						case v != 0 && math.Abs(float64(v)) < 1e-38:
							seen["denormal"] = true
						}
					}
					for _, relu := range []bool{false, true} {
						if relu {
							refReLU(want.Data)
						}
						check := func(name string, s, r int, got float32) {
							if exp := want.Row(s)[r]; !sameBits(got, exp) {
								t.Fatalf("%s %dx%d bs %d variant %d relu %v sample %d row %d: got %v (%#08x), want %v (%#08x)",
									name, rows, cols, bs, variant, relu, s, r, got, math.Float32bits(got), exp, math.Float32bits(exp))
							}
						}

						got := NewMatrix(bs, rows)
						mm := MatMulBias
						if relu {
							mm = MatMulBiasReLU
						}
						if err := mm(got, m, x, b); err != nil {
							t.Fatal(err)
						}
						for s := 0; s < bs; s++ {
							for r := 0; r < rows; r++ {
								check("matMul", s, r, got.Row(s)[r])
							}
						}

						// Each tile alone, on every whole group and row quad.
						panel := make([]float32, tileSamples*cols)
						out := make([]float32, tileSamples*4)
						for i := 0; i+tileSamples <= bs; i += tileSamples {
							for s := 0; s < tileSamples; s++ {
								for c := 0; c < cols; c++ {
									panel[c*tileSamples+s] = x.Row(i + s)[c]
								}
							}
							for r := 0; r+4 <= rows; r += 4 {
								for name, tile := range tiles {
									tile(out, 4, m.Data[r*cols:(r+4)*cols], panel, b[r:r+4], relu)
									for s := 0; s < tileSamples; s++ {
										for k := 0; k < 4; k++ {
											check(name, i+s, r+k, out[s*4+k])
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	for _, class := range []string{"NaN", "Inf", "denormal"} {
		if !seen[class] {
			t.Errorf("no pre-activation output was %s: the special-value corpus is too tame", class)
		}
	}
}

// MatMul checks every shape, Data lengths included — the assembly tile
// trusts them — and writes nothing on a mismatch.
func TestMatMulShapeErrorsWriteNothing(t *testing.T) {
	m, x, b := NewMatrix(5, 3), NewMatrix(8, 3), make(Vector, 5)
	view := func(rows, cols int, data []float32) *Matrix { return &Matrix{Rows: rows, Cols: cols, Data: data} }
	cases := map[string]func(dst *Matrix) error{
		"x cols":     func(dst *Matrix) error { return MatMulBias(dst, m, NewMatrix(8, 4), b) },
		"x rows":     func(dst *Matrix) error { return MatMulBias(dst, m, NewMatrix(9, 3), b) },
		"bias":       func(dst *Matrix) error { return MatMulBiasReLU(dst, m, x, make(Vector, 4)) },
		"short x":    func(dst *Matrix) error { return MatMulBias(dst, m, view(8, 3, x.Data[:23]), b) },
		"short m":    func(dst *Matrix) error { return MatMulBiasReLU(dst, view(5, 3, m.Data[:14]), x, b) },
		"long dst":   func(dst *Matrix) error { return MatMulBias(view(7, 5, dst.Data), m, x, b) },
		"short dst":  func(dst *Matrix) error { return MatMulBias(view(8, 5, dst.Data[:39]), m, x, b) },
		"negative m": func(dst *Matrix) error { return MatMulBias(dst, view(-5, -3, m.Data), x, b) },
	}
	for name, call := range cases {
		dst := NewMatrix(8, 5)
		for i := range dst.Data {
			dst.Data[i] = 42
		}
		if err := call(dst); !errors.Is(err, ErrShape) {
			t.Errorf("%s: err = %v, want ErrShape", name, err)
		}
		for i, v := range dst.Data {
			if v != 42 {
				t.Errorf("%s: dst[%d] written (%v) on a shape error", name, i, v)
			}
		}
	}
}

// The fused epilogue keeps the contract of the ReLU sweep it replaced:
// negatives (and -Inf) clamp to +0, everything the predicate x < 0 rejects
// passes through, NaN included. A one-column matrix times x = {1} makes
// each weight the pre-activation value. (A -0 weight arrives as +0: the
// accumulator starts at +0 and +0 + -0 = +0, so no MatVec output is -0.)
func TestMatVecBiasReLUEpilogue(t *testing.T) {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	pre := Vector{-1, 0, 2, float32(math.Copysign(0, -1)), nan, inf, -inf, math.Float32frombits(0x80000001), math.Float32frombits(1)}
	want := Vector{0, 0, 2, 0, nan, inf, 0, 0, math.Float32frombits(1)}
	m := &Matrix{Rows: len(pre), Cols: 1, Data: pre}
	got := make(Vector, len(pre))
	if err := MatVecBiasReLU(got, m, Vector{1}, make(Vector, len(pre))); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Errorf("relu(%v) = %v (%#08x), want %v", pre[i], got[i], math.Float32bits(got[i]), want[i])
		}
	}
}

func TestMatVecShapeErrorsWriteNothing(t *testing.T) {
	m := NewMatrix(5, 3)
	InitUniform(m.Data, 1, 1)
	fresh := func(n int) Vector {
		v := make(Vector, n)
		for i := range v {
			v[i] = 42
		}
		return v
	}
	cases := []struct {
		name         string
		dst, x, bias int
	}{{"short x", 5, 2, 5}, {"long x", 5, 4, 5}, {"short dst", 4, 3, 5}, {"long dst", 6, 3, 5}, {"short bias", 5, 3, 4}, {"long bias", 5, 3, 6}}
	for _, c := range cases {
		x, b := make(Vector, c.x), make(Vector, c.bias)
		calls := map[string]func(dst Vector) error{
			"MatVecBias":     func(dst Vector) error { return MatVecBias(dst, m, x, b) },
			"MatVecBiasReLU": func(dst Vector) error { return MatVecBiasReLU(dst, m, x, b) },
		}
		if c.bias == m.Rows {
			calls["MatVec"] = func(dst Vector) error { return MatVec(dst, m, x) }
		}
		for name, call := range calls {
			dst := fresh(c.dst)
			if err := call(dst); !errors.Is(err, ErrShape) {
				t.Errorf("%s, %s: err = %v, want ErrShape", name, c.name, err)
			}
			for i, v := range dst {
				if v != 42 {
					t.Errorf("%s, %s: dst[%d] written (%v) on a shape error", name, c.name, i, v)
				}
			}
		}
	}
}

func TestSigmoid(t *testing.T) {
	v := Vector{0}
	Sigmoid(v)
	if math.Abs(float64(v[0])-0.5) > 1e-6 {
		t.Fatalf("Sigmoid(0) = %v, want 0.5", v[0])
	}
	v = Vector{100, -100}
	Sigmoid(v)
	if v[0] < 0.999 || v[1] > 0.001 {
		t.Fatalf("Sigmoid saturation = %v", v)
	}
}

func TestVectorCloneIndependent(t *testing.T) {
	v := Vector{1, 2}
	c := v.Clone()
	c[0] = 9
	if v[0] != 1 {
		t.Fatal("Clone must copy")
	}
}

func TestAlmostEqual(t *testing.T) {
	if !AlmostEqual(Vector{1, 2}, Vector{1.0000001, 2}, 1e-3) {
		t.Fatal("want equal within eps")
	}
	if AlmostEqual(Vector{1}, Vector{1, 2}, 1) {
		t.Fatal("length mismatch must be unequal")
	}
	if AlmostEqual(Vector{1}, Vector{2}, 0.5) {
		t.Fatal("difference beyond eps must be unequal")
	}
}

func TestInitXavierDeterministicAndBounded(t *testing.T) {
	a := NewMatrix(8, 8)
	b := NewMatrix(8, 8)
	InitXavier(a, 42)
	InitXavier(b, 42)
	limit := math.Sqrt(6.0 / 16)
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("same seed must reproduce weights")
		}
		if math.Abs(float64(a.Data[i])) > limit {
			t.Fatalf("weight %v exceeds Xavier limit %v", a.Data[i], limit)
		}
	}
	c := NewMatrix(8, 8)
	InitXavier(c, 43)
	same := true
	for i := range a.Data {
		if a.Data[i] != c.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds should differ")
	}
}

func TestInitUniformBounded(t *testing.T) {
	v := make(Vector, 100)
	InitUniform(v, 0.05, 7)
	for _, x := range v {
		if math.Abs(float64(x)) > 0.05 {
			t.Fatalf("value %v outside limit", x)
		}
	}
}

// Property: MatVec is linear — M(ax + by) == a*Mx + b*My.
func TestMatVecLinearityProperty(t *testing.T) {
	f := func(seed uint64, a8, b8 int8) bool {
		m := NewMatrix(4, 5)
		InitXavier(m, seed)
		x := make(Vector, 5)
		y := make(Vector, 5)
		InitUniform(x, 1, seed^1)
		InitUniform(y, 1, seed^2)
		a, b := float32(a8)/16, float32(b8)/16
		comb := make(Vector, 5)
		for i := range comb {
			comb[i] = a*x[i] + b*y[i]
		}
		var mx, my, mc Vector = make(Vector, 4), make(Vector, 4), make(Vector, 4)
		if MatVec(mx, m, x) != nil || MatVec(my, m, y) != nil || MatVec(mc, m, comb) != nil {
			return false
		}
		for i := range mc {
			want := a*mx[i] + b*my[i]
			if math.Abs(float64(mc[i]-want)) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot is symmetric.
func TestDotSymmetryProperty(t *testing.T) {
	f := func(seed uint64) bool {
		x := make(Vector, 16)
		y := make(Vector, 16)
		InitUniform(x, 2, seed)
		InitUniform(y, 2, seed^0xff)
		xy, _ := Dot(x, y)
		yx, _ := Dot(y, x)
		return xy == yx
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
