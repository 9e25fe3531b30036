package embedding

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func mustTable(t *testing.T, rows int64, dim int) *Table {
	t.Helper()
	tab, err := NewTable("t", rows, dim)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

// setRow writes v into row i through the Vector view.
func setRow(t *testing.T, tab *Table, i int64, v tensor.Vector) {
	t.Helper()
	row, err := tab.Vector(i)
	if err != nil {
		t.Fatal(err)
	}
	copy(row, v)
}

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable("t", 0, 4); err == nil {
		t.Fatal("want error for zero rows")
	}
	if _, err := NewTable("t", 4, 0); err == nil {
		t.Fatal("want error for zero dim")
	}
}

func TestTableSizeBytes(t *testing.T) {
	tab := mustTable(t, 100, 32)
	if got := tab.SizeBytes(); got != 100*32*4 {
		t.Fatalf("SizeBytes = %d", got)
	}
}

func TestVectorViewAndSet(t *testing.T) {
	tab := mustTable(t, 4, 2)
	setRow(t, tab, 2, tensor.Vector{1, 2})
	v, err := tab.Vector(2)
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 1 || v[1] != 2 {
		t.Fatalf("Vector(2) = %v", v)
	}
	if _, err := tab.Vector(4); !errors.Is(err, ErrIndexRange) {
		t.Fatalf("want ErrIndexRange, got %v", err)
	}
	if _, err := tab.Vector(-1); !errors.Is(err, ErrIndexRange) {
		t.Fatalf("want ErrIndexRange, got %v", err)
	}
}

func TestGatherPoolHandChecked(t *testing.T) {
	tab := mustTable(t, 3, 2)
	setRow(t, tab, 0, tensor.Vector{1, 10})
	setRow(t, tab, 1, tensor.Vector{2, 20})
	setRow(t, tab, 2, tensor.Vector{3, 30})
	dst := make(tensor.Vector, 2)
	if err := tab.GatherPool(dst, []int64{0, 2, 2}); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 7 || dst[1] != 70 {
		t.Fatalf("GatherPool = %v, want [7 70]", dst)
	}
}

func TestGatherPoolErrors(t *testing.T) {
	tab := mustTable(t, 3, 2)
	if err := tab.GatherPool(make(tensor.Vector, 3), []int64{0}); err == nil {
		t.Fatal("want dst dim error")
	}
	if err := tab.GatherPool(make(tensor.Vector, 2), []int64{3}); !errors.Is(err, ErrIndexRange) {
		t.Fatalf("want ErrIndexRange, got %v", err)
	}
}

func TestSliceSharesStorage(t *testing.T) {
	tab := mustTable(t, 10, 2)
	setRow(t, tab, 5, tensor.Vector{7, 8})
	shard, err := tab.Slice(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if shard.Rows != 4 {
		t.Fatalf("shard rows = %d", shard.Rows)
	}
	v, err := shard.Vector(1) // row 5 of parent
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != 7 || v[1] != 8 {
		t.Fatalf("shard row = %v", v)
	}
	// Mutation through the parent is visible in the shard (shared storage).
	setRow(t, tab, 5, tensor.Vector{9, 9})
	if v[0] != 9 {
		t.Fatal("Slice must share storage")
	}
}

func TestSliceValidation(t *testing.T) {
	tab := mustTable(t, 10, 2)
	for _, c := range [][2]int64{{-1, 5}, {5, 11}, {5, 5}, {6, 5}} {
		if _, err := tab.Slice(c[0], c[1]); err == nil {
			t.Fatalf("want error for slice [%d,%d)", c[0], c[1])
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	tab := mustTable(t, 2, 2)
	setRow(t, tab, 0, tensor.Vector{1, 1})
	c := tab.Clone()
	setRow(t, c, 0, tensor.Vector{5, 5})
	v, _ := tab.Vector(0)
	if v[0] != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestPermute(t *testing.T) {
	tab := mustTable(t, 3, 1)
	setRow(t, tab, 0, tensor.Vector{10})
	setRow(t, tab, 1, tensor.Vector{11})
	setRow(t, tab, 2, tensor.Vector{12})
	sorted, err := tab.Permute([]int64{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{12, 10, 11}
	for i, w := range want {
		v, _ := sorted.Vector(int64(i))
		if v[0] != w {
			t.Fatalf("sorted[%d] = %v, want %v", i, v[0], w)
		}
	}
}

func TestPermuteValidation(t *testing.T) {
	tab := mustTable(t, 3, 1)
	if _, err := tab.Permute([]int64{0, 1}); err == nil {
		t.Fatal("want length error")
	}
	if _, err := tab.Permute([]int64{0, 1, 3}); err == nil {
		t.Fatal("want range error")
	}
	if _, err := tab.Permute([]int64{0, 1, 1}); err == nil {
		t.Fatal("want duplicate error")
	}
}

func TestBatchValidate(t *testing.T) {
	good := &Batch{Indices: []int64{1, 7, 3, 4, 8}, Offsets: []int32{0, 2}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []*Batch{
		{Indices: []int64{1}, Offsets: nil},                 // indices without offsets
		{Indices: []int64{1, 2}, Offsets: []int32{1, 2}},    // first offset != 0
		{Indices: []int64{1, 2}, Offsets: []int32{0, 3}},    // offset beyond indices
		{Indices: []int64{1, 2}, Offsets: []int32{0, 2, 1}}, // decreasing
	}
	for i, b := range cases {
		if err := b.Validate(); !errors.Is(err, ErrBadBatch) {
			t.Errorf("case %d: want ErrBadBatch, got %v", i, err)
		}
	}
	empty := &Batch{}
	if err := empty.Validate(); err != nil {
		t.Fatalf("empty batch should validate: %v", err)
	}
}

func TestBatchAccessors(t *testing.T) {
	b := &Batch{Indices: []int64{1, 7, 3, 4, 8}, Offsets: []int32{0, 2}}
	if b.BatchSize() != 2 || len(b.Indices) != 5 {
		t.Fatalf("size=%d lookups=%d", b.BatchSize(), len(b.Indices))
	}
	if got := b.InputIndices(0); len(got) != 2 || got[0] != 1 || got[1] != 7 {
		t.Fatalf("input0 = %v", got)
	}
	if got := b.InputIndices(1); len(got) != 3 || got[2] != 8 {
		t.Fatalf("input1 = %v", got)
	}
}

func TestGatherPoolBatch(t *testing.T) {
	tab := mustTable(t, 4, 2)
	for i := int64(0); i < 4; i++ {
		setRow(t, tab, i, tensor.Vector{float32(i), float32(10 * i)})
	}
	b := &Batch{Indices: []int64{0, 1, 2, 3}, Offsets: []int32{0, 2}}
	out := tensor.NewMatrix(2, 2)
	if err := tab.GatherPoolBatch(out, b); err != nil {
		t.Fatal(err)
	}
	if out.Row(0)[0] != 1 || out.Row(0)[1] != 10 {
		t.Fatalf("row0 = %v", out.Row(0))
	}
	if out.Row(1)[0] != 5 || out.Row(1)[1] != 50 {
		t.Fatalf("row1 = %v", out.Row(1))
	}
	bad := tensor.NewMatrix(1, 2)
	if err := tab.GatherPoolBatch(bad, b); err == nil {
		t.Fatal("want shape error")
	}
}

// Property: pooling equals the element-wise sum of the gathered vectors.
func TestGatherPoolIsSumProperty(t *testing.T) {
	tab, err := NewRandomTable("p", 64, 8, 99)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 32 {
			raw = raw[:32]
		}
		idx := make([]int64, len(raw))
		for i, r := range raw {
			idx[i] = int64(r) % 64
		}
		pooled := make(tensor.Vector, 8)
		if tab.GatherPool(pooled, idx) != nil {
			return false
		}
		want := make([]float64, 8)
		for _, id := range idx {
			v, _ := tab.Vector(id)
			for d := range want {
				want[d] += float64(v[d])
			}
		}
		for d := range want {
			if math.Abs(want[d]-float64(pooled[d])) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: permuting a table then reading rank i equals reading perm[i]
// from the original.
func TestPermuteReadbackProperty(t *testing.T) {
	tab, err := NewRandomTable("p", 16, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	perm := []int64{3, 1, 0, 2, 7, 6, 5, 4, 12, 13, 14, 15, 8, 9, 10, 11}
	sorted, err := tab.Permute(perm)
	if err != nil {
		t.Fatal(err)
	}
	for newIdx, oldIdx := range perm {
		a, _ := sorted.Vector(int64(newIdx))
		b, _ := tab.Vector(oldIdx)
		if !tensor.AlmostEqual(a, b, 0) {
			t.Fatalf("rank %d != original %d", newIdx, oldIdx)
		}
	}
}

// naiveGatherPool is the one-row-at-a-time reference loop GatherPool's
// grouped kernel must match bit for bit: zero, then dst[i] += row[i] in
// index order.
func naiveGatherPool(tab *Table, indices []int64) []float32 {
	dst := make([]float32, tab.Dim)
	for _, idx := range indices {
		row, _ := tab.Vector(idx)
		for i, x := range row {
			dst[i] += x
		}
	}
	return dst
}

// bitExactCorpora fill a table for TestGatherPoolBitExact from a splitmix64
// stream: values spanning sixteen orders of magnitude (float32 addition is
// far from associative there), values near the ends of the float32 range,
// and IEEE specials mixed with ordinary values.
var bitExactCorpora = []struct {
	name string
	fill func(next func() uint64) float32
}{
	{"normal", func(next func() uint64) float32 { return spread(next, 17, 8) }}, // 1e-8 … 1e8
	{"wide", func(next func() uint64) float32 { return spread(next, 71, 35) }},  // 1e-35 … 1e35
	{"specials", func(next func() uint64) float32 {
		// One NaN bit pattern: the default NaN the hardware generates for
		// Inf + -Inf, which the corpus's infinities produce anyway. Which
		// payload a sum of two different NaNs keeps depends on operand
		// order, and the compiler may commute a scalar add, so a second
		// pattern would test the compiler rather than the kernel.
		inf := float32(math.Inf(1))
		specials := []float32{
			inf + -inf,
			float32(math.Inf(1)), float32(math.Inf(-1)),
			math.MaxFloat32, -math.MaxFloat32,
			math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32,
			0, float32(math.Copysign(0, -1)),
		}
		if next()%4 == 0 {
			return specials[next()%uint64(len(specials))]
		}
		return spread(next, 17, 8)
	}},
}

// spread draws ±(1…2)·10^e with e uniform in [-shift, decades-1-shift].
func spread(next func() uint64, decades, shift uint64) float32 {
	mag := math.Pow(10, float64(next()%decades)-float64(shift))
	frac := 1 + float64(next()%1000)/1000
	if next()%2 == 0 {
		mag = -mag
	}
	return float32(mag * frac)
}

// TestGatherPoolBitExact pins the order-preserving contract: for every bag
// length around the kernel's 8-row prefetch distance and a long tail, dims
// that run only the portable columns (1, 3), only the assembly chunks (32,
// 64, 96) or both in one call (100), repeated indices and every corpus, the
// kernel's output has the reference loop's exact bits — NaN included,
// compared by Float32bits like every other value. The portable kernel is
// checked over all columns as well, so the path other architectures run is
// exercised here too.
func TestGatherPoolBitExact(t *testing.T) {
	counts := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 127, 128, 129}
	const rows = 64 // far fewer rows than the long lists: indices repeat
	for _, corpus := range bitExactCorpora {
		for _, dim := range []int{1, 3, 32, 64, 96, 100} {
			tab := mustTable(t, rows, dim)
			seed := uint64(dim)
			next := func() uint64 { // splitmix64
				seed += 0x9e3779b97f4a7c15
				z := seed
				z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
				z = (z ^ (z >> 27)) * 0x94d049bb133111eb
				return z ^ (z >> 31)
			}
			for i := range tab.data {
				tab.data[i] = corpus.fill(next)
			}
			for _, n := range counts {
				indices := make([]int64, n)
				for i := range indices {
					indices[i] = int64(next() % rows)
				}
				if n >= 2 {
					indices[1] = indices[0] // an adjacent repeat
				}
				want := naiveGatherPool(tab, indices)
				for _, kernel := range []struct {
					name string
					run  func(dst []float32) error
				}{
					{"GatherPool", func(dst []float32) error { return tab.GatherPool(dst, indices) }},
					{"poolColsGo", func(dst []float32) error { poolColsGo(dst, tab.data, dim, indices); return nil }},
				} {
					got := make(tensor.Vector, dim)
					for i := range got {
						got[i] = 7 // stale contents must not leak through
					}
					if err := kernel.run(got); err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
							t.Fatalf("%s, %s corpus, dim %d, %d indices, element %d: kernel %x (%v) != reference %x (%v)",
								kernel.name, corpus.name, dim, n, i,
								math.Float32bits(got[i]), got[i], math.Float32bits(want[i]), want[i])
						}
					}
				}
			}
		}
	}
}

// A warm pooled gather at the served geometry (dim 64, bags of 128)
// allocates nothing: validation, the kernel and the output rows all work
// in place.
func TestGatherPoolBatchZeroAllocs(t *testing.T) {
	const bags, bag = 4, 128
	tab, err := NewRandomTable("t", 10_000, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	b := &Batch{Indices: make([]int64, bags*bag), Offsets: make([]int32, bags)}
	for i := range b.Indices {
		b.Indices[i] = int64(i*7919) % tab.Rows
	}
	for i := range b.Offsets {
		b.Offsets[i] = int32(i * bag)
	}
	out := tensor.NewMatrix(bags, tab.Dim)
	if allocs := testing.AllocsPerRun(100, func() {
		if err := tab.GatherPoolBatch(out, b); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("warm GatherPoolBatch allocated %.1f times per call, want 0", allocs)
	}
}

// A failed gather must not have written dst: every index is range-checked
// before the first accumulate, wherever the bad one sits.
func TestGatherPoolValidatesBeforeWriting(t *testing.T) {
	tab := mustTable(t, 8, 2)
	for _, indices := range [][]int64{{8, 1, 2, 3, 4}, {0, 1, -1, 3, 4}, {0, 1, 2, 3, 8}} {
		dst := tensor.Vector{7, 7}
		if err := tab.GatherPool(dst, indices); !errors.Is(err, ErrIndexRange) {
			t.Fatalf("indices %v: want ErrIndexRange, got %v", indices, err)
		}
		if dst[0] != 7 || dst[1] != 7 {
			t.Fatalf("indices %v: failed gather wrote dst = %v", indices, dst)
		}
		out := tensor.NewMatrix(2, 2)
		out.Data[0], out.Data[3] = 7, 7
		b := &Batch{Indices: indices, Offsets: []int32{0, 2}}
		if err := tab.GatherPoolBatch(out, b); !errors.Is(err, ErrIndexRange) {
			t.Fatalf("batch %v: want ErrIndexRange, got %v", indices, err)
		}
		if out.Data[0] != 7 || out.Data[3] != 7 {
			t.Fatalf("batch %v: failed gather wrote out = %v", indices, out.Data)
		}
	}
}
