// Package embedding implements the sparse-feature substrate of DLRM: the
// embedding tables, multi-hot gather + sum-pooling lookups, per-row access
// statistics, the one-time hotness sort the paper performs before
// partitioning (Fig. 8), and the access-frequency CDF consumed by the
// deployment-cost estimator (Algorithm 1).
package embedding

import (
	"errors"
	"fmt"

	"repro/internal/tensor"
)

// BytesPerElement is the storage cost of one embedding element (float32).
const BytesPerElement = 4

var (
	// ErrIndexRange is returned when a lookup index falls outside a table.
	ErrIndexRange = errors.New("embedding: index out of range")
	// ErrBadBatch is returned for malformed index/offset batches.
	ErrBadBatch = errors.New("embedding: malformed batch")
)

// Table is a dense embedding table: Rows vectors of dimension Dim stored in
// one contiguous float32 backing array. The paper's tables hold up to 20M
// rows of dimension 32 (~2.5 GB each); tests and the live serving engine use
// smaller geometries while the cost model performs exact arithmetic on the
// full paper geometry.
type Table struct {
	Name string
	Rows int64
	Dim  int
	data []float32
}

// NewTable allocates a zeroed table.
func NewTable(name string, rows int64, dim int) (*Table, error) {
	if rows <= 0 || dim <= 0 {
		return nil, fmt.Errorf("embedding: invalid geometry rows=%d dim=%d", rows, dim)
	}
	return &Table{Name: name, Rows: rows, Dim: dim, data: make([]float32, rows*int64(dim))}, nil
}

// NewRandomTable allocates a table with deterministic pseudo-random values
// in [-0.05, 0.05), seeded so serving tests are reproducible.
func NewRandomTable(name string, rows int64, dim int, seed uint64) (*Table, error) {
	t, err := NewTable(name, rows, dim)
	if err != nil {
		return nil, err
	}
	tensor.InitUniform(t.data, 0.05, seed)
	return t, nil
}

// SizeBytes returns the parameter footprint in bytes.
func (t *Table) SizeBytes() int64 { return t.Rows * int64(t.Dim) * BytesPerElement }

// Vector returns a view of row i (no copy).
func (t *Table) Vector(i int64) (tensor.Vector, error) {
	if i < 0 || i >= t.Rows {
		return nil, fmt.Errorf("%w: row %d of %d in table %q", ErrIndexRange, i, t.Rows, t.Name)
	}
	off := i * int64(t.Dim)
	return tensor.Vector(t.data[off : off+int64(t.Dim)]), nil
}

// Slice returns a new Table containing rows [lo, hi) of t. The returned
// table shares the backing storage with t (a shard view, not a copy), which
// mirrors how a shard container holds a contiguous range of a sorted table.
func (t *Table) Slice(lo, hi int64) (*Table, error) {
	if lo < 0 || hi > t.Rows || lo >= hi {
		return nil, fmt.Errorf("embedding: bad slice [%d,%d) of %d rows", lo, hi, t.Rows)
	}
	return &Table{
		Name: fmt.Sprintf("%s[%d:%d)", t.Name, lo, hi),
		Rows: hi - lo,
		Dim:  t.Dim,
		data: t.data[lo*int64(t.Dim) : hi*int64(t.Dim)],
	}, nil
}

// Clone returns a deep copy of the table (a replica's private parameters).
func (t *Table) Clone() *Table {
	out := &Table{Name: t.Name, Rows: t.Rows, Dim: t.Dim, data: make([]float32, len(t.data))}
	copy(out.data, t.data)
	return out
}

// GatherPool gathers the rows named by indices and sum-pools them into dst,
// which must have length Dim. This is the embedding-layer operator: for a
// pooling factor of n, n rows are read and reduced with element-wise
// addition (Sec. II-A). Every index is range-checked before dst is
// written, so a failed call leaves dst untouched.
func (t *Table) GatherPool(dst tensor.Vector, indices []int64) error {
	if len(dst) != t.Dim {
		return fmt.Errorf("embedding: dst dim %d != table dim %d", len(dst), t.Dim)
	}
	if err := t.checkIndices(indices); err != nil {
		return err
	}
	t.pool(dst, indices)
	return nil
}

// checkIndices range-checks a lookup list against the table.
func (t *Table) checkIndices(indices []int64) error {
	for _, idx := range indices {
		if idx < 0 || idx >= t.Rows {
			return fmt.Errorf("%w: row %d of %d in table %q", ErrIndexRange, idx, t.Rows, t.Name)
		}
	}
	return nil
}

// pool is the gather-and-pool kernel over already-validated indices
// (len(dst) == Dim). It holds a bag's sum in registers: each column has one
// accumulator that starts from +0 and adds the rows in index order, and dst
// is written once at the end. The first Dim&^31 columns run poolCols32 —
// SSE2 on amd64, 32 columns per pass with the row 8 positions ahead
// prefetched — and the rest run poolColsGo. Every element's add order is
// the one-row-at-a-time loop's, so the result is that loop's bit for bit,
// and dst's old contents are never read. GatherPool, GatherPoolBatch and
// every caller of theirs (the monolith oracle, the pooled shard gather)
// pool through this one function.
func (t *Table) pool(dst []float32, indices []int64) {
	dim := len(dst)
	c := dim &^ (poolChunk - 1)
	if c > 0 {
		poolCols32(dst[:c], t.data, dim, indices)
	}
	if c < dim {
		poolColsGo(dst[c:], t.data[c:], dim, indices)
	}
}

// AddRows4 adds four rows into dst element-wise: dst[j] = (((dst[j] + r0[j])
// + r1[j]) + r2[j]) + r3[j]. The float32 additions happen in exactly that
// order — the order of four consecutive AddRow calls — so regrouping a
// sum-pool into AddRows4 steps never changes a bit of the result. It is the
// rows-mode merge kernel: serving's predictRows adds the fetched rows of a
// bag through it, by slot. Every row must be at least len(dst) long.
func AddRows4(dst, r0, r1, r2, r3 []float32) {
	n := len(dst)
	r0, r1, r2, r3 = r0[:n], r1[:n], r2[:n], r3[:n]
	for j := range dst {
		d := dst[j]
		d += r0[j]
		d += r1[j]
		d += r2[j]
		d += r3[j]
		dst[j] = d
	}
}

// AddRow adds one row into dst element-wise (the tail step of AddRows4
// grouping in the rows-mode merge). r must be at least len(dst) long.
func AddRow(dst, r []float32) {
	r = r[:len(dst)]
	for j := range dst {
		dst[j] += r[j]
	}
}

// Permute returns a new table whose row i is t.Row(perm[i]); perm must be a
// permutation of [0, Rows). This implements the hotness sort of Fig. 8(b):
// after sorting, row 0 is the hottest embedding.
func (t *Table) Permute(perm []int64) (*Table, error) {
	if int64(len(perm)) != t.Rows {
		return nil, fmt.Errorf("embedding: perm length %d != rows %d", len(perm), t.Rows)
	}
	out, err := NewTable(t.Name+"-sorted", t.Rows, t.Dim)
	if err != nil {
		return nil, err
	}
	seen := make([]bool, t.Rows)
	for newIdx, oldIdx := range perm {
		if oldIdx < 0 || oldIdx >= t.Rows {
			return nil, fmt.Errorf("%w: perm[%d]=%d", ErrIndexRange, newIdx, oldIdx)
		}
		if seen[oldIdx] {
			return nil, fmt.Errorf("embedding: perm repeats row %d (not a permutation)", oldIdx)
		}
		seen[oldIdx] = true
		src := t.data[oldIdx*int64(t.Dim) : (oldIdx+1)*int64(t.Dim)]
		copy(out.data[int64(newIdx)*int64(t.Dim):], src)
	}
	return out, nil
}

// Batch is the index/offset ("KeyedJagged") representation of a batched
// multi-hot lookup against one table, matching Fig. 11: Indices holds the
// concatenated lookup IDs for every input in the batch, and Offsets[i] is
// the position in Indices where input i's IDs begin. len(Offsets) equals the
// batch size; input i uses Indices[Offsets[i]:end] where end is
// Offsets[i+1] (or len(Indices) for the last input).
type Batch struct {
	Indices []int64
	Offsets []int32
}

// Validate checks structural invariants: offsets non-decreasing, first
// offset zero, all offsets within the index array.
func (b *Batch) Validate() error {
	if len(b.Offsets) == 0 {
		if len(b.Indices) != 0 {
			return fmt.Errorf("%w: indices without offsets", ErrBadBatch)
		}
		return nil
	}
	if b.Offsets[0] != 0 {
		return fmt.Errorf("%w: first offset %d != 0", ErrBadBatch, b.Offsets[0])
	}
	prev := int32(0)
	for i, o := range b.Offsets {
		if o < prev {
			return fmt.Errorf("%w: offsets decrease at %d (%d < %d)", ErrBadBatch, i, o, prev)
		}
		if int(o) > len(b.Indices) {
			return fmt.Errorf("%w: offset %d beyond %d indices", ErrBadBatch, o, len(b.Indices))
		}
		prev = o
	}
	return nil
}

// BatchSize returns the number of inputs in the batch.
func (b *Batch) BatchSize() int { return len(b.Offsets) }

// InputIndices returns the lookup IDs for input i (a sub-slice, not a copy).
func (b *Batch) InputIndices(i int) []int64 {
	lo := int(b.Offsets[i])
	hi := len(b.Indices)
	if i+1 < len(b.Offsets) {
		hi = int(b.Offsets[i+1])
	}
	return b.Indices[lo:hi]
}

// GatherPoolBatch runs GatherPool for every input in the batch and writes
// the pooled vector for input i into out.Row(i). out must be
// (BatchSize x Dim). The batch structure and every index are validated
// once, before out is written.
func (t *Table) GatherPoolBatch(out *tensor.Matrix, b *Batch) error {
	if err := b.Validate(); err != nil {
		return err
	}
	if out.Rows != b.BatchSize() || out.Cols != t.Dim {
		return fmt.Errorf("embedding: out shape %dx%d want %dx%d", out.Rows, out.Cols, b.BatchSize(), t.Dim)
	}
	if err := t.checkIndices(b.Indices); err != nil {
		return err
	}
	for i := 0; i < b.BatchSize(); i++ {
		t.pool(out.Row(i), b.InputIndices(i))
	}
	return nil
}
