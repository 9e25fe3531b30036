package model

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/embedding"
	"repro/internal/mlp"
	"repro/internal/tensor"
)

// tiny returns a small, fast test model.
func tiny() Config {
	return Config{
		Name:          "tiny",
		DenseInputDim: 4,
		BottomMLP:     []int{8, 4},
		TopMLP:        []int{8, 1},
		NumTables:     3,
		RowsPerTable:  50,
		EmbeddingDim:  4,
		Pooling:       5,
		LocalityP:     0.9,
		BatchSize:     2,
	}
}

func TestConfigValidate(t *testing.T) {
	good := tiny()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := tiny()
	bad.BottomMLP = []int{8, 5} // last width != embedding dim
	if err := bad.Validate(); err == nil {
		t.Fatal("want bottom-MLP/dim mismatch error")
	}
	bad = tiny()
	bad.TopMLP = []int{8, 2}
	if err := bad.Validate(); err == nil {
		t.Fatal("want top-MLP width error")
	}
	bad = tiny()
	bad.LocalityP = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("want locality error")
	}
	bad = tiny()
	bad.NumTables = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("want table count error")
	}
	bad = tiny()
	bad.DenseInputDim = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("want dense input error")
	}
	bad = tiny()
	bad.BatchSize = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("want batch size error")
	}
}

func TestInteractionDim(t *testing.T) {
	cfg := tiny() // 3 tables + bottom = 4 vectors -> 6 pairs + dim 4
	if got := cfg.InteractionDim(); got != 10 {
		t.Fatalf("InteractionDim = %d, want 10", got)
	}
}

func TestPresetsValidate(t *testing.T) {
	for _, cfg := range StateOfTheArt() {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
	if RM2().NumTables != 32 || RM3().Pooling != 32 {
		t.Fatal("Table II presets corrupted")
	}
	for _, size := range []MLPSize{MLPLight, MLPMedium, MLPHeavy} {
		cfg, err := MicroMLP(size)
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
	if _, err := MicroMLP("Huge"); err == nil {
		t.Fatal("want unknown-size error")
	}
	for _, lvl := range []LocalityLevel{LocalityLow, LocalityMedium, LocalityHigh} {
		cfg, err := MicroLocality(lvl)
		if err != nil {
			t.Fatal(err)
		}
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
	if _, err := MicroLocality("None"); err == nil {
		t.Fatal("want unknown-level error")
	}
	for _, n := range MicroTableCounts() {
		if _, err := MicroTables(n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := MicroTables(0); err == nil {
		t.Fatal("want table-count error")
	}
}

func TestMicroLocalityValues(t *testing.T) {
	lo, _ := MicroLocality(LocalityLow)
	hi, _ := MicroLocality(LocalityHigh)
	if lo.LocalityP != 0.10 || hi.LocalityP != 0.90 {
		t.Fatalf("locality presets: low=%v high=%v", lo.LocalityP, hi.LocalityP)
	}
}

func TestWithRowsAndName(t *testing.T) {
	cfg := RM1().WithRows(1000).WithName("rm1-small")
	if cfg.RowsPerTable != 1000 || cfg.Name != "rm1-small" {
		t.Fatalf("WithRows/WithName broken: %+v", cfg)
	}
	if RM1().RowsPerTable != 20_000_000 {
		t.Fatal("WithRows must not mutate the preset")
	}
}

func TestAccountingPaperGeometry(t *testing.T) {
	cfg := RM1()
	// 10 tables x 20M rows x 32 dims x 4B = 25.6 GB of embeddings.
	if got := cfg.SparseBytes(); got != 10*20_000_000*32*4 {
		t.Fatalf("SparseBytes = %d", got)
	}
	if got := cfg.TableBytes(); got != 20_000_000*32*4 {
		t.Fatalf("TableBytes = %d", got)
	}
	// Dense parameters are a few hundred KB — the Fig. 3 asymmetry.
	if cfg.DenseBytes() > 10<<20 {
		t.Fatalf("DenseBytes = %d, expected well under 10MB", cfg.DenseBytes())
	}
	occ := cfg.Occupancy()
	if occ.SparseMemShare < 0.99 {
		t.Fatalf("sparse memory share = %v, want > 0.99", occ.SparseMemShare)
	}
	if occ.DenseFLOPsShare < 0.5 {
		t.Fatalf("dense FLOPs share = %v, want majority", occ.DenseFLOPsShare)
	}
	if math.Abs(occ.DenseFLOPsShare+occ.SparseFLOPsShare-1) > 1e-9 {
		t.Fatal("FLOPs shares must sum to 1")
	}
	if got := cfg.SparseBytesReadPerQuery(); got != 32*10*128*32*4 {
		t.Fatalf("SparseBytesReadPerQuery = %d", got)
	}
}

func TestSparseFLOPsPerQuery(t *testing.T) {
	cfg := tiny()
	want := int64(cfg.NumTables*cfg.Pooling*cfg.EmbeddingDim) * int64(cfg.BatchSize)
	if got := cfg.SparseFLOPsPerQuery(); got != want {
		t.Fatalf("SparseFLOPsPerQuery = %d, want %d", got, want)
	}
	if cfg.DenseFLOPsPerQuery() != cfg.DenseFLOPsPerInput()*int64(cfg.BatchSize) {
		t.Fatal("query FLOPs must scale with batch")
	}
}

func TestNewModelAndForward(t *testing.T) {
	m, err := New(tiny(), 1)
	if err != nil {
		t.Fatal(err)
	}
	dense := tensor.Vector{0.1, 0.2, 0.3, 0.4}
	sparse := [][]int64{{0, 1}, {2, 3}, {4, 5}}
	p, err := m.Forward(dense, sparse)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0 || p > 1 || math.IsNaN(float64(p)) {
		t.Fatalf("probability = %v", p)
	}
	// Deterministic across instances with the same seed.
	m2, _ := New(tiny(), 1)
	p2, _ := m2.Forward(dense, sparse)
	if p != p2 {
		t.Fatal("same seed must reproduce predictions")
	}
	// Wrong sparse arity errors.
	if _, err := m.Forward(dense, sparse[:2]); err == nil {
		t.Fatal("want arity error")
	}
}

func TestForwardPooledMatchesForward(t *testing.T) {
	m, err := New(tiny(), 2)
	if err != nil {
		t.Fatal(err)
	}
	dense := tensor.Vector{0.5, -0.5, 0.25, 1}
	sparse := [][]int64{{1, 2, 3}, {4, 4}, {10}}
	want, err := m.Forward(dense, sparse)
	if err != nil {
		t.Fatal(err)
	}
	pooled := make([]tensor.Vector, len(m.Tables))
	for t2, tab := range m.Tables {
		pooled[t2] = make(tensor.Vector, m.Config.EmbeddingDim)
		if err := tab.GatherPool(pooled[t2], sparse[t2]); err != nil {
			t.Fatal(err)
		}
	}
	got, err := m.ForwardPooled(dense, pooled)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("ForwardPooled = %v, Forward = %v", got, want)
	}
}

func TestForwardBatch(t *testing.T) {
	cfg := tiny()
	m, err := New(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	const bs = 9 // one whole tile group and a leftover input
	denseIn := tensor.NewMatrix(bs, cfg.DenseInputDim)
	tensor.InitUniform(denseIn.Data, 1, 4)
	batches := make([]*embedding.Batch, cfg.NumTables)
	for i := range batches {
		batches[i] = &embedding.Batch{}
		for in := 0; in < bs; in++ {
			batches[i].Offsets = append(batches[i].Offsets, int32(len(batches[i].Indices)))
			for k := 0; k <= (in+i)%3; k++ {
				batches[i].Indices = append(batches[i].Indices, int64((in*7+i*3+k)%int(cfg.RowsPerTable)))
			}
		}
	}
	probs, err := m.ForwardBatch(denseIn, batches)
	if err != nil {
		t.Fatal(err)
	}
	if len(probs) != bs {
		t.Fatalf("probs = %v", probs)
	}
	// Each row must equal the per-input Forward.
	for i := 0; i < bs; i++ {
		idx := make([][]int64, cfg.NumTables)
		for t2 := range idx {
			idx[t2] = batches[t2].InputIndices(i)
		}
		want, err := m.Forward(denseIn.Row(i), idx)
		if err != nil {
			t.Fatal(err)
		}
		if probs[i] != want {
			t.Fatalf("batch[%d] = %v, want %v", i, probs[i], want)
		}
	}
	// Mismatched batch sizes error.
	bad := make([]*embedding.Batch, cfg.NumTables)
	for i := range bad {
		bad[i] = &embedding.Batch{Indices: []int64{0}, Offsets: []int32{0}}
	}
	if _, err := m.ForwardBatch(denseIn, bad); err == nil {
		t.Fatal("want batch-size mismatch error")
	}
}

func TestModelClone(t *testing.T) {
	m, _ := New(tiny(), 5)
	c := m.Clone()
	dense := tensor.Vector{1, 2, 3, 4}
	sparse := [][]int64{{0}, {1}, {2}}
	pm, _ := m.Forward(dense, sparse)
	pc, _ := c.Forward(dense, sparse)
	if pm != pc {
		t.Fatal("clone must predict identically")
	}
	// Clone's tables are private copies.
	row, _ := c.Tables[0].Vector(0)
	clear(row)
	pc2, _ := c.Forward(dense, sparse)
	pm2, _ := m.Forward(dense, sparse)
	if pm2 != pm {
		t.Fatal("mutating clone affected original")
	}
	if pc2 == pc {
		t.Fatal("clone mutation had no effect")
	}
}

func TestNewDenseOnly(t *testing.T) {
	m, err := NewDenseOnly(tiny(), 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Tables) != 0 {
		t.Fatal("dense-only model must have no tables")
	}
	pooled := make([]tensor.Vector, 3)
	for i := range pooled {
		pooled[i] = make(tensor.Vector, 4)
	}
	p, err := m.ForwardPooled(tensor.Vector{1, 2, 3, 4}, pooled)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(float64(p)) {
		t.Fatal("NaN prediction")
	}
	if _, err := m.ForwardPooled(tensor.Vector{1, 2, 3, 4}, pooled[:2]); err == nil {
		t.Fatal("want pooled arity error")
	}
	pooled[1] = make(tensor.Vector, 5)
	if _, err := m.ForwardPooled(tensor.Vector{1, 2, 3, 4}, pooled); err == nil {
		t.Fatal("want pooled width error")
	}
}

func TestInteractHandChecked(t *testing.T) {
	cfg := tiny()
	cfg.NumTables = 1
	cfg.EmbeddingDim = 2
	cfg.BottomMLP = []int{4, 2}
	bottom := tensor.Vector{1, 2}
	pooled := []tensor.Vector{{3, 4}}
	// InteractionDim = C(2,2)=1 pair + dim 2 = 3.
	dst := make(tensor.Vector, cfg.InteractionDim())
	if err := interact(dst, append([]tensor.Vector{bottom}, pooled...)); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 11 { // 1*3 + 2*4
		t.Fatalf("pair dot = %v, want 11", dst[0])
	}
	if dst[1] != 1 || dst[2] != 2 {
		t.Fatalf("bottom copy = %v", dst[1:])
	}
}

// TestConcurrentForwardDeterminism: forward passes draw scratch from the
// model's pool, so concurrent callers over shared parameters must produce
// exactly the results a lone caller gets. Run with -race in CI.
func TestConcurrentForwardDeterminism(t *testing.T) {
	cfg := tiny()
	m, err := New(cfg, 42)
	if err != nil {
		t.Fatal(err)
	}
	const inputs = 16
	dense := make([]tensor.Vector, inputs)
	sparse := make([][][]int64, inputs)
	want := make([]float32, inputs)
	for i := range dense {
		dense[i] = make(tensor.Vector, cfg.DenseInputDim)
		tensor.InitUniform(dense[i], 1, uint64(i+1))
		sparse[i] = make([][]int64, cfg.NumTables)
		for tb := range sparse[i] {
			sparse[i][tb] = []int64{int64(i) % cfg.RowsPerTable, int64(i+tb) % cfg.RowsPerTable}
		}
		p, err := m.Forward(dense[i], sparse[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = p
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				i := rep % inputs
				p, err := m.Forward(dense[i], sparse[i])
				if err != nil {
					errs <- err
					return
				}
				if p != want[i] {
					errs <- fmt.Errorf("input %d: concurrent %v != serial %v", i, p, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestScratchReuse: an explicitly acquired scratch survives reuse across a
// batch of forward passes (the dense shard's hot-loop pattern).
func TestScratchReuse(t *testing.T) {
	cfg := tiny()
	m, err := New(cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	s := m.AcquireScratch()
	defer m.ReleaseScratch(s)
	dense := make(tensor.Vector, cfg.DenseInputDim)
	pooled := make([]tensor.Vector, cfg.NumTables)
	for i := range pooled {
		pooled[i] = make(tensor.Vector, cfg.EmbeddingDim)
	}
	first, err := m.ForwardPooledScratch(s, dense, pooled)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		p, err := m.ForwardPooledScratch(s, dense, pooled)
		if err != nil {
			t.Fatal(err)
		}
		if p != first {
			t.Fatalf("iteration %d: %v != %v — scratch reuse corrupts state", i, p, first)
		}
	}
}

// refMLPForward is a per-sample scalar forward pass — one accumulator per
// output row, then the bias, then a separate ReLU sweep on every layer but
// the last — written against the raw weights so it shares no code with
// tensor's kernel.
func refMLPForward(w *mlp.MLP, x tensor.Vector) tensor.Vector {
	cur := x
	for i, l := range w.Layers {
		out := make(tensor.Vector, l.W.Rows)
		for r := range out {
			var acc float32
			for c, wt := range l.W.Data[r*l.W.Cols : (r+1)*l.W.Cols] {
				acc += wt * cur[c]
			}
			out[r] = acc
		}
		for r := range out {
			out[r] += l.B[r]
		}
		if i != len(w.Layers)-1 {
			for r, v := range out {
				if v < 0 {
					out[r] = 0
				}
			}
		}
		cur = out
	}
	return cur
}

// benchGeometries are the two MLP geometries the benchmark serves
// (bench-dense and bench-gather in benchmark/workloads.go).
var benchGeometries = []Config{
	{Name: "bench-dense", DenseInputDim: 13, BottomMLP: []int{256, 128, 32}, TopMLP: []int{256, 64, 1},
		NumTables: 4, RowsPerTable: 1, EmbeddingDim: 32, Pooling: 8, LocalityP: 0.9, BatchSize: 32},
	{Name: "bench-gather", DenseInputDim: 13, BottomMLP: []int{16, 64}, TopMLP: []int{16, 1},
		NumTables: 4, RowsPerTable: 1, EmbeddingDim: 64, Pooling: 128, LocalityP: 0.9, BatchSize: 32},
}

// batchInputs draws bs inputs for cfg: the dense matrix, and the pooled
// vectors both per input (pooled[i][t]) and in ForwardPooledBatch's
// table-major matrix.
func batchInputs(cfg Config, bs int) (dense *tensor.Matrix, pooled [][]tensor.Vector, pooledMat *tensor.Matrix) {
	dense = tensor.NewMatrix(bs, cfg.DenseInputDim)
	pooledMat = tensor.NewMatrix(cfg.NumTables*bs, cfg.EmbeddingDim)
	pooled = make([][]tensor.Vector, bs)
	for i := range pooled {
		tensor.InitUniform(dense.Row(i), 1, 100+uint64(i))
		pooled[i] = make([]tensor.Vector, cfg.NumTables)
		for t := range pooled[i] {
			pooled[i][t] = pooledMat.Row(t*bs + i)
			tensor.InitUniform(pooled[i][t], 0.5, 1000*uint64(i)+uint64(t))
		}
	}
	return dense, pooled, pooledMat
}

// TestForwardPooledBitExactReference pins the dense forward — one input at
// a time and batched — against the scalar reference above on the benchmark
// geometries. The sharded-vs-monolith equivalence suites cannot see a
// kernel bug: both sides run the same kernel.
func TestForwardPooledBitExactReference(t *testing.T) {
	const maxBatch = 64
	for _, cfg := range benchGeometries {
		m, err := NewDenseOnly(cfg, 7)
		if err != nil {
			t.Fatal(err)
		}
		dense, pooled, _ := batchInputs(cfg, maxBatch)
		wantProb := make([]float32, maxBatch)
		wantBottom := make([]tensor.Vector, maxBatch)
		s := m.NewScratch()
		for i := range wantProb {
			wantBottom[i] = refMLPForward(m.Bottom, dense.Row(i))
			inter := make(tensor.Vector, cfg.InteractionDim())
			if err := interact(inter, append([]tensor.Vector{wantBottom[i]}, pooled[i]...)); err != nil {
				t.Fatal(err)
			}
			want := refMLPForward(m.Top, inter)
			tensor.Sigmoid(want)
			wantProb[i] = want[0]

			got, err := m.ForwardPooledScratch(s, dense.Row(i), pooled[i])
			if err != nil {
				t.Fatal(err)
			}
			if math.Float32bits(got) != math.Float32bits(want[0]) {
				t.Fatalf("%s sample %d: probability %v (%#08x), reference %v (%#08x)", cfg.Name, i,
					got, math.Float32bits(got), want[0], math.Float32bits(want[0]))
			}
			// The sigmoid rounds away low logit bits; the bottom MLP's
			// wide output shows a reordered sum directly.
			gotBottom := make(tensor.Vector, cfg.EmbeddingDim)
			if err := m.Bottom.Forward(gotBottom, dense.Row(i)); err != nil {
				t.Fatal(err)
			}
			for j := range gotBottom {
				if math.Float32bits(gotBottom[j]) != math.Float32bits(wantBottom[i][j]) {
					t.Fatalf("%s sample %d: bottom[%d] = %v, reference %v", cfg.Name, i, j, gotBottom[j], wantBottom[i][j])
				}
			}
		}

		// Batched, through one scratch that grows and shrinks back: batch
		// sizes on both sides of a whole 8-sample tile group.
		for _, bs := range []int{1, 7, 8, 9, 32, 64, 8} {
			bd, _, bp := batchInputs(cfg, bs)
			probs := make([]float32, bs)
			if err := m.ForwardPooledBatch(s, bd, bp, probs); err != nil {
				t.Fatal(err)
			}
			for i, got := range probs {
				if math.Float32bits(got) != math.Float32bits(wantProb[i]) {
					t.Fatalf("%s batch %d sample %d: probability %v (%#08x), reference %v (%#08x)", cfg.Name, bs, i,
						got, math.Float32bits(got), wantProb[i], math.Float32bits(wantProb[i]))
				}
				for j, v := range s.bottomOut[i*cfg.EmbeddingDim : (i+1)*cfg.EmbeddingDim] {
					if math.Float32bits(v) != math.Float32bits(wantBottom[i][j]) {
						t.Fatalf("%s batch %d sample %d: bottom[%d] = %v, reference %v", cfg.Name, bs, i, j, v, wantBottom[i][j])
					}
				}
			}
		}
	}
}

// A warm scratch carries a batched forward pass without allocating, at
// the single-input size and at the batcher's fused sizes.
func TestForwardPooledBatchAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not steady under -race")
	}
	for _, cfg := range benchGeometries {
		m, err := NewDenseOnly(cfg, 7)
		if err != nil {
			t.Fatal(err)
		}
		s := m.NewScratch()
		for _, bs := range []int{1, 32, 64} {
			dense, _, pooled := batchInputs(cfg, bs)
			probs := make([]float32, bs)
			if err := m.ForwardPooledBatch(s, dense, pooled, probs); err != nil {
				t.Fatal(err)
			}
			allocs := testing.AllocsPerRun(20, func() {
				if err := m.ForwardPooledBatch(s, dense, pooled, probs); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("%s batch %d: %v allocations per warm ForwardPooledBatch, want 0", cfg.Name, bs, allocs)
			}
		}
	}
}

// ForwardPooledBatch rejects a pooled matrix or probability slice that
// does not fit the batch before it writes anything.
func TestForwardPooledBatchShapes(t *testing.T) {
	cfg := tiny()
	m, err := NewDenseOnly(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := m.NewScratch()
	dense, _, pooled := batchInputs(cfg, 3)
	probs := []float32{7, 7, 7}
	for name, call := range map[string]func() error{
		"pooled rows": func() error {
			return m.ForwardPooledBatch(s, dense, tensor.NewMatrix(2*cfg.NumTables, cfg.EmbeddingDim), probs)
		},
		"pooled cols": func() error { return m.ForwardPooledBatch(s, dense, tensor.NewMatrix(3*cfg.NumTables, 1), probs) },
		"short probs": func() error { return m.ForwardPooledBatch(s, dense, pooled, probs[:2]) },
		"dense width": func() error { return m.ForwardPooledBatch(s, tensor.NewMatrix(3, 1), pooled, probs) },
		"pooled short": func() error {
			return m.ForwardPooledBatch(s, dense, &tensor.Matrix{Rows: pooled.Rows, Cols: pooled.Cols}, probs)
		},
	} {
		if err := call(); err == nil {
			t.Errorf("%s: want a shape error", name)
		}
		if probs[0] != 7 || probs[1] != 7 || probs[2] != 7 {
			t.Fatalf("%s: probabilities written on a shape error: %v", name, probs)
		}
	}
	// A dense-only model has no tables to gather from.
	if _, err := m.Forward(make(tensor.Vector, cfg.DenseInputDim), make([][]int64, cfg.NumTables)); err == nil {
		t.Error("Forward on a dense-only model: want an error")
	}
}
