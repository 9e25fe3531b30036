package model

import (
	"fmt"
	"sync"

	"repro/internal/embedding"
	"repro/internal/mlp"
	"repro/internal/tensor"
)

// Model is an instantiated DLRM: parameters in memory, ready to run forward
// passes. Parameters are read-only during serving and every forward pass
// draws its scratch buffers from an internal pool, so Forward, ForwardPooled
// and ForwardBatch are safe to call from many goroutines concurrently —
// this is what lets a dense shard service fused request batches without a
// global lock.
type Model struct {
	Config Config
	Bottom *mlp.MLP
	Top    *mlp.MLP
	Tables []*embedding.Table

	// scratch is a pool of *Scratch sized for this config; forward passes
	// acquire one per call so concurrent passes never share buffers.
	scratch sync.Pool
}

// Scratch holds every intermediate buffer one forward pass needs: the
// bottom-MLP outputs, the interaction vectors, the per-table pooled
// embeddings (table-major, as ForwardPooledBatch takes them), and the MLP
// ping-pong buffers. The per-sample buffers grow to the largest batch seen
// and are kept. A Scratch belongs to exactly one in-flight forward pass at
// a time.
type Scratch struct {
	bottomOut   []float32
	interaction []float32
	pooled      []float32
	logit       tensor.Vector // the single-sample passes' probability
	vecs        []tensor.Vector
	bottom      *mlp.Scratch
	top         *mlp.Scratch
}

// NewScratch allocates a scratch set sized for one input of the model.
func (m *Model) NewScratch() *Scratch {
	s := &Scratch{
		logit:  make(tensor.Vector, 1),
		vecs:   make([]tensor.Vector, 0, m.Config.NumTables+1),
		bottom: m.Bottom.NewScratch(),
		top:    m.Top.NewScratch(),
	}
	s.grow(m.Config, 1)
	return s
}

// grow sizes the per-sample buffers for a batch of bs inputs.
func (s *Scratch) grow(cfg Config, bs int) {
	if n := bs * cfg.EmbeddingDim; cap(s.bottomOut) < n {
		s.bottomOut = make([]float32, n)
	}
	if n := bs * cfg.InteractionDim(); cap(s.interaction) < n {
		s.interaction = make([]float32, n)
	}
	if n := cfg.NumTables * bs * cfg.EmbeddingDim; cap(s.pooled) < n {
		s.pooled = make([]float32, n)
	}
}

// pooledMatrix views the first NumTables*bs rows of s.pooled in the
// table-major layout ForwardPooledBatch takes.
func (s *Scratch) pooledMatrix(cfg Config, bs int) tensor.Matrix {
	n := cfg.NumTables * bs
	return tensor.Matrix{Rows: n, Cols: cfg.EmbeddingDim, Data: s.pooled[:n*cfg.EmbeddingDim]}
}

// AcquireScratch takes a scratch set from the model's pool (allocating one
// when the pool is empty). Callers running many forward passes back to back
// (the dense shard's batched hot path) acquire once, reuse it across the
// batch, and release when done.
func (m *Model) AcquireScratch() *Scratch {
	return m.scratch.Get().(*Scratch)
}

// ReleaseScratch returns a scratch set to the pool.
func (m *Model) ReleaseScratch(s *Scratch) {
	m.scratch.Put(s)
}

// New instantiates the model with deterministic parameters. For the paper's
// 20M-row geometry this allocates ~2.5 GB per table; tests and the live
// serving engine pass a Config with reduced RowsPerTable via WithRows.
func New(cfg Config, seed uint64) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	bottom, err := mlp.New(cfg.bottomDims(), seed)
	if err != nil {
		return nil, fmt.Errorf("model %s: bottom MLP: %w", cfg.Name, err)
	}
	top, err := mlp.New(cfg.topDims(), seed^0x5ca1ab1e)
	if err != nil {
		return nil, fmt.Errorf("model %s: top MLP: %w", cfg.Name, err)
	}
	m := &Model{Config: cfg, Bottom: bottom, Top: top, Tables: make([]*embedding.Table, cfg.NumTables)}
	// Every table has its own seed, so filling them concurrently gives the
	// same values as filling them one after another.
	err = embedding.ForEachTable(cfg.NumTables, func(t int) error {
		tab, err := embedding.NewRandomTable(
			fmt.Sprintf("%s-table%d", cfg.Name, t), cfg.RowsPerTable, cfg.EmbeddingDim,
			seed+uint64(t)*0x9e3779b9)
		if err != nil {
			return fmt.Errorf("model %s: table %d: %w", cfg.Name, t, err)
		}
		m.Tables[t] = tab
		return nil
	})
	if err != nil {
		return nil, err
	}
	m.initScratch()
	return m, nil
}

// NewDenseOnly instantiates only the dense side of the model (bottom/top
// MLPs and interaction scratch, no embedding tables) — the parameter set a
// dense DNN shard container loads. ForwardPooled works; Forward and
// ForwardBatch require tables and will fail.
func NewDenseOnly(cfg Config, seed uint64) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	bottom, err := mlp.New(cfg.bottomDims(), seed)
	if err != nil {
		return nil, fmt.Errorf("model %s: bottom MLP: %w", cfg.Name, err)
	}
	top, err := mlp.New(cfg.topDims(), seed^0x5ca1ab1e)
	if err != nil {
		return nil, fmt.Errorf("model %s: top MLP: %w", cfg.Name, err)
	}
	m := &Model{Config: cfg, Bottom: bottom, Top: top}
	m.initScratch()
	return m, nil
}

func (m *Model) initScratch() {
	m.scratch.New = func() any { return m.NewScratch() }
}

// Clone deep-copies the model (a new replica's private parameter copy).
func (m *Model) Clone() *Model {
	out := &Model{Config: m.Config, Bottom: m.Bottom.Clone(), Top: m.Top.Clone()}
	for _, t := range m.Tables {
		out.Tables = append(out.Tables, t.Clone())
	}
	out.initScratch()
	return out
}

// interact computes the DLRM pairwise feature interaction: it writes the
// dot products of every unordered pair of vecs — the bottom-MLP output
// first, then one pooled vector per table — followed by vecs[0] itself
// into dst, whose length (InteractionDim) the caller has checked.
func interact(dst tensor.Vector, vecs []tensor.Vector) error {
	k := 0
	for i := 0; i < len(vecs); i++ {
		for j := i + 1; j < len(vecs); j++ {
			d, err := tensor.Dot(vecs[i], vecs[j])
			if err != nil {
				return err
			}
			dst[k] = d
			k++
		}
	}
	copy(dst[k:], vecs[0])
	return nil
}

// ForwardPooled runs the dense part of the model for a single input, given
// the already-pooled embedding vectors — exactly the work the dense DNN
// shard performs after the sparse shards reply (Sec. IV-A "life of an
// inference query"). It returns the click probability. Safe for concurrent
// use; callers in a hot loop should prefer ForwardPooledScratch with a
// scratch acquired once per batch.
func (m *Model) ForwardPooled(dense tensor.Vector, pooled []tensor.Vector) (float32, error) {
	s := m.AcquireScratch()
	defer m.ReleaseScratch(s)
	return m.ForwardPooledScratch(s, dense, pooled)
}

// ForwardPooledScratch is ForwardPooled with caller-provided scratch: the
// parameters are only read, so any number of goroutines may run it
// concurrently as long as each brings its own Scratch. It is the one-input
// case of ForwardPooledBatch.
func (m *Model) ForwardPooledScratch(s *Scratch, dense tensor.Vector, pooled []tensor.Vector) (float32, error) {
	cfg := m.Config
	if len(pooled) != cfg.NumTables {
		return 0, fmt.Errorf("model %s: %d pooled vectors, want %d", cfg.Name, len(pooled), cfg.NumTables)
	}
	pm := s.pooledMatrix(cfg, 1)
	for t, p := range pooled {
		if len(p) != cfg.EmbeddingDim {
			return 0, fmt.Errorf("model %s: pooled vector %d has %d values, want %d", cfg.Name, t, len(p), cfg.EmbeddingDim)
		}
		copy(pm.Row(t), p)
	}
	return m.forwardOne(s, dense, &pm)
}

// forwardOne runs ForwardPooledBatch on a batch of one input.
func (m *Model) forwardOne(s *Scratch, dense tensor.Vector, pooled *tensor.Matrix) (float32, error) {
	d := tensor.Matrix{Rows: 1, Cols: len(dense), Data: dense}
	if err := m.ForwardPooledBatch(s, &d, pooled, s.logit); err != nil {
		return 0, err
	}
	return s.logit[0], nil
}

// ForwardPooledBatch is ForwardPooledScratch for a whole batch. dense is
// (bs x DenseInputDim); pooled is (NumTables*bs x EmbeddingDim) and
// table-major — row t*bs+i is table t's pooled vector for input i, the
// layout the dense shard merges gather replies into; probs (length bs)
// receives one probability per input. The bottom and top MLPs each run once
// over the whole batch and the interaction once per input, and every
// probability is bit-identical to ForwardPooledScratch on its input alone.
func (m *Model) ForwardPooledBatch(s *Scratch, dense, pooled *tensor.Matrix, probs []float32) error {
	cfg := m.Config
	bs := dense.Rows
	if bs < 0 || pooled.Rows != cfg.NumTables*bs || pooled.Cols != cfg.EmbeddingDim || len(pooled.Data) != pooled.Rows*pooled.Cols {
		return fmt.Errorf("model %s: pooled %dx%d for batch %d, want %dx%d",
			cfg.Name, pooled.Rows, pooled.Cols, bs, cfg.NumTables*bs, cfg.EmbeddingDim)
	}
	if len(probs) != bs {
		return fmt.Errorf("model %s: %d probabilities for batch %d", cfg.Name, len(probs), bs)
	}
	s.grow(cfg, bs)
	dim, inter := cfg.EmbeddingDim, cfg.InteractionDim()
	bottom := tensor.Matrix{Rows: bs, Cols: dim, Data: s.bottomOut[:bs*dim]}
	if err := m.Bottom.ForwardBatch(s.bottom, &bottom, dense); err != nil {
		return err
	}
	interaction := tensor.Matrix{Rows: bs, Cols: inter, Data: s.interaction[:bs*inter]}
	for i := 0; i < bs; i++ {
		vecs := append(s.vecs[:0], bottom.Row(i))
		for t := 0; t < cfg.NumTables; t++ {
			vecs = append(vecs, pooled.Row(t*bs+i))
		}
		s.vecs = vecs
		if err := interact(interaction.Row(i), vecs); err != nil {
			return err
		}
	}
	top := tensor.Matrix{Rows: bs, Cols: 1, Data: probs}
	if err := m.Top.ForwardBatch(s.top, &top, &interaction); err != nil {
		return err
	}
	tensor.Sigmoid(probs)
	return nil
}

// Forward runs the full monolithic model for a single input: sparseIdx[t]
// holds the lookup indices into table t. This is the baseline model-wise
// execution path. Safe for concurrent use.
func (m *Model) Forward(dense tensor.Vector, sparseIdx [][]int64) (float32, error) {
	if err := m.checkTables(len(sparseIdx)); err != nil {
		return 0, err
	}
	s := m.AcquireScratch()
	defer m.ReleaseScratch(s)
	pm := s.pooledMatrix(m.Config, 1)
	for t, tab := range m.Tables {
		if err := tab.GatherPool(pm.Row(t), sparseIdx[t]); err != nil {
			return 0, err
		}
	}
	return m.forwardOne(s, dense, &pm)
}

// checkTables rejects n sparse inputs unless the model holds exactly that
// many tables, as its config says.
func (m *Model) checkTables(n int) error {
	cfg := m.Config
	if len(m.Tables) != cfg.NumTables {
		return fmt.Errorf("model %s: %d of %d tables loaded (a dense-only model cannot gather)", cfg.Name, len(m.Tables), cfg.NumTables)
	}
	if n != cfg.NumTables {
		return fmt.Errorf("model %s: %d sparse inputs, want %d", cfg.Name, n, cfg.NumTables)
	}
	return nil
}

// ForwardBatch runs the monolithic model for a whole query: denseIn is
// (BatchSize x DenseInputDim) and batches[t] is the index/offset batch for
// table t. It returns one probability per input: every table's batch is
// gather-pooled, then one ForwardPooledBatch runs the dense part.
func (m *Model) ForwardBatch(denseIn *tensor.Matrix, batches []*embedding.Batch) ([]float32, error) {
	if err := m.checkTables(len(batches)); err != nil {
		return nil, err
	}
	cfg := m.Config
	bs := denseIn.Rows
	for t, b := range batches {
		if b.BatchSize() != bs {
			return nil, fmt.Errorf("model %s: table %d batch size %d != dense batch %d", cfg.Name, t, b.BatchSize(), bs)
		}
	}
	s := m.AcquireScratch()
	defer m.ReleaseScratch(s)
	s.grow(cfg, bs)
	pooled := s.pooledMatrix(cfg, bs)
	n := bs * cfg.EmbeddingDim
	for t, b := range batches {
		view := tensor.Matrix{Rows: bs, Cols: cfg.EmbeddingDim, Data: pooled.Data[t*n : (t+1)*n]}
		if err := m.Tables[t].GatherPoolBatch(&view, b); err != nil {
			return nil, err
		}
	}
	out := make([]float32, bs)
	if err := m.ForwardPooledBatch(s, denseIn, &pooled, out); err != nil {
		return nil, err
	}
	return out, nil
}

// --- Architecture-independent accounting (Fig. 3a) ---

// DenseFLOPsPerInput returns the dense-layer FLOPs for one input: bottom
// MLP + pairwise interaction + top MLP.
func (c Config) DenseFLOPsPerInput() int64 {
	var total int64
	dims := c.bottomDims()
	for i := 0; i+1 < len(dims); i++ {
		total += 2*int64(dims[i])*int64(dims[i+1]) + int64(dims[i+1])
	}
	// Interaction: C(n+1, 2) dot products of EmbeddingDim-wide vectors.
	n := int64(c.NumTables + 1)
	total += n * (n - 1) / 2 * 2 * int64(c.EmbeddingDim)
	dims = c.topDims()
	for i := 0; i+1 < len(dims); i++ {
		total += 2*int64(dims[i])*int64(dims[i+1]) + int64(dims[i+1])
	}
	return total
}

// SparseFLOPsPerInput returns the embedding-layer FLOPs for one input: the
// sum-pooling additions across all tables (gathers themselves are loads,
// not FLOPs).
func (c Config) SparseFLOPsPerInput() int64 {
	return int64(c.NumTables) * int64(c.Pooling) * int64(c.EmbeddingDim)
}

// DenseFLOPsPerQuery returns dense FLOPs for a full batch-size query.
func (c Config) DenseFLOPsPerQuery() int64 {
	return c.DenseFLOPsPerInput() * int64(c.BatchSize)
}

// SparseFLOPsPerQuery returns sparse FLOPs for a full batch-size query.
func (c Config) SparseFLOPsPerQuery() int64 {
	return c.SparseFLOPsPerInput() * int64(c.BatchSize)
}

// DenseBytes returns the dense-parameter footprint (both MLPs).
func (c Config) DenseBytes() int64 {
	var total int64
	dims := c.bottomDims()
	for i := 0; i+1 < len(dims); i++ {
		total += (int64(dims[i])*int64(dims[i+1]) + int64(dims[i+1])) * 4
	}
	dims = c.topDims()
	for i := 0; i+1 < len(dims); i++ {
		total += (int64(dims[i])*int64(dims[i+1]) + int64(dims[i+1])) * 4
	}
	return total
}

// SparseBytes returns the embedding-table footprint across all tables.
func (c Config) SparseBytes() int64 {
	return int64(c.NumTables) * c.RowsPerTable * int64(c.EmbeddingDim) * embedding.BytesPerElement
}

// TableBytes returns the footprint of a single table.
func (c Config) TableBytes() int64 {
	return c.RowsPerTable * int64(c.EmbeddingDim) * embedding.BytesPerElement
}

// SparseBytesReadPerQuery returns the bytes of embedding data one query
// reads from memory (gathered rows across all tables and the batch).
func (c Config) SparseBytesReadPerQuery() int64 {
	return int64(c.BatchSize) * int64(c.NumTables) * int64(c.Pooling) * int64(c.EmbeddingDim) * embedding.BytesPerElement
}

// OccupancyBreakdown is the Fig. 3(a) decomposition.
type OccupancyBreakdown struct {
	DenseFLOPsShare  float64 // dense share of per-query FLOPs
	SparseFLOPsShare float64
	DenseMemShare    float64 // dense share of parameter bytes
	SparseMemShare   float64
}

// Occupancy computes the FLOPs and memory shares of Fig. 3(a).
func (c Config) Occupancy() OccupancyBreakdown {
	df := float64(c.DenseFLOPsPerQuery())
	sf := float64(c.SparseFLOPsPerQuery())
	dm := float64(c.DenseBytes())
	sm := float64(c.SparseBytes())
	return OccupancyBreakdown{
		DenseFLOPsShare:  df / (df + sf),
		SparseFLOPsShare: sf / (df + sf),
		DenseMemShare:    dm / (dm + sm),
		SparseMemShare:   sm / (dm + sm),
	}
}
