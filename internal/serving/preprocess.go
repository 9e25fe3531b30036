package serving

import (
	"fmt"

	"repro/internal/embedding"
	"repro/internal/model"
)

// Preprocessed is the output of ElasticRec's one-time table preprocessing
// (Sec. IV-B, Fig. 8): every embedding table sorted by access hotness,
// plus the original-ID -> sorted-ID remap the frontend applies before
// bucketization, and the per-table access CDFs the cost estimator uses.
type Preprocessed struct {
	Config model.Config
	// Sorted[t] is table t reordered so row 0 is its hottest embedding.
	Sorted []*embedding.Table
	// RankOf[t][orig] is the sorted-space row of original row orig.
	RankOf [][]int64
	// CDFs[t] is table t's access-frequency CDF over sorted rows.
	CDFs []*embedding.CDF
}

// Preprocess sorts every table of m by the recorded access statistics.
// stats must have one entry per table with matching row counts. The
// operation is off the serving critical path, but it bounds how fast a
// deployment can re-plan: the paper measures ~3 s for its largest 20M-row
// table. Each table's sort, permute, rank and CDF depend on that table
// alone, so tables are processed concurrently (embedding.ForEachTable),
// and the CDF accumulates over the hotness permutation instead of sorting
// the counts again. Four 200k x 64 tables take 55-76 ms on 2 vCPUs,
// against 215-230 ms with comparator sorts and one table at a time
// (BenchmarkKernel_Preprocess); the row permutation is most of what
// remains.
func Preprocess(m *model.Model, stats []*embedding.AccessStats) (*Preprocessed, error) {
	if len(stats) != len(m.Tables) {
		return nil, fmt.Errorf("serving: %d stats for %d tables", len(stats), len(m.Tables))
	}
	for t, tab := range m.Tables {
		if stats[t].Rows() != tab.Rows {
			return nil, fmt.Errorf("serving: table %d stats cover %d rows, table has %d", t, stats[t].Rows(), tab.Rows)
		}
	}
	n := len(m.Tables)
	out := &Preprocessed{
		Config: m.Config,
		Sorted: make([]*embedding.Table, n),
		RankOf: make([][]int64, n),
		CDFs:   make([]*embedding.CDF, n),
	}
	err := embedding.ForEachTable(n, func(t int) error {
		perm := stats[t].HotnessPermutation()
		sorted, err := m.Tables[t].Permute(perm)
		if err != nil {
			return fmt.Errorf("serving: sorting table %d: %w", t, err)
		}
		rankOf := make([]int64, len(perm))
		for rank, orig := range perm {
			rankOf[orig] = int64(rank)
		}
		out.Sorted[t] = sorted
		out.RankOf[t] = rankOf
		out.CDFs[t] = embedding.NewCDFFromPermutation(stats[t], perm)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RemapBatch translates a batch expressed in table t's original IDs into
// sorted-space IDs. The offsets are shared (structure is unchanged).
func (p *Preprocessed) RemapBatch(t int, b *embedding.Batch) (*embedding.Batch, error) {
	if t < 0 || t >= len(p.RankOf) {
		return nil, fmt.Errorf("serving: table %d of %d", t, len(p.RankOf))
	}
	rank := p.RankOf[t]
	out := &embedding.Batch{
		Indices: make([]int64, len(b.Indices)),
		Offsets: b.Offsets,
	}
	for i, idx := range b.Indices {
		if idx < 0 || idx >= int64(len(rank)) {
			return nil, fmt.Errorf("serving: index %d outside table %d (%d rows)", idx, t, len(rank))
		}
		out.Indices[i] = rank[idx]
	}
	return out, nil
}
