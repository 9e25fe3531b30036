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
// operation is off the serving critical path (the paper measures ~3 s for
// its largest table).
func Preprocess(m *model.Model, stats []*embedding.AccessStats) (*Preprocessed, error) {
	if len(stats) != len(m.Tables) {
		return nil, fmt.Errorf("serving: %d stats for %d tables", len(stats), len(m.Tables))
	}
	out := &Preprocessed{Config: m.Config}
	for t, tab := range m.Tables {
		st := stats[t]
		if st.Rows() != tab.Rows {
			return nil, fmt.Errorf("serving: table %d stats cover %d rows, table has %d", t, st.Rows(), tab.Rows)
		}
		perm := st.HotnessPermutation()
		sorted, err := tab.Permute(perm)
		if err != nil {
			return nil, fmt.Errorf("serving: sorting table %d: %w", t, err)
		}
		rankOf := make([]int64, tab.Rows)
		for rank, orig := range perm {
			rankOf[orig] = int64(rank)
		}
		out.Sorted = append(out.Sorted, sorted)
		out.RankOf = append(out.RankOf, rankOf)
		out.CDFs = append(out.CDFs, embedding.NewCDF(st))
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
