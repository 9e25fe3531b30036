package workload

import "slices"

// DatasetShape describes the access-distribution geometry of one of the
// real-world datasets the paper plots in Fig. 6. Rows is the number of
// distinct embedding vectors (sorted-vector-ID axis), LocalityP the share
// of accesses covered by the hottest 10% of rows, and Exponent the
// intra-segment power-law decay.
type DatasetShape struct {
	Name      string
	Rows      int64
	LocalityP float64
	Exponent  float64
}

// The three Fig. 6 datasets. Row counts follow the paper's axes (~2M for
// Amazon Books and Criteo, ~50K for MovieLens); MovieLens' P=94% is quoted
// directly in Sec. V-C, the others are set to the paper's default P=90%.
var (
	AmazonBooks = DatasetShape{Name: "amazon-books", Rows: 2_000_000, LocalityP: 0.90, Exponent: 1.05}
	Criteo      = DatasetShape{Name: "criteo", Rows: 2_000_000, LocalityP: 0.90, Exponent: 0.95}
	MovieLens   = DatasetShape{Name: "movielens", Rows: 50_000, LocalityP: 0.94, Exponent: 1.10}
)

// Datasets lists the Fig. 6 presets in paper order.
func Datasets() []DatasetShape { return []DatasetShape{AmazonBooks, Criteo, MovieLens} }

// AccessFrequencies simulates draws accesses from the dataset's sampler
// (scaled down to sampleRows rows when sampleRows > 0, preserving shape)
// and returns the sorted per-row access frequencies normalised to
// percentages — the exact series Fig. 6 plots on a log axis.
func (d DatasetShape) AccessFrequencies(draws int64, sampleRows int64, seed uint64) ([]float64, error) {
	rows := d.Rows
	if sampleRows > 0 && sampleRows < rows {
		rows = sampleRows
	}
	s, err := NewPowerLawSampler(rows, d.LocalityP, d.Exponent)
	if err != nil {
		return nil, err
	}
	counts := make([]int64, rows)
	r := NewRNG(seed)
	for i := int64(0); i < draws; i++ {
		counts[s.SampleRank(r)]++
	}
	// Ranks are already hotness-ordered in expectation, but finite sampling
	// jitters the order; sort descending for the plot.
	slices.Sort(counts)
	slices.Reverse(counts)
	out := make([]float64, rows)
	for i, c := range counts {
		out[i] = 100 * float64(c) / float64(draws)
	}
	return out, nil
}
