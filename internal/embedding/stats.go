package embedding

import (
	"fmt"
	"sort"
)

// AccessStats records per-row access counts for one embedding table over a
// profiling window. Production inference servers keep exactly this history
// (Sec. IV-B cites [37], [52]); here it also powers the Fig. 6 access
// distribution plots and the memory-utility measurements.
type AccessStats struct {
	Counts []int64 // Counts[i] = number of accesses to row i
	Total  int64
}

// NewAccessStats creates zeroed statistics for a table with rows rows.
func NewAccessStats(rows int64) *AccessStats {
	return &AccessStats{Counts: make([]int64, rows)}
}

// Record adds one access to row idx. Out-of-range indices are rejected.
func (s *AccessStats) Record(idx int64) error {
	if idx < 0 || idx >= int64(len(s.Counts)) {
		return fmt.Errorf("%w: stats row %d of %d", ErrIndexRange, idx, len(s.Counts))
	}
	s.Counts[idx]++
	s.Total++
	return nil
}

// RecordBatch adds one access per index in the batch.
func (s *AccessStats) RecordBatch(b *Batch) error {
	for _, idx := range b.Indices {
		if err := s.Record(idx); err != nil {
			return err
		}
	}
	return nil
}

// Rows returns the number of rows tracked.
func (s *AccessStats) Rows() int64 { return int64(len(s.Counts)) }

// HotnessPermutation returns a permutation perm such that perm[newIdx] is
// the original row stored at position newIdx after sorting rows by
// descending access count (ties broken by original index for determinism).
// Applying Table.Permute with this permutation yields the Fig. 8(b) layout:
// the hottest row at index 0.
func (s *AccessStats) HotnessPermutation() []int64 {
	perm := make([]int64, len(s.Counts))
	for i := range perm {
		perm[i] = int64(i)
	}
	sort.SliceStable(perm, func(a, b int) bool {
		ca, cb := s.Counts[perm[a]], s.Counts[perm[b]]
		if ca != cb {
			return ca > cb
		}
		return perm[a] < perm[b]
	})
	return perm
}

// SortedCounts returns the access counts in descending order (the series
// plotted in Fig. 6).
func (s *AccessStats) SortedCounts() []int64 {
	out := make([]int64, len(s.Counts))
	copy(out, s.Counts)
	sort.Slice(out, func(a, b int) bool { return out[a] > out[b] })
	return out
}

// LocalityP returns the fraction of all accesses covered by the hottest 10%
// of rows — the paper's locality metric P (Sec. V-C). Returns 0 when no
// accesses have been recorded.
func (s *AccessStats) LocalityP() float64 {
	if s.Total == 0 {
		return 0
	}
	sorted := s.SortedCounts()
	top := len(sorted) / 10
	if top == 0 {
		top = 1
	}
	var covered int64
	for _, c := range sorted[:top] {
		covered += c
	}
	return float64(covered) / float64(s.Total)
}

// CDF is the cumulative access-frequency distribution over a hotness-sorted
// table. CDF.At(j) is the fraction of all accesses covered by rows [0, j),
// so a shard spanning sorted rows [k, j) absorbs At(j) - At(k) of traffic —
// exactly the "CDF(j) - CDF(k)" term on line 11 of Algorithm 1.
type CDF struct {
	cum []float64 // cum[i] = fraction covered by rows [0, i]; len == rows
}

// NewCDF builds the CDF from access statistics. The counts are first sorted
// descending (the estimator always works on the hotness-sorted table). A
// table with zero recorded accesses yields a uniform CDF, which matches the
// behaviour of an unprofiled table.
func NewCDF(s *AccessStats) *CDF {
	n := len(s.Counts)
	cum := make([]float64, n)
	if s.Total == 0 {
		for i := range cum {
			cum[i] = float64(i+1) / float64(n)
		}
		return &CDF{cum: cum}
	}
	sorted := s.SortedCounts()
	var run int64
	for i, c := range sorted {
		run += c
		cum[i] = float64(run) / float64(s.Total)
	}
	return &CDF{cum: cum}
}

// Rows returns the number of rows the CDF covers.
func (c *CDF) Rows() int64 { return int64(len(c.cum)) }

// At returns the fraction of accesses covered by sorted rows [0, j).
// At(0) == 0 and At(Rows()) == 1.
func (c *CDF) At(j int64) float64 {
	if j <= 0 {
		return 0
	}
	if j >= int64(len(c.cum)) {
		return 1
	}
	return c.cum[j-1]
}

// ProportionalCuts returns shard boundaries cutting the hotness-sorted
// table at the given ascending coverage fractions (one boundary per
// fraction, ending with the full row count) — the cheap stand-in for the
// DP planner the live examples and the admin CLI use: cutting at e.g.
// 70% and 95% coverage mirrors what the DP chooses for their geometries
// without re-fitting the cost model inline.
func (c *CDF) ProportionalCuts(fracs ...float64) []int64 {
	cuts := make([]int64, 0, len(fracs)+1)
	for _, p := range fracs {
		var j int64
		for j = 1; j < c.Rows() && c.At(j) < p; j++ {
		}
		cuts = append(cuts, j)
	}
	return append(cuts, c.Rows())
}

// RangeProbability returns the fraction of accesses falling in sorted rows
// [k, j), i.e. CDF(j) - CDF(k) from Algorithm 1 line 11.
func (c *CDF) RangeProbability(k, j int64) float64 {
	p := c.At(j) - c.At(k)
	if p < 0 {
		return 0
	}
	return p
}
