package embedding

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// record adds one access to row idx through a one-index batch.
func record(s *AccessStats, idx int64) error {
	return s.RecordBatch(&Batch{Indices: []int64{idx}, Offsets: []int32{0}})
}

func TestAccessStatsRecord(t *testing.T) {
	s := NewAccessStats(4)
	for _, idx := range []int64{0, 1, 1, 3, 3, 3} {
		if err := record(s, idx); err != nil {
			t.Fatal(err)
		}
	}
	if s.Total != 6 {
		t.Fatalf("Total = %d", s.Total)
	}
	if s.Counts[3] != 3 || s.Counts[2] != 0 {
		t.Fatalf("Counts = %v", s.Counts)
	}
	if err := record(s, 4); !errors.Is(err, ErrIndexRange) {
		t.Fatalf("want ErrIndexRange, got %v", err)
	}
	if err := record(s, -1); !errors.Is(err, ErrIndexRange) {
		t.Fatalf("want ErrIndexRange, got %v", err)
	}
}

func TestRecordBatch(t *testing.T) {
	s := NewAccessStats(4)
	b := &Batch{Indices: []int64{0, 1, 2}, Offsets: []int32{0}}
	if err := s.RecordBatch(b); err != nil {
		t.Fatal(err)
	}
	if s.Total != 3 {
		t.Fatalf("Total = %d", s.Total)
	}
	bad := &Batch{Indices: []int64{9}, Offsets: []int32{0}}
	if err := s.RecordBatch(bad); err == nil {
		t.Fatal("want range error")
	}
	// A failing batch keeps the accesses before the bad index and drops
	// the rest, in Counts and Total alike.
	s = NewAccessStats(4)
	partial := &Batch{Indices: []int64{0, 3, 3, -1, 2}, Offsets: []int32{0}}
	if err := s.RecordBatch(partial); !errors.Is(err, ErrIndexRange) {
		t.Fatalf("want ErrIndexRange, got %v", err)
	}
	if s.Total != 3 || s.Counts[0] != 1 || s.Counts[3] != 2 || s.Counts[2] != 0 {
		t.Fatalf("after a failed batch Total = %d, Counts = %v; want 3, [1 0 0 2]", s.Total, s.Counts)
	}
}

func TestHotnessPermutation(t *testing.T) {
	s := NewAccessStats(4)
	s.Counts = []int64{5, 20, 0, 20}
	s.Total = 45
	perm := s.HotnessPermutation()
	// Ties broken by original index: 1 (20), 3 (20), 0 (5), 2 (0).
	want := []int64{1, 3, 0, 2}
	for i := range want {
		if perm[i] != want[i] {
			t.Fatalf("perm = %v, want %v", perm, want)
		}
	}
}

// comparatorHotnessPermutation is the comparator sort HotnessPermutation
// must agree with: descending count, ties by ascending original index.
func comparatorHotnessPermutation(counts []int64) []int64 {
	perm := make([]int64, len(counts))
	for i := range perm {
		perm[i] = int64(i)
	}
	sort.SliceStable(perm, func(a, b int) bool {
		ca, cb := counts[perm[a]], counts[perm[b]]
		if ca != cb {
			return ca > cb
		}
		return perm[a] < perm[b]
	})
	return perm
}

// TestHotnessSortMatchesComparatorSort checks the radix hotness sort and
// SortedCounts against comparator sorts on corpora that stress ties,
// digit counts and sizes.
func TestHotnessSortMatchesComparatorSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	corpus := func(n int, gen func(i int) int64) []int64 {
		c := make([]int64, n)
		for i := range c {
			c[i] = gen(i)
		}
		return c
	}
	cases := map[string][]int64{
		"empty":      {},
		"n=1":        {42},
		"n=1 zero":   {0},
		"all zeros":  make([]int64, 1000),
		"all equal":  corpus(1000, func(int) int64 { return 7 }),
		"many ties":  corpus(5000, func(int) int64 { return rng.Int63n(4) }),
		"one digit":  corpus(3000, func(int) int64 { return rng.Int63n(256) }),
		"two digits": corpus(3000, func(int) int64 { return rng.Int63n(1 << 16) }),
		"zipf-like": corpus(20000, func(i int) int64 {
			return int64(100000 / (1 + rng.Intn(i+1)))
		}),
		"at least 2^40": corpus(3000, func(int) int64 { return 1<<40 + rng.Int63n(1<<20) }),
		"near 2^62": corpus(3000, func(int) int64 {
			if rng.Intn(3) == 0 {
				return 0
			}
			return 1<<62 - rng.Int63n(8)
		}),
		"max int64": {math.MaxInt64, 0, math.MaxInt64, 1, 0},
	}
	for name, counts := range cases {
		s := &AccessStats{Counts: counts}
		got, want := s.HotnessPermutation(), comparatorHotnessPermutation(counts)
		if !slices.Equal(got, want) {
			t.Errorf("%s: HotnessPermutation differs from the comparator sort", name)
		}
		sorted := slices.Clone(counts)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a] > sorted[b] })
		if got := s.SortedCounts(); !slices.Equal(got, sorted) {
			t.Errorf("%s: SortedCounts = %v, want %v", name, got, sorted)
		}
	}
}

// TestCDFFromPermutationMatchesNewCDF pins the one-sort CDF that
// Preprocess builds from its hotness permutation Float64bits-identical to
// NewCDF's, which sorts a copy of the counts: ties, skew, a single row, an
// unprofiled table (the uniform CDF) and a profile recorded through
// RecordBatch.
func TestCDFFromPermutationMatchesNewCDF(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	gen := func(n int, f func(i int) int64) *AccessStats {
		s := NewAccessStats(int64(n))
		for i := range s.Counts {
			s.Counts[i] = f(i)
			s.Total += s.Counts[i]
		}
		return s
	}
	recorded := NewAccessStats(5000)
	for i := 0; i < 50; i++ {
		b := &Batch{Offsets: []int32{0}}
		for j := 0; j < 400; j++ {
			b.Indices = append(b.Indices, int64(rng.ExpFloat64()*300)%5000)
		}
		if err := recorded.RecordBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	cases := map[string]*AccessStats{
		"n=1":        gen(1, func(int) int64 { return 42 }),
		"unprofiled": gen(1000, func(int) int64 { return 0 }),
		"many ties":  gen(5000, func(int) int64 { return rng.Int63n(4) }),
		"two digits": gen(3000, func(int) int64 { return rng.Int63n(1 << 16) }),
		"zipf-like": gen(20000, func(i int) int64 {
			return int64(100000 / (1 + rng.Intn(i+1)))
		}),
		"recorded": recorded,
	}
	for name, s := range cases {
		want := NewCDF(s)
		got := NewCDFFromPermutation(s, s.HotnessPermutation())
		if len(got.cum) != len(want.cum) {
			t.Fatalf("%s: %d rows, want %d", name, len(got.cum), len(want.cum))
		}
		for i := range want.cum {
			if math.Float64bits(got.cum[i]) != math.Float64bits(want.cum[i]) {
				t.Fatalf("%s: cum[%d] = %v, NewCDF has %v", name, i, got.cum[i], want.cum[i])
			}
		}
	}
}

func TestSortedCountsDescending(t *testing.T) {
	s := NewAccessStats(5)
	s.Counts = []int64{3, 9, 1, 7, 7}
	sorted := s.SortedCounts()
	for i := 1; i < len(sorted); i++ {
		if sorted[i] > sorted[i-1] {
			t.Fatalf("not descending: %v", sorted)
		}
	}
	// Original untouched.
	if s.Counts[0] != 3 {
		t.Fatal("SortedCounts must not mutate")
	}
}

func TestLocalityP(t *testing.T) {
	s := NewAccessStats(10)
	// Top-1 row (10% of 10 rows) gets 90 of 100 accesses.
	s.Counts[7] = 90
	s.Counts[2] = 10
	s.Total = 100
	if got := s.LocalityP(); math.Abs(got-0.9) > 1e-9 {
		t.Fatalf("LocalityP = %v, want 0.9", got)
	}
	empty := NewAccessStats(10)
	if empty.LocalityP() != 0 {
		t.Fatal("empty stats must report 0")
	}
}

func TestCDFBasicInvariants(t *testing.T) {
	s := NewAccessStats(4)
	s.Counts = []int64{1, 4, 3, 2}
	s.Total = 10
	c := NewCDF(s)
	if c.Rows() != 4 {
		t.Fatalf("Rows = %d", c.Rows())
	}
	if c.At(0) != 0 {
		t.Fatalf("At(0) = %v", c.At(0))
	}
	if c.At(4) != 1 {
		t.Fatalf("At(4) = %v", c.At(4))
	}
	if c.At(100) != 1 || c.At(-5) != 0 {
		t.Fatal("At must clamp")
	}
	// Sorted counts: 4,3,2,1 -> At(1)=0.4, At(2)=0.7.
	if math.Abs(c.At(1)-0.4) > 1e-9 || math.Abs(c.At(2)-0.7) > 1e-9 {
		t.Fatalf("At(1)=%v At(2)=%v", c.At(1), c.At(2))
	}
	if p := c.RangeProbability(1, 3); math.Abs(p-0.5) > 1e-9 {
		t.Fatalf("RangeProbability(1,3) = %v, want 0.5", p)
	}
	if p := c.RangeProbability(3, 1); p != 0 {
		t.Fatalf("inverted range must be 0, got %v", p)
	}
}

func TestCDFUniformWhenEmpty(t *testing.T) {
	s := NewAccessStats(4)
	c := NewCDF(s)
	if math.Abs(c.At(2)-0.5) > 1e-9 {
		t.Fatalf("uniform CDF At(2) = %v, want 0.5", c.At(2))
	}
}

func TestCDFProportionalCuts(t *testing.T) {
	// 10 rows, counts 10,9,...,1 (already hotness-sorted): total 55.
	s := NewAccessStats(10)
	for i := int64(0); i < 10; i++ {
		for n := int64(0); n < 10-i; n++ {
			if err := record(s, i); err != nil {
				t.Fatal(err)
			}
		}
	}
	c := NewCDF(s)
	cuts := c.ProportionalCuts(0.5, 0.9)
	if len(cuts) != 3 || cuts[len(cuts)-1] != 10 {
		t.Fatalf("cuts = %v, want 2 fraction cuts + full row count", cuts)
	}
	for i, cut := range cuts[:len(cuts)-1] {
		frac := []float64{0.5, 0.9}[i]
		if c.At(cut) < frac {
			t.Fatalf("cut %d at row %d covers %v < %v", i, cut, c.At(cut), frac)
		}
		if cut > 1 && c.At(cut-1) >= frac {
			t.Fatalf("cut %d at row %d is not minimal", i, cut)
		}
	}
	if got := c.ProportionalCuts(); len(got) != 1 || got[0] != 10 {
		t.Fatalf("no-fraction cuts = %v, want just the row count", got)
	}
}

// Property: a CDF is monotonically non-decreasing and RangeProbability
// partitions: At(j) == sum of adjacent ranges.
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 2 {
			return true
		}
		if len(raw) > 64 {
			raw = raw[:64]
		}
		s := NewAccessStats(int64(len(raw)))
		for i, r := range raw {
			s.Counts[i] = int64(r)
			s.Total += int64(r)
		}
		c := NewCDF(s)
		prev := 0.0
		for j := int64(0); j <= c.Rows(); j++ {
			cur := c.At(j)
			if cur < prev-1e-12 {
				return false
			}
			prev = cur
		}
		mid := c.Rows() / 2
		lhs := c.At(c.Rows())
		rhs := c.RangeProbability(0, mid) + c.RangeProbability(mid, c.Rows())
		return math.Abs(lhs-rhs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
