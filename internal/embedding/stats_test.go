package embedding

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestAccessStatsRecord(t *testing.T) {
	s := NewAccessStats(4)
	for _, idx := range []int64{0, 1, 1, 3, 3, 3} {
		if err := s.Record(idx); err != nil {
			t.Fatal(err)
		}
	}
	if s.Total != 6 {
		t.Fatalf("Total = %d", s.Total)
	}
	if s.Counts[3] != 3 || s.Counts[2] != 0 {
		t.Fatalf("Counts = %v", s.Counts)
	}
	if err := s.Record(4); !errors.Is(err, ErrIndexRange) {
		t.Fatalf("want ErrIndexRange, got %v", err)
	}
	if err := s.Record(-1); !errors.Is(err, ErrIndexRange) {
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
			if err := s.Record(i); err != nil {
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
