package workload

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must reproduce the stream")
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10_000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(2)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for non-positive bound")
		}
	}()
	r.Intn(0)
}

func TestExpFloat64Mean(t *testing.T) {
	r := NewRNG(3)
	var sum float64
	const n = 50_000
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	if mean := sum / n; math.Abs(mean-1) > 0.05 {
		t.Fatalf("exponential mean = %v, want ~1", mean)
	}
}

func TestNewPowerLawSamplerValidation(t *testing.T) {
	if _, err := NewPowerLawSampler(0, 0.9, 1); err == nil {
		t.Fatal("want error for zero rows")
	}
	if _, err := NewPowerLawSampler(10, 0, 1); err == nil {
		t.Fatal("want error for P=0")
	}
	if _, err := NewPowerLawSampler(10, 1.5, 1); err == nil {
		t.Fatal("want error for P>1")
	}
	if _, err := NewPowerLawSampler(10, 0.9, -1); err == nil {
		t.Fatal("want error for negative exponent")
	}
}

func TestPowerLawLocalityEmpirical(t *testing.T) {
	const rows = 10_000
	for _, p := range []float64{0.10, 0.50, 0.90} {
		s, err := NewPowerLawSampler(rows, p, 0.9)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRNG(11)
		hot := int64(float64(rows) * HotFraction)
		inHot := 0
		const draws = 100_000
		for i := 0; i < draws; i++ {
			if s.SampleRank(r) < hot {
				inHot++
			}
		}
		got := float64(inHot) / draws
		if math.Abs(got-p) > 0.01 {
			t.Errorf("P=%v: measured hot fraction %v", p, got)
		}
	}
}

func TestPowerLawRanksInRange(t *testing.T) {
	s, _ := NewPowerLawSampler(100, 0.9, 1.0)
	r := NewRNG(5)
	for i := 0; i < 10_000; i++ {
		rank := s.SampleRank(r)
		if rank < 0 || rank >= 100 {
			t.Fatalf("rank %d out of range", rank)
		}
	}
}

func TestPowerLawSingleRow(t *testing.T) {
	s, err := NewPowerLawSampler(1, 0.9, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.SampleRank(NewRNG(1)); got != 0 {
		t.Fatalf("single-row rank = %d", got)
	}
}

func TestAnalyticCDFMatchesEmpirical(t *testing.T) {
	const rows = 5000
	s, _ := NewPowerLawSampler(rows, 0.9, 0.9)
	cdf := s.Analytic()
	counts := make([]int64, rows)
	r := NewRNG(21)
	const draws = 200_000
	for i := 0; i < draws; i++ {
		counts[s.SampleRank(r)]++
	}
	for _, j := range []int64{rows / 100, rows / 10, rows / 2, rows} {
		var emp int64
		for _, c := range counts[:j] {
			emp += c
		}
		got := float64(emp) / draws
		want := cdf.At(j)
		if math.Abs(got-want) > 0.02 {
			t.Errorf("At(%d): empirical %v vs analytic %v", j, got, want)
		}
	}
}

func TestAnalyticCDFInvariants(t *testing.T) {
	s, _ := NewPowerLawSampler(1000, 0.9, 1.1)
	cdf := s.Analytic()
	if cdf.At(0) != 0 || cdf.At(1000) != 1 || cdf.At(2000) != 1 || cdf.At(-1) != 0 {
		t.Fatal("boundary clamps broken")
	}
	prev := 0.0
	for j := int64(0); j <= 1000; j += 10 {
		cur := cdf.At(j)
		if cur < prev {
			t.Fatalf("CDF decreases at %d", j)
		}
		prev = cur
	}
	if cdf.Rows() != 1000 {
		t.Fatalf("Rows = %d", cdf.Rows())
	}
	if p := cdf.RangeProbability(500, 100); p != 0 {
		t.Fatal("inverted range must clamp to 0")
	}
}

func TestShuffledMappingIsPermutation(t *testing.T) {
	m := NewShuffledMapping(100, 9)
	seen := make(map[int64]bool)
	for rank := int64(0); rank < 100; rank++ {
		row := m.RowOf(rank)
		if row < 0 || row >= 100 || seen[row] {
			t.Fatalf("not a permutation at rank %d -> %d", rank, row)
		}
		seen[row] = true
	}
	if m.Rows() != 100 {
		t.Fatalf("Rows = %d", m.Rows())
	}
	if got := m.RankOf(m.RowOf(42)); got != 42 {
		t.Fatalf("RankOf(RowOf(42)) = %d", got)
	}
	if m.RankOf(-1) != -1 {
		t.Fatal("RankOf of unknown row must be -1")
	}
}

func TestIdentityMapping(t *testing.T) {
	m := IdentityMapping(10)
	if m.RowOf(3) != 3 || m.Rows() != 10 {
		t.Fatal("identity mapping broken")
	}
}

func TestQueryGeneratorShapes(t *testing.T) {
	s, _ := NewPowerLawSampler(1000, 0.9, 0.9)
	g, err := NewQueryGenerator(s, nil, 4, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	b := g.Next()
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	if b.BatchSize() != 4 || len(b.Indices) != 32 {
		t.Fatalf("batch %d lookups %d", b.BatchSize(), len(b.Indices))
	}
	for _, idx := range b.Indices {
		if idx < 0 || idx >= 1000 {
			t.Fatalf("index %d out of range", idx)
		}
	}
	rb := g.NextRanks()
	if rb.BatchSize() != 4 || len(rb.Indices) != 32 {
		t.Fatal("NextRanks shape broken")
	}
}

func TestQueryGeneratorValidation(t *testing.T) {
	s, _ := NewPowerLawSampler(1000, 0.9, 0.9)
	if _, err := NewQueryGenerator(s, nil, 0, 8, 1); err == nil {
		t.Fatal("want batch size error")
	}
	if _, err := NewQueryGenerator(s, nil, 4, 0, 1); err == nil {
		t.Fatal("want pooling error")
	}
	if _, err := NewQueryGenerator(s, IdentityMapping(5), 4, 8, 1); err == nil {
		t.Fatal("want mapping size mismatch error")
	}
}

// Property: the analytic CDF is a valid distribution for arbitrary valid
// parameters.
func TestAnalyticCDFProperty(t *testing.T) {
	f := func(rowsRaw uint16, pRaw, sRaw uint8) bool {
		rows := int64(rowsRaw)%5000 + 2
		p := float64(pRaw%90+10) / 100 // 0.10..0.99
		s := float64(sRaw%20) / 10     // 0..1.9
		sampler, err := NewPowerLawSampler(rows, p, s)
		if err != nil {
			return false
		}
		cdf := sampler.Analytic()
		prev := 0.0
		steps := rows / 7
		if steps == 0 {
			steps = 1
		}
		for j := int64(0); j <= rows; j += steps {
			cur := cdf.At(j)
			if cur < prev-1e-12 || cur < 0 || cur > 1+1e-12 {
				return false
			}
			prev = cur
		}
		return math.Abs(cdf.At(rows)-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
