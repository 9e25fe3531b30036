package workload

import (
	"testing"
)

// hottestRow returns the most-sampled row over n draws.
func hottestRow(t *testing.T, s Sampler, seed uint64, n int) int64 {
	t.Helper()
	rng := NewRNG(seed)
	counts := make(map[int64]int)
	for i := 0; i < n; i++ {
		counts[s.SampleRank(rng)]++
	}
	best, bestC := int64(-1), -1
	for r, c := range counts {
		if c > bestC {
			best, bestC = r, c
		}
	}
	return best
}

func TestDriftingSamplerRotatesHotSet(t *testing.T) {
	base, err := NewPowerLawSampler(1000, 0.95, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDriftingSampler(base)
	if err != nil {
		t.Fatal(err)
	}
	// With shift 0 the sampler is the base sampler: rank 0 is hottest.
	if got := hottestRow(t, d, 7, 4000); got != 0 {
		t.Fatalf("hottest row before drift = %d, want 0", got)
	}
	// After drifting by 500 the hot set has migrated to mid-table.
	d.SetShift(500)
	if got := hottestRow(t, d, 7, 4000); got != 500 {
		t.Fatalf("hottest row after drift = %d, want 500", got)
	}
	// Advance composes and wraps around the table size.
	if got := d.Advance(700); got != 1200 {
		t.Fatalf("Advance returned %d, want 1200", got)
	}
	if got := hottestRow(t, d, 7, 4000); got != 200 {
		t.Fatalf("hottest row after wrap = %d, want 200 (1200 mod 1000)", got)
	}
	if got := d.shift.Load(); got != 1200 {
		t.Fatalf("shift = %d", got)
	}
}

func TestDriftingSamplerPreservesDistributionShape(t *testing.T) {
	base, err := NewPowerLawSampler(2000, 0.9, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDriftingSampler(base)
	if err != nil {
		t.Fatal(err)
	}
	d.SetShift(1234)
	// The rotated distribution still concentrates ~P of mass on 10% of
	// rows — just a different 10%.
	rng := NewRNG(3)
	const n = 20000
	counts := make([]int, 2000)
	for i := 0; i < n; i++ {
		counts[d.SampleRank(rng)]++
	}
	hot := 0
	for i := int64(0); i < 200; i++ { // the drifted hot segment
		hot += counts[(1234+i)%2000]
	}
	p := float64(hot) / n
	if p < 0.85 || p > 0.95 {
		t.Fatalf("drifted hot-segment mass = %.3f, want ~0.9", p)
	}
}

func TestDriftingSamplerValidation(t *testing.T) {
	if _, err := NewDriftingSampler(nil); err == nil {
		t.Fatal("want nil-base error")
	}
}

func TestDriftingSamplerNegativeShift(t *testing.T) {
	base, err := NewPowerLawSampler(100, 0.9, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	d, _ := NewDriftingSampler(base)
	d.SetShift(-30)
	rng := NewRNG(11)
	for i := 0; i < 1000; i++ {
		r := d.SampleRank(rng)
		if r < 0 || r >= 100 {
			t.Fatalf("rank %d out of range under negative shift", r)
		}
	}
}
