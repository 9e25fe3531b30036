package workload

import (
	"math"
	"testing"
	"time"
)

func TestTrafficPatternValidation(t *testing.T) {
	if _, err := NewTrafficPattern(nil, time.Minute); err == nil {
		t.Fatal("want error for empty phases")
	}
	if _, err := NewTrafficPattern([]TrafficPhase{{Start: time.Second, TargetQPS: 1}}, time.Minute); err == nil {
		t.Fatal("want error when first phase not at 0")
	}
	if _, err := NewTrafficPattern([]TrafficPhase{{Start: 0, TargetQPS: -1}}, time.Minute); err == nil {
		t.Fatal("want error for negative QPS")
	}
	if _, err := NewTrafficPattern([]TrafficPhase{{Start: 0, TargetQPS: 1}, {Start: 0, TargetQPS: 2}}, time.Minute); err == nil {
		t.Fatal("want error for duplicate starts")
	}
	if _, err := NewTrafficPattern([]TrafficPhase{{Start: 0, TargetQPS: 1}}, 0); err == nil {
		t.Fatal("want error for zero duration")
	}
}

func TestTrafficPatternQPSAt(t *testing.T) {
	p, err := NewTrafficPattern([]TrafficPhase{
		{Start: 0, TargetQPS: 10},
		{Start: time.Minute, TargetQPS: 20},
		{Start: 2 * time.Minute, TargetQPS: 5},
	}, 3*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		at   time.Duration
		want float64
	}{
		{0, 10},
		{30 * time.Second, 10},
		{time.Minute, 20},
		{90 * time.Second, 20},
		{2 * time.Minute, 5},
		{-time.Second, 10},
		{time.Hour, 5}, // clamped to last phase
	}
	for _, c := range cases {
		if got := p.QPSAt(c.at); got != c.want {
			t.Errorf("QPSAt(%v) = %v, want %v", c.at, got, c.want)
		}
	}
	if p.Duration() != 3*time.Minute {
		t.Fatal("Duration mismatch")
	}
}

func TestTrafficPatternSortsPhases(t *testing.T) {
	p, err := NewTrafficPattern([]TrafficPhase{
		{Start: time.Minute, TargetQPS: 20},
		{Start: 0, TargetQPS: 10},
	}, 2*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if p.QPSAt(0) != 10 {
		t.Fatal("phases must sort by start")
	}
}

func TestFigure19Pattern(t *testing.T) {
	p := Figure19Pattern(250)
	if p.Duration() != 30*time.Minute {
		t.Fatalf("Duration = %v", p.Duration())
	}
	if got := p.QPSAt(0); got != 50 {
		t.Fatalf("base = %v, want 50", got)
	}
	if got := p.QPSAt(21 * time.Minute); got != 250 {
		t.Fatalf("peak = %v, want 250", got)
	}
	if got := p.QPSAt(25 * time.Minute); got != 100 {
		t.Fatalf("after decrease = %v, want 100", got)
	}
	// Five increments between minute 5 and 20 (paper description).
	prev := p.QPSAt(4 * time.Minute)
	increments := 0
	for m := 5; m <= 20; m++ {
		cur := p.QPSAt(time.Duration(m) * time.Minute)
		if cur > prev {
			increments++
		}
		prev = cur
	}
	if increments != 5 {
		t.Fatalf("increments = %d, want 5", increments)
	}
}

func TestPoissonArrivalsRate(t *testing.T) {
	p, err := NewTrafficPattern([]TrafficPhase{{Start: 0, TargetQPS: 100}}, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	a := NewPoissonArrivals(p, 13)
	n := 0
	prev := time.Duration(0)
	for {
		at, ok := a.Next()
		if !ok {
			break
		}
		if at < prev {
			t.Fatal("arrivals must be monotone")
		}
		prev = at
		n++
	}
	// Expect ~6000 arrivals over 60s at 100 QPS.
	if math.Abs(float64(n)-6000) > 300 {
		t.Fatalf("arrivals = %d, want ~6000", n)
	}
}

func TestPoissonArrivalsZeroRate(t *testing.T) {
	p, err := NewTrafficPattern([]TrafficPhase{
		{Start: 0, TargetQPS: 0},
		{Start: 10 * time.Second, TargetQPS: 10},
	}, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	a := NewPoissonArrivals(p, 17)
	at, ok := a.Next()
	if !ok {
		t.Fatal("expected arrivals in second phase")
	}
	if at < 10*time.Second {
		t.Fatalf("first arrival %v during zero-rate phase", at)
	}
}

func TestDatasetShapes(t *testing.T) {
	for _, ds := range Datasets() {
		s, err := NewPowerLawSampler(ds.Rows, ds.LocalityP, ds.Exponent)
		if err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		if s.Rows() != ds.Rows {
			t.Fatalf("%s rows mismatch", ds.Name)
		}
	}
}

func TestAccessFrequenciesSortedAndNormalized(t *testing.T) {
	ds := MovieLens
	freqs, err := ds.AccessFrequencies(500_000, 5000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(freqs) != 5000 {
		t.Fatalf("len = %d", len(freqs))
	}
	var sum float64
	prev := math.Inf(1)
	for _, f := range freqs {
		if f > prev {
			t.Fatal("frequencies must be sorted descending")
		}
		prev = f
		sum += f
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Fatalf("sum = %v, want 100%%", sum)
	}
	// Power law: top 10% of rows should cover ~P of accesses.
	var top float64
	for _, f := range freqs[:500] {
		top += f
	}
	// The descending re-sort can only raise coverage above the design
	// target (sorting maximizes the head), so allow asymmetric slack.
	if cov := top / 100; cov < ds.LocalityP-0.01 || cov > ds.LocalityP+0.04 {
		t.Fatalf("top-10%% coverage = %v, want ~%v", cov, ds.LocalityP)
	}
}
