package metrics

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc(3)
	c.Inc(0)
	if c.Value() != 3 {
		t.Fatalf("Value = %d, want 3", c.Value())
	}
}

func TestCounterPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on negative increment")
		}
	}()
	var c Counter
	c.Inc(-1)
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 16000 {
		t.Fatalf("Value = %d, want 16000", c.Value())
	}
}

func TestQPSMeterWindow(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	m := newQPSMeterAt(10*time.Second, clock)
	for i := 0; i < 50; i++ {
		m.Mark()
	}
	if got := m.Rate(); got != 5.0 {
		t.Fatalf("Rate = %v, want 5 (50 events / 10s)", got)
	}
	// Advance beyond the window: all events expire.
	now = now.Add(11 * time.Second)
	if got := m.Rate(); got != 0 {
		t.Fatalf("Rate after window = %v, want 0", got)
	}
}

// Rate must count exactly the marks a brute-force scan of every mark ever
// made finds inside the window, at every step of 3.5 windows at 2000/s.
// The gaps cycle 0, 0.5, 1, 0.5 ms, so marks repeat instants and land on
// the window edge itself (a mark exactly one window old still counts).
func TestQPSMeterMatchesBruteForce(t *testing.T) {
	const window = time.Second
	gaps := []time.Duration{0, 500 * time.Microsecond, time.Millisecond, 500 * time.Microsecond}
	now := time.Unix(100, 0)
	m := newQPSMeterAt(window, func() time.Time { return now })
	var all []time.Time
	check := func(step int) {
		cut := now.Add(-window)
		n := 0
		for _, e := range all {
			if !e.Before(cut) {
				n++
			}
		}
		if got, want := m.Rate(), float64(n)/window.Seconds(); got != want {
			t.Fatalf("step %d: Rate = %v, brute force %v", step, got, want)
		}
	}
	for i := 0; i < 7000; i++ {
		m.Mark()
		all = append(all, now)
		check(i)
		now = now.Add(gaps[i%len(gaps)])
	}
	for _, idle := range []time.Duration{window / 3, window / 2, window} {
		now = now.Add(idle)
		check(-1)
	}
	if m.Rate() != 0 {
		t.Fatalf("Rate after an idle window = %v, want 0", m.Rate())
	}
}

// BenchmarkQPSMeterMark times one Mark with a full 10 s window at a steady
// rate: the cost must not grow with the events the window holds.
func BenchmarkQPSMeterMark(b *testing.B) {
	for _, rate := range []int{1000, 2000} {
		b.Run(fmt.Sprintf("%d_per_s", rate), func(b *testing.B) {
			gap := time.Second / time.Duration(rate)
			now := time.Unix(0, 0)
			m := newQPSMeterAt(10*time.Second, func() time.Time { return now })
			for i := 0; i < 10*rate; i++ {
				m.Mark()
				now = now.Add(gap)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.Mark()
				now = now.Add(gap)
			}
		})
	}
}

func TestQPSMeterDefaultWindow(t *testing.T) {
	m := NewQPSMeter(0)
	if m.window != 10*time.Second {
		t.Fatalf("default window = %v", m.window)
	}
}

func TestLatencyRecorderExactQuantiles(t *testing.T) {
	l := NewLatencyRecorder(100)
	for i := 1; i <= 100; i++ {
		l.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := l.Quantile(0.95); got != 95*time.Millisecond {
		t.Fatalf("P95 = %v, want 95ms", got)
	}
	if got := l.Quantile(0.5); got != 50*time.Millisecond {
		t.Fatalf("P50 = %v, want 50ms", got)
	}
	if got := l.Quantile(1); got != 100*time.Millisecond {
		t.Fatalf("P100 = %v, want 100ms", got)
	}
	if got := l.Quantile(0); got != 1*time.Millisecond {
		t.Fatalf("P0 = %v, want 1ms", got)
	}
}

func TestLatencyRecorderEmptyAndClamps(t *testing.T) {
	l := NewLatencyRecorder(0)
	if l.Quantile(0.95) != 0 {
		t.Fatal("empty recorder must report zero")
	}
	l.Observe(time.Second)
	if l.Quantile(-1) != time.Second || l.Quantile(2) != time.Second {
		t.Fatal("quantile args must clamp")
	}
}

func TestLatencyRecorderReservoirBounded(t *testing.T) {
	l := NewLatencyRecorder(64)
	for i := 0; i < 10_000; i++ {
		l.Observe(time.Duration(i) * time.Microsecond)
	}
	if len(l.samples) != 64 {
		t.Fatalf("reservoir size = %d, want 64", len(l.samples))
	}
	if l.Count() != 10_000 {
		t.Fatalf("Count = %d", l.Count())
	}
	// Reservoir quantile should be within the observed range.
	q := l.Quantile(0.5)
	if q < 0 || q > 10*time.Millisecond {
		t.Fatalf("reservoir P50 = %v outside observed range", q)
	}
}

func TestUtilityTracker(t *testing.T) {
	u := NewUtilityTracker(10)
	u.Touch(1)
	u.Touch(1) // duplicate
	u.TouchAll([]int64{2, 3})
	if got := u.TouchedRows(); got != 3 {
		t.Fatalf("TouchedRows = %d, want 3", got)
	}
	if got := u.Utility(); got != 0.3 {
		t.Fatalf("Utility = %v, want 0.3", got)
	}
	u.Reset()
	if u.Utility() != 0 {
		t.Fatal("Reset must clear")
	}
}

func TestUtilityTrackerZeroRows(t *testing.T) {
	u := NewUtilityTracker(0)
	if u.Utility() != 0 {
		t.Fatal("zero-row tracker must report 0")
	}
	u = NewUtilityTracker(-5)
	if u.Utility() != 0 {
		t.Fatal("negative rows clamp to 0")
	}
}

// Eight goroutines TouchAll overlapping id sets (neighbours share half
// their ids, many ids share a word): no first touch may be lost to a
// concurrent CompareAndSwap on the same word.
func TestUtilityTrackerConcurrent(t *testing.T) {
	const rows, span, step = 5000, 1000, 500
	u := NewUtilityTracker(rows)
	distinct := make(map[int64]struct{})
	sets := make([][]int64, 8)
	for g := range sets {
		for i := 0; i < span; i++ {
			// Stride 3 from an overlapping base, wrapped into range.
			id := int64((g*step + i*3) % rows)
			sets[g] = append(sets[g], id)
			distinct[id] = struct{}{}
		}
	}
	var wg sync.WaitGroup
	for _, set := range sets {
		wg.Add(1)
		go func(set []int64) {
			defer wg.Done()
			for rep := 0; rep < 4; rep++ {
				u.TouchAll(set)
			}
		}(set)
	}
	wg.Wait()
	if got, want := u.TouchedRows(), int64(len(distinct)); got != want {
		t.Fatalf("TouchedRows = %d, want %d distinct", got, want)
	}
}

// Reset racing Touch may leave the count momentarily stale, but never
// outside the shard: Utility stays in [0, 1] at every read.
func TestUtilityTrackerResetRacesTouch(t *testing.T) {
	const rows = 300
	u := NewUtilityTracker(rows)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := int64(g); ; i = (i + 7) % rows {
				select {
				case <-stop:
					return
				default:
					u.Touch(i)
				}
			}
		}(g)
	}
	for i := 0; i < 2000; i++ {
		if i%3 == 0 {
			u.Reset()
		}
		if got := u.Utility(); got < 0 || got > 1 {
			close(stop)
			wg.Wait()
			t.Fatalf("Utility = %v outside [0, 1] while Reset races Touch", got)
		}
	}
	close(stop)
	wg.Wait()
	u.Reset()
	if u.TouchedRows() != 0 {
		t.Fatal("a quiescent Reset must clear every row")
	}
}

func TestUtilityTrackerIgnoresOutOfRange(t *testing.T) {
	u := NewUtilityTracker(70) // two words, the second partly used
	u.TouchAll([]int64{-1, -64, 70, 71, 127, 128, 1 << 40})
	if got := u.TouchedRows(); got != 0 {
		t.Fatalf("out-of-range rows counted: TouchedRows = %d", got)
	}
	u.TouchAll([]int64{0, 63, 64, 69})
	if got := u.TouchedRows(); got != 4 {
		t.Fatalf("TouchedRows = %d, want 4", got)
	}
	if got := u.Utility(); got != 4.0/70 {
		t.Fatalf("Utility = %v, want 4/70", got)
	}
}

// A tracker costs one bit per row — a 200k-row shard's is 25 KB, where
// the map it replaced grew to megabytes — and touching allocates nothing.
func TestUtilityTrackerFootprint(t *testing.T) {
	const rows = 200_000
	var u *UtilityTracker
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	u = NewUtilityTracker(rows)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 32<<10 {
		t.Fatalf("NewUtilityTracker(%d) allocated %d bytes, want < 32 KB", rows, got)
	}
	ids := make([]int64, 4096)
	for i := range ids {
		ids[i] = int64(i * 48)
	}
	if allocs := testing.AllocsPerRun(10, func() { u.TouchAll(ids) }); allocs != 0 {
		t.Fatalf("TouchAll allocated %v times per call, want 0", allocs)
	}
}

func TestFormatBytes(t *testing.T) {
	cases := []struct {
		in   int64
		want string
	}{
		{512, "512 B"},
		{2 << 10, "2.00 KB"},
		{3 << 20, "3.00 MB"},
		{5 << 30, "5.00 GB"},
	}
	for _, c := range cases {
		if got := FormatBytes(c.in); got != c.want {
			t.Errorf("FormatBytes(%d) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestHistogramBucketsAndStats(t *testing.T) {
	h := NewHistogram([]float64{1, 4, 8})
	for _, v := range []float64{0, 1, 2, 4, 5, 9, 100} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d", h.Count())
	}
	wantMean := (0.0 + 1 + 2 + 4 + 5 + 9 + 100) / 7
	if got := h.Mean(); got != wantMean {
		t.Fatalf("mean = %v, want %v", got, wantMean)
	}
	snap := h.Snapshot()
	// Buckets: <=1: {0,1}=2; <=4: {2,4}=2; <=8: {5}=1; overflow: {9,100}=2.
	wantCounts := []int64{2, 2, 1, 2}
	for i, w := range wantCounts {
		if snap[i].Count != w {
			t.Fatalf("bucket %d count = %d, want %d (snap %+v)", i, snap[i].Count, w, snap)
		}
	}
	if s := h.String(); s == "" || s == "empty" {
		t.Fatalf("String() = %q", s)
	}
	if s := NewHistogram(nil).String(); s != "empty" {
		t.Fatalf("empty String() = %q", s)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram([]float64{10})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				h.Observe(float64(i % 20))
			}
		}()
	}
	wg.Wait()
	if h.Count() != 800 {
		t.Fatalf("count = %d, want 800", h.Count())
	}
}

func TestGaugeVec(t *testing.T) {
	g := NewGaugeVec()
	if len(g.Labels()) != 0 {
		t.Fatal("fresh gauge vec not empty")
	}
	g.Set("epoch0/t0/s0", 0.75)
	g.Set("epoch0/t0/s1", 0.25)
	g.Set("epoch0/t0/s0", 0.8) // overwrite
	if v, ok := g.Value("epoch0/t0/s0"); !ok || v != 0.8 {
		t.Fatalf("gauge = %v %v", v, ok)
	}
	if _, ok := g.Value("missing"); ok {
		t.Fatal("missing label reported present")
	}
	labels := g.Labels()
	if len(labels) != 2 || labels[0] != "epoch0/t0/s0" || labels[1] != "epoch0/t0/s1" {
		t.Fatalf("labels = %v", labels)
	}
}

func TestGaugeVecConcurrent(t *testing.T) {
	g := NewGaugeVec()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				g.Set(fmt.Sprintf("w%d/%d", w, i%10), float64(i))
				g.Value(fmt.Sprintf("w%d/%d", (w+1)%8, i%10))
			}
		}(w)
	}
	wg.Wait()
	if n := len(g.Labels()); n != 80 {
		t.Fatalf("len = %d, want 80", n)
	}
}
