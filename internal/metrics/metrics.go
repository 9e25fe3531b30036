// Package metrics implements the statistics substrate the serving system
// reports: monotonic counters, windowed QPS meters, a streaming quantile
// sketch for tail latency, and the memory-utility tracker from Sec. VI-B of
// the paper (fraction of a shard's embedding rows actually touched while
// servicing queries).
//
// Everything in this package is safe for concurrent use; the live serving
// engine updates these from many goroutines.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter.
type Counter struct {
	mu sync.Mutex
	n  int64
}

// Inc adds delta (which must be >= 0) to the counter.
func (c *Counter) Inc(delta int64) {
	if delta < 0 {
		panic("metrics: negative increment on Counter")
	}
	c.mu.Lock()
	c.n += delta
	c.mu.Unlock()
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// GaugeVec is a labeled family of gauges, created on first Set — the
// shape the serving layer uses for per-epoch, per-shard utility series
// ("epoch3/t0/s1" → utility) that outlive the epoch that produced them.
type GaugeVec struct {
	mu sync.Mutex
	m  map[string]float64
}

// NewGaugeVec creates an empty gauge family.
func NewGaugeVec() *GaugeVec {
	return &GaugeVec{m: make(map[string]float64)}
}

// Set stores v under the label.
func (g *GaugeVec) Set(label string, v float64) {
	g.mu.Lock()
	g.m[label] = v
	g.mu.Unlock()
}

// Value returns the gauge stored under the label and whether it exists.
func (g *GaugeVec) Value(label string) (float64, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	v, ok := g.m[label]
	return v, ok
}

// Labels returns every label with a stored gauge, sorted.
func (g *GaugeVec) Labels() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]string, 0, len(g.m))
	for l := range g.m {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// QPSMeter measures completed-queries-per-second over a sliding window.
type QPSMeter struct {
	mu     sync.Mutex
	window time.Duration
	// events[head:] are the marks still inside the window, oldest first, as
	// offsets from base (8 bytes each, not a 24-byte time.Time). Expiry only
	// advances head, so a Mark costs O(1) amortised however many events the
	// window holds.
	events []time.Duration
	head   int
	base   time.Time
	now    func() time.Time
}

// NewQPSMeter creates a meter with the given sliding window (e.g. 10s).
func NewQPSMeter(window time.Duration) *QPSMeter {
	return newQPSMeterAt(window, time.Now)
}

// newQPSMeterAt is NewQPSMeter on an injectable clock (a test seam).
func newQPSMeterAt(window time.Duration, now func() time.Time) *QPSMeter {
	if window <= 0 {
		window = 10 * time.Second
	}
	return &QPSMeter{window: window, base: now(), now: now}
}

// Mark records one completed query at the current time.
func (m *QPSMeter) Mark() {
	t := m.now().Sub(m.base)
	m.mu.Lock()
	m.events = append(m.events, t)
	m.trimLocked(t)
	m.mu.Unlock()
}

// trimLocked expires the marks older than the window at offset now. The
// expired prefix is reclaimed only once it is over half the slice, so each
// compaction copies fewer live events than were expired since the last.
func (m *QPSMeter) trimLocked(now time.Duration) {
	cut := now - m.window
	for m.head < len(m.events) && m.events[m.head] < cut {
		m.head++
	}
	if m.head > len(m.events)/2 {
		n := copy(m.events, m.events[m.head:])
		m.events = m.events[:n]
		m.head = 0
	}
}

// Rate returns the average queries/sec over the window.
func (m *QPSMeter) Rate() float64 {
	t := m.now().Sub(m.base)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.trimLocked(t)
	return float64(len(m.events)-m.head) / m.window.Seconds()
}

// LatencyRecorder keeps a bounded reservoir of latency samples and reports
// quantiles. With fewer samples than the reservoir size it is exact; beyond
// that it keeps a uniform random-replacement reservoir, which is accurate
// enough for the P95 SLA checks the paper performs.
type LatencyRecorder struct {
	mu      sync.Mutex
	samples []time.Duration
	seen    int64
	cap     int
	rngSt   uint64
}

// NewLatencyRecorder creates a recorder holding up to capacity samples
// (default 8192 when capacity <= 0).
func NewLatencyRecorder(capacity int) *LatencyRecorder {
	if capacity <= 0 {
		capacity = 8192
	}
	return &LatencyRecorder{cap: capacity, rngSt: 0x9e3779b97f4a7c15}
}

func (l *LatencyRecorder) nextRand() uint64 {
	l.rngSt += 0x9e3779b97f4a7c15
	z := l.rngSt
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Observe records one latency sample.
func (l *LatencyRecorder) Observe(d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seen++
	if len(l.samples) < l.cap {
		l.samples = append(l.samples, d)
		return
	}
	// Vitter's Algorithm R replacement.
	j := l.nextRand() % uint64(l.seen)
	if j < uint64(l.cap) {
		l.samples[j] = d
	}
}

// Count returns the total number of observed samples.
func (l *LatencyRecorder) Count() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seen
}

// Quantile returns the q-quantile (0 <= q <= 1) of the observed latencies,
// or 0 when no samples have been recorded.
func (l *LatencyRecorder) Quantile(q float64) time.Duration {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	l.mu.Lock()
	snapshot := make([]time.Duration, len(l.samples))
	copy(snapshot, l.samples)
	l.mu.Unlock()
	if len(snapshot) == 0 {
		return 0
	}
	sort.Slice(snapshot, func(i, j int) bool { return snapshot[i] < snapshot[j] })
	idx := int(math.Ceil(q*float64(len(snapshot)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(snapshot) {
		idx = len(snapshot) - 1
	}
	return snapshot[idx]
}

// Histogram counts observations into fixed buckets — the shape the serving
// batcher exports for queue depth and fused-batch size so the autoscaler
// and stress tester can see how the dynamic-batching pipeline behaves.
// Bucket i counts observations v with v <= Bounds[i]; one extra overflow
// bucket counts everything above the last bound.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64
	counts []int64
	sum    float64
	n      int64
}

// NewHistogram creates a histogram over the given ascending bucket upper
// bounds (e.g. 1, 2, 4, 8, ...). An empty bounds slice yields a single
// overflow bucket that still tracks count and mean.
func NewHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.n++
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// Mean returns the mean observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n == 0 {
		return 0
	}
	return h.sum / float64(h.n)
}

// HistogramBucket is one row of a histogram snapshot.
type HistogramBucket struct {
	UpperBound float64 // +Inf for the overflow bucket
	Count      int64
}

// Snapshot returns the per-bucket counts (last bucket's bound is +Inf).
func (h *Histogram) Snapshot() []HistogramBucket {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]HistogramBucket, len(h.counts))
	for i := range h.counts {
		ub := math.Inf(1)
		if i < len(h.bounds) {
			ub = h.bounds[i]
		}
		out[i] = HistogramBucket{UpperBound: ub, Count: h.counts[i]}
	}
	return out
}

// String renders the non-empty buckets compactly, e.g. "≤1:12 ≤4:3 >8:1".
func (h *Histogram) String() string {
	snap := h.Snapshot()
	s := ""
	for i, b := range snap {
		if b.Count == 0 {
			continue
		}
		if s != "" {
			s += " "
		}
		if math.IsInf(b.UpperBound, 1) {
			if i > 0 {
				s += fmt.Sprintf(">%g:%d", snap[i-1].UpperBound, b.Count)
			} else {
				s += fmt.Sprintf("all:%d", b.Count)
			}
		} else {
			s += fmt.Sprintf("≤%g:%d", b.UpperBound, b.Count)
		}
	}
	if s == "" {
		return "empty"
	}
	return s
}

// UtilityTracker measures memory utility for one embedding shard: the
// fraction of the shard's rows touched at least once while servicing
// queries (Sec. VI-B measures this over the first 1,000 queries). It is a
// lock-free bitset — one bit per row — because Touch runs once per
// looked-up index on the gather hot path: the steady state (a row already
// seen) is a single atomic load with no write. The count is popcounted on
// read, so it is exact whenever no Touch or Reset is in flight and can only
// be momentarily stale — never outside [0, rows] — while they race.
type UtilityTracker struct {
	words []atomic.Uint64 // bit r&63 of words[r>>6] is set once row r was touched
	rows  int64
}

// NewUtilityTracker creates a tracker for a shard holding rows embedding
// vectors.
func NewUtilityTracker(rows int64) *UtilityTracker {
	if rows < 0 {
		rows = 0
	}
	return &UtilityTracker{words: make([]atomic.Uint64, (rows+63)/64), rows: rows}
}

// Touch records an access to the given local row index. Rows outside
// [0, rows) are ignored.
func (u *UtilityTracker) Touch(row int64) {
	if uint64(row) >= uint64(u.rows) {
		return
	}
	w := &u.words[row>>6]
	m := uint64(1) << (uint(row) & 63)
	// A CompareAndSwap loop, not atomic.Uint64.Or: the go1.24.0 amd64
	// toolchain miscompiles an Or whose old value is used once it is
	// inlined into the gather path (a wild 0x2000000000 slice pointer
	// faults in rowCache.fill, every run of TestRowCacheEquivalence). Keep
	// Or/And out of this package until the toolchain moves. The load-first
	// test is the fast path anyway: a hot row is already set.
	for {
		old := w.Load()
		if old&m != 0 || w.CompareAndSwap(old, old|m) {
			return
		}
	}
}

// TouchAll records accesses to a batch of local row indices.
func (u *UtilityTracker) TouchAll(rows []int64) {
	for _, r := range rows {
		u.Touch(r)
	}
}

// Utility returns touched-rows / total-rows in [0, 1]. A shard with zero
// rows reports utility 0.
func (u *UtilityTracker) Utility() float64 {
	if u.rows == 0 {
		return 0
	}
	return float64(u.TouchedRows()) / float64(u.rows)
}

// TouchedRows returns the number of distinct rows accessed.
func (u *UtilityTracker) TouchedRows() int64 {
	var n int
	for i := range u.words {
		n += bits.OnesCount64(u.words[i].Load())
	}
	return int64(n)
}

// Reset clears the access set.
func (u *UtilityTracker) Reset() {
	for i := range u.words {
		u.words[i].Store(0)
	}
}

// FormatBytes renders a byte count in human-readable GB/MB/KB form, used by
// the CLI experiment output.
func FormatBytes(b int64) string {
	const (
		kb = 1 << 10
		mb = 1 << 20
		gb = 1 << 30
	)
	switch {
	case b >= gb:
		return fmt.Sprintf("%.2f GB", float64(b)/gb)
	case b >= mb:
		return fmt.Sprintf("%.2f MB", float64(b)/mb)
	case b >= kb:
		return fmt.Sprintf("%.2f KB", float64(b)/kb)
	default:
		return fmt.Sprintf("%d B", b)
	}
}
