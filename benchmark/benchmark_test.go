package main

import (
	"context"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/serving"
)

const specPath = "../BENCHMARK.json"

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileAgainstSortedReference(t *testing.T) {
	r := newRNG(7)
	values := make([]float64, 1000)
	for i := range values {
		values[i] = r.float64() * 100
	}
	sort.Float64s(values)
	for _, tc := range []struct {
		q    float64
		rank int // 1-based nearest rank
	}{{0.50, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0.0001, 1}} {
		if got, want := percentile(values, tc.q), values[tc.rank-1]; got != want {
			t.Errorf("percentile(q=%v) = %v, want the value of rank %d, %v", tc.q, got, tc.rank, want)
		}
	}
	if got := percentile(nil, 0.99); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{4}, 0.99); got != 4 {
		t.Errorf("percentile of one value = %v, want it", got)
	}
}

func TestWindowedPercentileIsTheMedianOfWindowPercentiles(t *testing.T) {
	// Three 1 s windows of 100 samples; latencies 1..100 ms scaled by the
	// window, and one enormous stall in the last window only.
	var samples []sample
	for w := 0; w < 3; w++ {
		for i := 1; i <= 100; i++ {
			lat := time.Duration(i*(w+1)) * time.Millisecond
			if w == 2 && i == 100 {
				lat = time.Hour
			}
			samples = append(samples, sample{at: time.Duration(w)*time.Second + time.Duration(i)*time.Millisecond, lat: lat, ok: true})
		}
	}
	samples = append(samples, sample{at: 10 * time.Millisecond, lat: time.Hour}) // failed: ignored
	// Window p99s are 99, 198 and 297 ms; the stall is beyond the third's p99.
	if got := windowedPercentile(samples, 3*time.Second, 3, 0.99); !near(got, 198) {
		t.Errorf("windowed p99 = %v ms, want 198", got)
	}
	if got := windowedPercentile(nil, time.Second, 4, 0.99); got != 0 {
		t.Errorf("windowed p99 of nothing = %v, want 0", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, tc := range []struct {
		values []float64
		q1, q3 float64
	}{
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 5.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 12}, 9.5, 12.5},
		{[]float64{5, 1, 3}, 1, 5},
	} {
		q1, q3 := quartiles(tc.values)
		if !near(q1, tc.q1) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v, %v; statistics.quantiles gives %v, %v", tc.values, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("spread = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// tinyConfig is a model small enough to build in milliseconds.
func tinyConfig() model.Config {
	return model.Config{
		Name: "tiny", DenseInputDim: 4, BottomMLP: []int{8}, TopMLP: []int{1},
		NumTables: 2, RowsPerTable: 500, EmbeddingDim: 8, Pooling: 4, LocalityP: localityP, BatchSize: 4,
	}
}

func TestPoolIsAFunctionOfTheSeed(t *testing.T) {
	a := newRequestPool(tinyConfig(), 42, 12, 3)
	b := newRequestPool(tinyConfig(), 42, 12, 3)
	c := newRequestPool(tinyConfig(), 43, 12, 3)
	if a.hash != b.hash {
		t.Errorf("same seed, different pools: %x vs %x", a.hash, b.hash)
	}
	if a.hash == c.hash {
		t.Errorf("different seeds, same pool hash %x", a.hash)
	}
	for i, req := range a.reqs {
		if err := req.Validate(2); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if lo, hi := a.segment(2); lo != 8 || hi != 12 {
		t.Errorf("segment 2 of 12 requests in 3 segments = [%d, %d), want [8, 12)", lo, hi)
	}
}

func TestHotRowsAreNotTheLowIDs(t *testing.T) {
	cfg := tinyConfig()
	p := newRequestPool(cfg, 1, 64, 1)
	stats, err := p.accessStats(cfg, 0, len(p.reqs))
	if err != nil {
		t.Fatal(err)
	}
	if got := stats[0].LocalityP(); got < 0.8 {
		t.Errorf("locality P = %.2f, want about %.1f", got, localityP)
	}
	low := int64(0) // accesses landing in the lowest tenth of the ids
	for id := int64(0); id < cfg.RowsPerTable/10; id++ {
		low += stats[0].Counts[id]
	}
	if share := float64(low) / float64(stats[0].Total); share > 0.5 {
		t.Errorf("%.0f%% of accesses hit the lowest tenth of ids: the id mapping is not shuffled", 100*share)
	}
}

func TestCoverageAssertionFiresOnASmallPool(t *testing.T) {
	p := newRequestPool(tinyConfig(), 1, 4, 1)
	if p.distinctRows == 0 || p.distinctRows > 2*4*4*4 {
		t.Fatalf("distinct rows = %d, want between 1 and the %d lookups made", p.distinctRows, 2*4*4*4)
	}
	if err := p.checkCoverage(p.distinctRows/4 + 1); err == nil {
		t.Error("a pool touching fewer than 4x the cache's rows passed the coverage check")
	}
	if err := p.checkCoverage(p.distinctRows / 4); err != nil {
		t.Errorf("a pool touching 4x the cache's rows failed the coverage check: %v", err)
	}
	if err := p.checkCoverage(0); err != nil {
		t.Errorf("no cache, but the coverage check failed: %v", err)
	}
}

func TestClientsWalkTheCurrentSegmentAtCoprimeStrides(t *testing.T) {
	p := newRequestPool(tinyConfig(), 1, 30, 3) // three segments of 10
	g := newLoadgen(p, []serving.PredictClient{nil, nil})
	if g.strides[0] == g.strides[1] {
		t.Errorf("both clients stride by %d: they would replay the pool in lock step", g.strides[0])
	}
	g.origin = time.Now().Add(-segmentPeriod - segmentPeriod/2) // the middle of segment 1
	for c := range g.clients {
		seen := map[int]bool{}
		for step := 0; step < 10; step++ {
			i := g.pick(c, step)
			if i < 10 || i >= 20 {
				t.Fatalf("client %d step %d picked request %d, outside segment 1 = [10, 20)", c, step, i)
			}
			seen[i] = true
		}
		if len(seen) != 10 {
			t.Errorf("client %d visited %d of the segment's 10 requests in 10 steps", c, len(seen))
		}
	}
}

// stallingClient serves one request at a time, each taking service.
type stallingClient struct {
	mu      sync.Mutex
	service time.Duration
}

func (c *stallingClient) Predict(_ context.Context, req *serving.PredictRequest, reply *serving.PredictReply) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	time.Sleep(c.service)
	reply.Probs = make([]float32, req.BatchSize)
	return nil
}

// zeroOraclePool is a pool whose oracle expects all-zero replies.
func zeroOraclePool(n int) *requestPool {
	p := newRequestPool(tinyConfig(), 1, n, 1)
	p.oracle = make([][]float32, n)
	for i := range p.oracle {
		p.oracle[i] = make([]float32, p.reqs[i].BatchSize)
	}
	return p
}

func TestOpenLoopTimesFromDueTimeWhenTheServerStalls(t *testing.T) {
	const service = 10 * time.Millisecond
	g := newLoadgen(zeroOraclePool(8), []serving.PredictClient{&stallingClient{service: service}})
	// 400 req/s into a server that manages 100: the backlog grows by the
	// whole phase, and a generator that timed from the send would not see it.
	res := g.open("stall", 400, 250*time.Millisecond, 3)
	attempted, ok, failed := res.counts()
	if attempted < 50 || failed != 0 || ok != attempted {
		t.Fatalf("attempted %d ok %d failed %d, want about 100 sent and none failed", attempted, ok, failed)
	}
	if p50 := res.quantile(0.5); p50 < 10*ms(service) {
		t.Errorf("median latency %.1f ms under a growing backlog, want far above the %v service time", p50, service)
	}
	last := res.samples[len(res.samples)-1]
	if want := time.Duration(attempted)*service - last.at; last.lat < want*8/10 {
		t.Errorf("last request took %v from its due time, want about %v (its place in the backlog)", last.lat, want)
	}
	for _, s := range res.samples {
		if s.late > 50*time.Millisecond {
			t.Errorf("send left %v late: the generator waited for the server", s.late)
			break
		}
	}
}

func TestOpenLoopShedsAtTheInFlightCap(t *testing.T) {
	g := newLoadgen(zeroOraclePool(8), []serving.PredictClient{&stallingClient{service: 20 * time.Millisecond}})
	res := g.open("shed", 4000, 100*time.Millisecond, 5)
	_, _, failed := res.counts()
	if failed == 0 {
		t.Errorf("400 requests due against a cap of %d in flight and none was shed", maxInFlight)
	}
}

func TestClosedLoopCountsAWrongReplyAsFailed(t *testing.T) {
	p := zeroOraclePool(8)
	p.oracle[3][0] = 0.5 // the client will answer 0
	g := newLoadgen(p, []serving.PredictClient{&stallingClient{service: time.Millisecond}})
	res := g.closed("wrong", 100*time.Millisecond)
	attempted, ok, failed := res.counts()
	if failed == 0 || ok+failed != attempted {
		t.Errorf("attempted %d ok %d failed %d: the wrong reply to request 3 was not counted", attempted, ok, failed)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{Name: spanClient, Start: 0, End: 1000},
		{Name: spanDense, Parent: spanClient, Start: 100, End: 900},
		// three gathers: two overlap, one is apart
		{Name: spanPool, Parent: spanDense, Start: 200, End: 500},
		{Name: spanPool, Parent: spanDense, Start: 400, End: 600},
		{Name: spanPool, Parent: spanDense, Start: 700, End: 800},
		{Name: spanShard, Parent: spanPool, Start: 250, End: 450},
		{Name: spanShard, Parent: spanPool, Start: 450, End: 550},
		{Name: spanShard, Parent: spanPool, Start: 720, End: 780},
	}
	self := selfTimes(spans)
	want := map[string]int64{
		spanClient: 200, // 1000 - 800
		spanDense:  300, // 800 - (400 + 100)
		spanPool:   140, // 500 - (300 + 60)
		spanShard:  360,
	}
	var sum int64
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, self[name], w)
		}
		sum += self[name]
	}
	if sum != 1000 {
		t.Errorf("self times sum to %d, want the request's 1000", sum)
	}
	if got := unionLength([]interval{{0, 10}, {5, 15}, {15, 20}, {30, 40}, {32, 35}}); got != 30 {
		t.Errorf("union length = %d, want 30", got)
	}
	if got, want := fanoutSkew(spans), 300.0/200.0; !near(got, want) {
		t.Errorf("fan-out skew = %v, want slowest 300 over mean 200 = %v", got, want)
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricSpec{Name: "lat", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "qps", Better: "higher", Bound: 0.10}
	steady := func(v float64) []float64 { return []float64{v, v * 1.001, v * 0.999, v, v} }
	for _, tc := range []struct {
		spec metricSpec
		a, b []float64
		want string
	}{
		{lower, steady(100), steady(105), "unchanged"},
		{lower, steady(100), steady(115), "regressed"},
		{lower, steady(100), steady(85), "better"},
		{higher, steady(100), steady(85), "regressed"},
		{higher, steady(100), steady(115), "better"},
		{lower, steady(100), []float64{80, 100, 120, 140, 160}, "unresolved"},
	} {
		if got := verdict(tc.spec, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%s, %v -> %v) = %s, want %s", tc.spec.Better, median(tc.a), median(tc.b), got, tc.want)
		}
	}
}

func TestContractFileMatchesTheProgram(t *testing.T) {
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, spec.Workloads[i].Name, w.name)
		}
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if !strings.Contains(string(readme), "`"+w.Name+"`") {
			t.Errorf("README.md does not describe workload %s", w.Name)
		}
	}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		if !strings.Contains(string(readme), "`"+m.Name+"`") {
			t.Errorf("README.md does not describe metric %s", m.Name)
		}
	}
}

// TestSmoke runs every workload briefly in both modes and checks that the
// metrics reported are exactly the ones BENCHMARK.json lists, with the
// units it lists.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four live deployments")
	}
	spec, err := readSpec(specPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(w, runOptions{seed: 1, seconds: 2 * time.Second, warmup: 200 * time.Millisecond, trace: trace, log: io.Discard})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct %v, %d of %d failed", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			got := res.contractLine().Metrics
			for _, m := range want {
				if g, ok := got[m.Name]; !ok {
					t.Errorf("%s trace=%v: metric %s missing", w.name, trace, m.Name)
				} else if g.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", w.name, trace, m.Name, g.Unit, m.Unit)
				} else if math.IsNaN(g.Value) || math.IsInf(g.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %v", w.name, trace, m.Name, g.Value)
				}
			}
			if len(got) != len(want) {
				t.Errorf("%s trace=%v: %d metrics reported, BENCHMARK.json lists %d: %v", w.name, trace, len(got), len(want), sortedKeys(got))
			}
		}
	}
}
