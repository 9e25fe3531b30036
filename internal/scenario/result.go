package scenario

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/benchio"
	"repro/internal/serving"
)

// Metrics is one measurement bucket's summary: request/error counts,
// exact latency quantiles over every measured request, and the offered vs
// achieved rates over the bucket's time span.
type Metrics struct {
	Requests    int64
	Errors      int64
	P50         time.Duration
	P95         time.Duration
	P99         time.Duration
	OfferedQPS  float64
	AchievedQPS float64
}

// ErrorRate returns Errors/Requests (0 for an empty bucket).
func (m Metrics) ErrorRate() float64 {
	if m.Requests == 0 {
		return 0
	}
	return float64(m.Errors) / float64(m.Requests)
}

// EpochInfo is one model's plan position at a snapshot instant, with the
// epoch's Fig. 14 utility skew (max-min per-shard memory utility).
type EpochInfo struct {
	Epoch       int64
	Shards      int
	UtilitySkew float64
}

// EventRecord is one applied event in the run log. Epoch is the model's
// plan epoch right after the event for deploy/repartition, -1 otherwise.
type EventRecord struct {
	At     time.Duration
	Action string
	Model  string
	Detail string
	Epoch  int64
}

// PhaseResult is one measurement phase (segments cut by timeline "phase"
// events; a run without them has a single "measure" phase). Epochs holds
// every deployed model's plan position when the phase ended.
type PhaseResult struct {
	Name    string
	Start   time.Duration
	End     time.Duration
	Metrics Metrics
	Epochs  map[string]EpochInfo
}

// ModelResult is one model's aggregate over the measurement window, plus
// its control-plane status at run end (valid when Deployed — a model
// undeployed mid-run keeps its client-side metrics only).
type ModelResult struct {
	Model    string
	Metrics  Metrics
	Deployed bool
	Status   serving.ModelStatus
	// ReplicasAdded/Removed tally the model's queue-depth autoscaler
	// actions over the run (0 without an autoscale block).
	ReplicasAdded   int64
	ReplicasRemoved int64
}

// Result is one scenario run's full measurement.
type Result struct {
	Name     string
	Duration time.Duration
	Warmup   time.Duration
	Total    Metrics
	Models   []ModelResult
	Phases   []PhaseResult
	Events   []EventRecord
}

// ArtifactName returns the run's artifact filename.
func (r *Result) ArtifactName() string {
	return fmt.Sprintf("BENCH_scenario_%s.json", r.Name)
}

// Rows flattens the result into the benchio schema: one aggregate
// row, one per model (with the control plane's swap/replan/cache counters
// in Extra), one per phase.
func (r *Result) Rows() []benchio.Row {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	row := func(name string, m Metrics) benchio.Row {
		return benchio.Row{
			Name:       name,
			QPS:        m.AchievedQPS,
			OfferedQPS: m.OfferedQPS,
			P50Ms:      ms(m.P50),
			P95Ms:      ms(m.P95),
			P99Ms:      ms(m.P99),
			ErrorRate:  m.ErrorRate(),
			Extra: map[string]float64{
				"requests": float64(m.Requests),
				"errors":   float64(m.Errors),
				"shed":     float64(m.Errors),
			},
		}
	}
	base := "Scenario_" + r.Name
	agg := row(base, r.Total)
	var swaps int64
	for _, mr := range r.Models {
		if mr.Deployed {
			swaps += mr.Status.Swaps
		}
	}
	agg.Extra["swaps"] = float64(swaps)
	agg.Extra["events"] = float64(len(r.Events))
	rows := []benchio.Row{agg}
	for _, mr := range r.Models {
		mrow := row(base+"/model="+mr.Model, mr.Metrics)
		mrow.Model = mr.Model
		if mr.Deployed {
			st := mr.Status
			mrow.Extra["epoch"] = float64(st.Epoch)
			mrow.Extra["swaps"] = float64(st.Swaps)
			mrow.Extra["shards"] = float64(st.Shards)
			mrow.Extra["replans"] = float64(st.Counters.Replans)
			mrow.Extra["replan_memo_hits"] = float64(st.Counters.ReplanMemoHits)
			mrow.Extra["preprocesses"] = float64(st.Counters.Preprocesses)
			mrow.Extra["pre_cache_hits"] = float64(st.Counters.PreCacheHits)
			mrow.Extra["shards_built"] = float64(st.Counters.ShardsBuilt)
			mrow.Extra["shards_reused"] = float64(st.Counters.ShardsReused)
			// Queue-depth autoscaling: scale actions (always emitted for a
			// deployed model so scenarioguard can gate on the floor) plus
			// the pull queues' end-of-run pressure counters.
			mrow.Extra["replicas_added"] = float64(mr.ReplicasAdded)
			mrow.Extra["replicas_removed"] = float64(mr.ReplicasRemoved)
			var rejected int64
			var replicas int
			for _, q := range st.Queues {
				rejected += q.Rejected
				replicas += q.Replicas
			}
			mrow.Extra["queue_rejected"] = float64(rejected)
			mrow.Extra["queue_shards"] = float64(len(st.Queues))
			mrow.Extra["queue_replicas"] = float64(replicas)
			// Frontend hot-row cache (gather path v2). Emitted only when
			// the cache saw traffic, so baselines from cache-off runs don't
			// grow guardable keys.
			if lookups := st.Counters.RowCacheHits + st.Counters.RowCacheMisses; lookups > 0 {
				mrow.Extra["rowcache_hits"] = float64(st.Counters.RowCacheHits)
				mrow.Extra["rowcache_misses"] = float64(st.Counters.RowCacheMisses)
				mrow.Extra["rowcache_bytes"] = float64(st.Counters.RowCacheBytes)
				mrow.Extra["rowcache_hit_rate"] = float64(st.Counters.RowCacheHits) / float64(lookups)
			}
		}
		rows = append(rows, mrow)
	}
	if len(r.Phases) > 1 {
		for _, ph := range r.Phases {
			rows = append(rows, row(base+"/phase="+ph.Name, ph.Metrics))
		}
	}
	return rows
}

// WriteArtifact writes BENCH_scenario_<name>.json into dir.
func (r *Result) WriteArtifact(dir string) (string, error) {
	path := filepath.Join(dir, r.ArtifactName())
	return path, benchio.WriteRows(path, r.Rows())
}

// bucket accumulates one measurement group's samples. Dispatch-side
// fields (offered) are written by the arrival loop only; completion-side
// fields are written by client goroutines under the collector's lock.
type bucket struct {
	offered   int64
	span      time.Duration // measured time the bucket covers
	latencies []time.Duration
	errors    int64
}

// summarize computes the bucket's final metrics.
func (b *bucket) summarize() Metrics {
	m := Metrics{Requests: int64(len(b.latencies)) + b.errors, Errors: b.errors}
	sorted := append([]time.Duration(nil), b.latencies...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	quantile := func(q float64) time.Duration {
		if len(sorted) == 0 {
			return 0
		}
		idx := int(q*float64(len(sorted))+0.5) - 1
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		return sorted[idx]
	}
	m.P50, m.P95, m.P99 = quantile(0.50), quantile(0.95), quantile(0.99)
	if secs := b.span.Seconds(); secs > 0 {
		m.OfferedQPS = float64(b.offered) / secs
		m.AchievedQPS = float64(len(b.latencies)) / secs
	}
	return m
}

// sample tracks one in-flight measured request's attribution.
type sample struct {
	model    string
	phase    int
	measured bool
}

// collector routes every request's dispatch and completion into the
// total/per-model/per-phase buckets of the measurement window.
type collector struct {
	warmup time.Duration
	end    time.Duration

	mu       sync.Mutex
	total    *bucket
	perModel map[string]*bucket
	phases   []*phaseState
	current  int
}

// phaseState is one phase's bucket plus its boundaries.
type phaseState struct {
	name   string
	start  time.Duration
	end    time.Duration
	epochs map[string]EpochInfo
	b      *bucket
}

// newCollector opens the window [warmup, total) with one initial phase.
func newCollector(spec *Spec, total time.Duration) *collector {
	c := &collector{
		warmup:   spec.Warmup.D(),
		end:      total,
		total:    &bucket{span: total - spec.Warmup.D()},
		perModel: map[string]*bucket{},
	}
	c.phases = []*phaseState{{name: "measure", start: c.warmup, end: total, b: &bucket{}}}
	return c
}

// cutPhase closes the current phase at `at` (recording the epoch snapshot
// on it) and opens a new one. Called from the arrival loop. An at-0 cut
// renames the initial phase instead of closing a zero-length one.
func (c *collector) cutPhase(name string, at time.Duration, epochs map[string]EpochInfo) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.phases[c.current]
	if at <= cur.start {
		cur.name = name
		return
	}
	cur.end = at
	cur.epochs = epochs
	c.phases = append(c.phases, &phaseState{name: name, start: at, end: c.end, b: &bucket{}})
	c.current = len(c.phases) - 1
}

// dispatch records one arrival at time `at` addressed to model and
// returns the sample token its completion must carry. Called from the
// arrival loop only.
func (c *collector) dispatch(mdl string, at time.Duration) *sample {
	s := &sample{model: mdl, measured: at >= c.warmup}
	if !s.measured {
		return s
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s.phase = c.current
	c.total.offered++
	c.phases[s.phase].b.offered++
	mb := c.perModel[mdl]
	if mb == nil {
		mb = &bucket{}
		c.perModel[mdl] = mb
	}
	mb.offered++
	return s
}

// complete records a measured request's outcome.
func (c *collector) complete(s *sample, lat time.Duration, err error) {
	if !s.measured {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, b := range []*bucket{c.total, c.phases[s.phase].b, c.perModel[s.model]} {
		if err != nil {
			b.errors++
		} else {
			b.latencies = append(b.latencies, lat)
		}
	}
}

// finish closes the last phase with the end-of-run epoch snapshot and
// fixes every bucket's time span.
func (c *collector) finish(epochs map[string]EpochInfo) {
	c.mu.Lock()
	defer c.mu.Unlock()
	last := c.phases[c.current]
	last.end = c.end
	last.epochs = epochs
	for _, ph := range c.phases {
		ph.b.span = ph.end - ph.start
	}
	// Per-model buckets share the whole window: models deployed mid-run
	// simply offered nothing before their deploy event.
	for _, b := range c.perModel {
		b.span = c.end - c.warmup
	}
}

// phaseResults snapshots the per-phase summaries.
func (c *collector) phaseResults() []PhaseResult {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]PhaseResult, 0, len(c.phases))
	for _, ph := range c.phases {
		out = append(out, PhaseResult{
			Name: ph.name, Start: ph.start, End: ph.end,
			Metrics: ph.b.summarize(), Epochs: ph.epochs,
		})
	}
	return out
}
