package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/serving"
)

// The traced run records a span at every seam the benchmark can reach from
// outside: it wraps each PredictClient / GatherClient between the layers in
// a decorator that notes when the call began and ended. It drives ONE
// request at a time, so every span recorded between a request's start and
// its end belongs to that request — no identifier has to cross the batcher
// or the wire.

// Span names, outermost first. Each layer's spans are the children of the
// layer before it that is present.
const (
	spanClient  = "client"      // the generator's connection: the whole request
	spanBatcher = "batcher"     // server side of the frontend, around the batcher
	spanDense   = "dense"       // around the dense shard
	spanPool    = "pool"        // around one shard's replica pool
	spanWire    = "gather_wire" // around one shard's TCP gather client
	spanShard   = "embedshard"  // around one embedding shard service
)

var spanOrder = []string{spanClient, spanBatcher, spanDense, spanPool, spanWire, spanShard}

// span is one recorded interval. Start and End are nanoseconds since the
// recorder was created; Table and Shard are -1 on predict seams.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent"`
	Req    int64  `json:"req"`
	Table  int    `json:"table"`
	Shard  int    `json:"shard"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps the spans of a traced run in memory.
type recorder struct {
	origin  time.Time
	current atomic.Int64 // id of the single request in flight
	mu      sync.Mutex
	spans   []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) add(name, parent string, table, shard int, start, end time.Time) {
	s := span{
		Name: name, Parent: parent, Req: r.current.Load(), Table: table, Shard: shard,
		Start: int64(start.Sub(r.origin)), End: int64(end.Sub(r.origin)),
	}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// writeJSONLines writes every span as one JSON object per line.
func (r *recorder) writeJSONLines(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedPredict records a span around a PredictClient.
type tracedPredict struct {
	rec          *recorder
	name, parent string
	next         serving.PredictClient
}

func (t *tracedPredict) Predict(ctx context.Context, req *serving.PredictRequest, reply *serving.PredictReply) error {
	start := time.Now()
	err := t.next.Predict(ctx, req, reply)
	t.rec.add(t.name, t.parent, -1, -1, start, time.Now())
	return err
}

// tracedGather records a span around a GatherClient.
type tracedGather struct {
	rec          *recorder
	name, parent string
	next         serving.GatherClient
}

func (t *tracedGather) Gather(ctx context.Context, req *serving.GatherRequest, reply *serving.GatherReply) error {
	start := time.Now()
	err := t.next.Gather(ctx, req, reply)
	t.rec.add(t.name, t.parent, req.Table, req.Shard, start, time.Now())
	return err
}

// tracedStack is a serving stack with a recorder at its seams, and what
// must be closed to take it down again.
type tracedStack struct {
	client  serving.PredictClient
	closers []func()
}

func (s *tracedStack) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

// closeQuietly adapts a Close whose error does not matter on teardown.
func closeQuietly(c interface{ Close() error }) func() { return func() { _ = c.Close() } }

// exportTraced puts served behind a fresh TCP frontend and returns a traced
// client dialled to it.
func (s *tracedStack) exportTraced(rec *recorder, served serving.PredictClient) error {
	srv, err := serving.NewRPCServer("127.0.0.1:0")
	if err != nil {
		return err
	}
	s.closers = append(s.closers, closeQuietly(srv))
	if err := srv.RegisterPredict(frontendName, served); err != nil {
		return err
	}
	conn, err := serving.DialPredict(srv.Addr(), frontendName)
	if err != nil {
		return err
	}
	s.closers = append(s.closers, closeQuietly(conn))
	s.client = &tracedPredict{rec: rec, name: spanClient, next: conn}
	return nil
}

// buildTracedStack assembles the workload's serving stack with a span
// decorator on every seam. Pooled-gather workloads are rebuilt by hand from
// the public constructors over the live deployment's sorted tables, so
// every layer boundary is a seam. Rows mode and the row cache are reachable
// only through BuildElastic, so for those the deployment itself is served
// behind a second, traced frontend and everything below LiveDeployment.
// Predict is one dense span.
func buildTracedStack(w *workload, d *deployment, rec *recorder) (stack *tracedStack, err error) {
	stack = &tracedStack{}
	defer func() {
		if err != nil {
			stack.close()
			err = fmt.Errorf("traced stack: %w", err)
		}
	}()
	if w.rowCacheDiv > 0 {
		served := &tracedPredict{rec: rec, name: spanDense, parent: spanClient, next: d.ld}
		return stack, stack.exportTraced(rec, served)
	}

	cfg := w.cfg
	live := d.ld.Table()
	bounds := live.Plan
	tcp := w.transport == serving.TransportTCP
	shardParent := spanPool
	if tcp {
		shardParent = spanWire
	}
	clients := make([][]serving.GatherClient, cfg.NumTables)
	allBounds := make([][]int64, cfg.NumTables)
	for t := 0; t < cfg.NumTables; t++ {
		allBounds[t] = bounds
		lo := int64(0)
		for s, hi := range bounds {
			shard, err := serving.NewEmbeddingShard(t, s, live.Pre.Sorted[t], lo, hi)
			if err != nil {
				return stack, err
			}
			lo = hi
			var leaf serving.GatherClient = &tracedGather{rec: rec, name: spanShard, parent: shardParent, next: shard}
			if tcp {
				name := fmt.Sprintf("T%dS%d", t, s)
				srv, err := serving.NewRPCServer("127.0.0.1:0")
				if err != nil {
					return stack, err
				}
				stack.closers = append(stack.closers, closeQuietly(srv))
				if err := srv.RegisterGather(name, leaf); err != nil {
					return stack, err
				}
				conn, err := serving.DialGather(srv.Addr(), name)
				if err != nil {
					return stack, err
				}
				stack.closers = append(stack.closers, closeQuietly(conn))
				leaf = &tracedGather{rec: rec, name: spanWire, parent: spanPool, next: conn}
			}
			pool := serving.NewReplicaPoolOptions(serving.PoolOptions{}, leaf)
			stack.closers = append(stack.closers, pool.Close)
			clients[t] = append(clients[t], &tracedGather{rec: rec, name: spanPool, parent: spanDense, next: pool})
		}
	}
	rt, err := serving.NewRoutingTable(0, cfg, live.Pre, allBounds, clients)
	if err != nil {
		return stack, err
	}
	denseModel, err := model.NewDenseOnly(cfg, 0)
	if err != nil {
		return stack, err
	}
	denseModel.Bottom, denseModel.Top = d.model.Bottom.Clone(), d.model.Top.Clone()
	dense, err := serving.NewDenseShard(denseModel, serving.NewRouter(rt))
	if err != nil {
		return stack, err
	}
	denseParent := spanClient
	if w.batching {
		denseParent = spanBatcher
	}
	var served serving.PredictClient = &tracedPredict{rec: rec, name: spanDense, parent: denseParent, next: dense}
	if w.batching {
		batcher := serving.NewBatcher(served, cfg, serving.BatcherOptions{})
		stack.closers = append(stack.closers, closeQuietly(batcher))
		served = &tracedPredict{rec: rec, name: spanBatcher, parent: spanClient, next: batcher}
	}
	return stack, stack.exportTraced(rec, served)
}

// interval is a half-open [from, to) in recorder nanoseconds.
type interval struct{ from, to int64 }

// unionLength returns the total length covered by the intervals, counting
// overlapping stretches once.
func unionLength(iv []interval) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a].from < iv[b].from })
	var total, end int64
	for i, v := range iv {
		if i == 0 || v.from > end {
			total += v.to - v.from
			end = v.to
		} else if v.to > end {
			total += v.to - end
			end = v.to
		}
	}
	return total
}

// selfTimes splits one request's spans into per-layer self time on the
// blocking path: a layer's self time is the union of its spans minus the
// union of its children's (the next layer present). Parallel gathers
// therefore count once, for as long as any of them is in that layer.
func selfTimes(spans []span) map[string]int64 {
	byLayer := map[string][]interval{}
	for _, s := range spans {
		byLayer[s.Name] = append(byLayer[s.Name], interval{s.Start, s.End})
	}
	self := map[string]int64{}
	prev := ""
	for _, name := range spanOrder {
		iv, ok := byLayer[name]
		if !ok {
			continue
		}
		covered := unionLength(iv)
		self[name] = covered
		if prev != "" {
			self[prev] -= covered
		}
		prev = name
	}
	return self
}

// fanoutSkew is the slowest pool span of a request over the mean pool span
// (1 when the request made no gathers).
func fanoutSkew(spans []span) float64 {
	var slowest, sum float64
	n := 0
	for _, s := range spans {
		if s.Name != spanPool {
			continue
		}
		d := float64(s.End - s.Start)
		slowest = max(slowest, d)
		sum += d
		n++
	}
	if n == 0 || sum == 0 {
		return 1
	}
	return slowest / (sum / float64(n))
}

// reconcileLimit is the largest share of the median band's end-to-end time
// the layer self times may fail to account for before the run is rejected.
const reconcileLimit = 0.05

// The median band is the requests whose end-to-end latency lies between
// these two quantiles: the layer figures are their mean self times, that is,
// where the median request's time went. (Per-layer medians over all requests
// would not add up: on a two-humped latency distribution each layer's median
// can come from a different hump.)
const (
	bandLow  = 0.40
	bandHigh = 0.60
)

// traceMetrics drives the traced stack one request at a time for dur and
// reports the self time of every layer over the median band. A request's
// end-to-end latency is taken by the driver's own clock around the call,
// outside the recorder; the band's layer self times must add up to its mean
// end-to-end latency within reconcileLimit, or spans are missing or
// misplaced. soloP50 is the untraced one-client median the overhead is
// measured against.
func traceMetrics(m metricSet, w *workload, d *deployment, g *loadgen, dur time.Duration, soloP50 float64, spansPath string, res *runResult) error {
	rec := newRecorder()
	stack, err := buildTracedStack(w, d, rec)
	if err != nil {
		return err
	}
	defer stack.close()

	g = g.withClients(stack.client)
	ctx, cancel := phaseContext(dur)
	defer cancel()
	phase := phaseResult{name: "traced"}
	var endToEnd []float64 // us, indexed by request id
	start := time.Now()
	for step := 0; time.Since(start) < dur; step++ {
		rec.current.Store(int64(step))
		at := time.Since(start)
		ok := g.send(ctx, 0, g.pick(0, step))
		lat := time.Since(start) - at
		phase.samples = append(phase.samples, sample{at: at, lat: lat, ok: ok})
		endToEnd = append(endToEnd, us(lat))
	}
	phase.wall = time.Since(start)
	res.addPhase(&phase)

	sorted := append([]float64(nil), endToEnd...)
	sort.Float64s(sorted)
	lo, hi := percentile(sorted, bandLow), percentile(sorted, bandHigh)
	perReq := map[int64][]span{}
	for _, s := range rec.spans {
		if e := endToEnd[s.Req]; e >= lo && e <= hi {
			perReq[s.Req] = append(perReq[s.Req], s)
		}
	}
	layer := map[string]float64{}
	var skew, bandTotal float64
	for id, spans := range perReq {
		for name, self := range selfTimes(spans) {
			layer[name] += float64(self) / 1e3
		}
		skew += fanoutSkew(spans)
		bandTotal += endToEnd[id]
	}
	n := float64(max(len(perReq), 1))
	var sum float64
	for _, set := range []struct{ metric, layer string }{
		{"trace.frontend_self_us", spanClient},
		{"trace.batcher_self_us", spanBatcher},
		{"trace.dense_self_us", spanDense},
		{"trace.pool_self_us", spanPool},
		{"trace.gather_wire_self_us", spanWire},
		{"trace.embedshard_us", spanShard},
	} {
		sum += layer[set.layer] / n
		m.set(set.metric, layer[set.layer]/n, "us")
	}
	reconcile := 1.0 // nothing recorded reconciles with nothing
	if bandTotal > 0 {
		reconcile = math.Abs(sum-bandTotal/n) / (bandTotal / n)
	}
	m.set("trace.fanout_skew", skew/n, "ratio")
	m.set("trace.reconcile_err", reconcile, "ratio")
	overhead := 0.0
	if soloP50 > 0 {
		overhead = percentile(sorted, 0.50)/1e3/soloP50 - 1
	}
	m.set("trace.overhead_share", overhead, "ratio")

	if spansPath != "" {
		if err := rec.writeJSONLines(spansPath); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if reconcile > reconcileLimit {
		return fmt.Errorf("traced run does not reconcile: the median band's layer self times sum to %.1f us, its end-to-end mean is %.1f us (off by %.1f%%, limit %.0f%%)",
			sum, bandTotal/n, 100*reconcile, 100*reconcileLimit)
	}
	return nil
}
