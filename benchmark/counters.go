package main

import "sort"

// counterMetrics derives the per-layer metrics that are read from the
// deployment's public counters and the Go runtime around the closed phase.
// A metric of a layer the workload does not use (row cache, batcher, plan
// swaps) reads 0.
func counterMetrics(m metricSet, d *deployment, closed *closedObservation, swaps *swapper) {
	_, ok, _ := closed.phase.counts()
	reqs := float64(max(ok, 1))
	ld := d.ld

	// embedshard: the memory the shard services hold and how much of it
	// the traffic touched (paper Figs. 13/14).
	var paramBytes int64
	var utility float64
	shards := 0
	rt := ld.Table()
	for t := range rt.Shards {
		for s, shard := range rt.Shards[t] {
			paramBytes += shard.ParamBytes() * int64(rt.Pools[t][s].Size())
			utility += rt.Utility(t, s)
			shards++
		}
	}
	m.set("embedshard.mem_alloc_mb", float64(paramBytes)/(1<<20), "MB")
	m.set("embedshard.utility_mean", utility/float64(shards), "ratio")

	// pool: the worst shard queue of the live epoch, after every phase.
	var depth, service float64
	var rejected int64
	for t := range rt.Pools {
		for _, p := range rt.Pools[t] {
			st := p.QueueStats()
			depth = max(depth, st.DepthEWMA)
			service = max(service, us(st.ServiceEWMA))
			rejected += st.Rejected
		}
	}
	m.set("pool.depth_ewma", depth, "count")
	m.set("pool.service_ewma_us", service, "us")
	m.set("pool.rejected", float64(rejected), "count")

	// batcher: fusion over the deployment's life (histograms have no
	// reset, so this includes warm-up).
	var meanBatch, perDispatch, queueDepth float64
	if b := ld.Batcher; b != nil && b.Batches.Value() > 0 {
		meanBatch = b.BatchSizes.Mean()
		perDispatch = float64(b.Requests.Value()) / float64(b.Batches.Value())
		queueDepth = b.QueueDepth.Mean()
	}
	m.set("batcher.mean_batch", meanBatch, "count")
	m.set("batcher.requests_per_dispatch", perDispatch, "ratio")
	m.set("batcher.queue_depth_mean", queueDepth, "count")

	// rowcache: deltas over the closed phase.
	c0, c1 := closed.countersBefore, closed.countersAfter
	var hitRate float64
	if lookups := (c1.RowCacheHits - c0.RowCacheHits) + (c1.RowCacheMisses - c0.RowCacheMisses); lookups > 0 {
		hitRate = float64(c1.RowCacheHits-c0.RowCacheHits) / float64(lookups)
	}
	m.set("rowcache.hit_rate", hitRate, "ratio")
	m.set("rowcache.evicted_per_req", float64(c1.RowCacheEvicted-c0.RowCacheEvicted)/reqs, "count")
	m.set("rowcache.seeded", float64(c1.RowCacheSeeded), "count")
	m.set("rowcache.bytes", float64(c1.RowCacheBytes), "B")

	// elastic / plancache / router: the swaps that began in the closed
	// phase, and the latency of the requests that overlapped one.
	ended := closed.began.Add(closed.phase.wall)
	cold, cached := swaps.swapTimesMs(closed.began, ended)
	m.set("elastic.swap_cold_p50_ms", median(cold), "ms")
	m.set("elastic.swap_cached_p50_ms", median(cached), "ms")
	m.set("elastic.swap_lat_ratio", swapLatencyRatio(closed, swaps), "ratio")
	m.set("plancache.shards_built", float64(c1.ShardsBuilt-c0.ShardsBuilt), "count")
	m.set("plancache.shards_reused", float64(c1.ShardsReused-c0.ShardsReused), "count")
	m.set("plancache.pre_hits", float64(c1.PreCacheHits-c0.PreCacheHits), "count")
	m.set("router.swaps", float64(len(cold)+len(cached)), "count")

	// runtime: allocator and collector work per request.
	b, a := &closed.before, &closed.after
	m.set("runtime.alloc_kb_per_req", float64(a.TotalAlloc-b.TotalAlloc)/1024/reqs, "KB")
	m.set("runtime.allocs_per_req", float64(a.Mallocs-b.Mallocs)/reqs, "count")
	m.set("runtime.gc_pause_ms_per_s", float64(a.PauseTotalNs-b.PauseTotalNs)/1e6/closed.phase.wall.Seconds(), "ms/s")
	m.set("runtime.goroutines_peak", float64(closed.mem.goroutinesPeak), "count")
}

// swapLatencyRatio is the p99 of the closed-phase requests that overlapped
// a plan swap over the p99 of those that did not (0 when either is empty).
func swapLatencyRatio(closed *closedObservation, swaps *swapper) float64 {
	var during, outside []float64
	for _, s := range closed.phase.samples {
		if !s.ok {
			continue
		}
		from := closed.began.Add(s.at)
		if swaps.overlaps(from, from.Add(s.lat)) {
			during = append(during, ms(s.lat))
		} else {
			outside = append(outside, ms(s.lat))
		}
	}
	if len(during) == 0 || len(outside) == 0 {
		return 0
	}
	sort.Float64s(during)
	sort.Float64s(outside)
	return percentile(during, 0.99) / percentile(outside, 0.99)
}

// loadgenMetrics reports the open-loop latencies (from due time; the p99s
// are window medians), how late the sends left, the run's request
// accounting, and the ladder's result (0 when the ladder did not run).
func loadgenMetrics(m metricSet, res *runResult, openLo, openHi *phaseResult, sloRate float64) {
	m.set("loadgen.open_lo_p99_ms", windowedPercentile(openLo.samples, openLo.wall, latencyWindows, 0.99), "ms")
	m.set("loadgen.open_hi_p50_ms", openHi.quantile(0.50), "ms")
	m.set("loadgen.open_hi_p99_ms", windowedPercentile(openHi.samples, openHi.wall, latencyWindows, 0.99), "ms")
	var late []float64
	for _, s := range openHi.samples {
		late = append(late, us(s.late))
	}
	sort.Float64s(late)
	m.set("loadgen.late_p99_us", percentile(late, 0.99), "us")
	m.set("loadgen.slo_rate_qps", sloRate, "req/s")
	m.set("loadgen.attempted", float64(res.Attempted), "count")
	m.set("loadgen.ok", float64(res.Attempted-res.Failed), "count")
	m.set("loadgen.failed", float64(res.Failed), "count")
	m.set("loadgen.fail_share", float64(res.Failed)/float64(max(res.Attempted, 1)), "ratio")
}
