// Liveserving: real microservices on loopback TCP serving a CHANGING set
// of DLRM variants behind one frontend, with a live autoscaler, autonomous
// zero-downtime repartitioning per variant, and runtime model lifecycle
// driven over the admin API.
//
// Every embedding shard of every variant runs behind its own TCP
// server (the stand-in for the paper's gRPC mesh); a pull-based replica
// pool plays Linkerd; an HPA-style control loop scales each shard's
// replicas in and out on the depth of its own pull queue while a Poisson
// client drives stepped traffic through a single exported predict
// endpoint (requests carry their model name on the wire).
//
// The run starts with two variants ("hot", "slow") and the served set
// changes under fire: variant "burst" is DEPLOYED into the running
// frontend halfway through (build → warm → publish over the versioned
// admin RPC riding the same TCP listener — no restart), and variant "hot"
// is UNDEPLOYED at three quarters (drained, unregistered, its shard
// services fully released) while the others keep serving. The control
// loop reads the served set on every tick, so it picks the deployed
// variant up and lets the undeployed one go by itself. Hot sets still
// drift mid-run, so the closed profiling -> repartition -> serve loop of
// Sec. IV-B runs per model on independent cadences throughout.
//
// Run with: go run ./examples/liveserving [-duration 12s]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/serving"
	"repro/internal/workload"
)

// variant is one DLRM model's client-side state: its geometry, drifting
// sampler and query generator.
type variant struct {
	name    string
	cfg     model.Config
	drift   *workload.DriftingSampler
	gen     *workload.QueryGenerator
	driftAt time.Duration // when this variant's hot set migrates
	served  int
}

func newVariant(name string, cfg model.Config, seed uint64, driftAt time.Duration) *variant {
	sampler, err := workload.NewPowerLawSampler(cfg.RowsPerTable, cfg.LocalityP, 0.9)
	if err != nil {
		log.Fatal(err)
	}
	drift, err := workload.NewDriftingSampler(sampler)
	if err != nil {
		log.Fatal(err)
	}
	gen, err := workload.NewQueryGenerator(drift, workload.NewShuffledMapping(cfg.RowsPerTable, 3),
		cfg.BatchSize, cfg.Pooling, seed)
	if err != nil {
		log.Fatal(err)
	}
	return &variant{name: name, cfg: cfg, drift: drift, gen: gen, driftAt: driftAt}
}

// window profiles the variant's current traffic for the initial plan.
func (v *variant) window(queries int) []*embedding.AccessStats {
	perTable := make([][]*embedding.Batch, v.cfg.NumTables)
	for t := range perTable {
		for q := 0; q < queries; q++ {
			perTable[t] = append(perTable[t], v.gen.Next())
		}
	}
	stats, err := serving.CollectStats(v.cfg, perTable)
	if err != nil {
		log.Fatal(err)
	}
	return stats
}

// request builds one predict request addressed to this variant.
func (v *variant) request() *serving.PredictRequest {
	req := &serving.PredictRequest{
		Model:     v.name,
		BatchSize: v.cfg.BatchSize,
		DenseDim:  v.cfg.DenseInputDim,
		Dense:     make([]float32, v.cfg.BatchSize*v.cfg.DenseInputDim),
	}
	for t := 0; t < v.cfg.NumTables; t++ {
		b := v.gen.Next()
		req.Tables = append(req.Tables, serving.TableBatch{Indices: b.Indices, Offsets: b.Offsets})
	}
	return req
}

// proportionalReplan cuts a freshly profiled window's CDF at 70% and 95%
// access coverage (embedding.ProportionalCuts), mirroring what the DP
// chooses for these geometries without re-fitting the cost model inline.
// It reads the row count off the window itself, so it works for any
// model — including variants deployed by an external admin this example
// has no client-side state for.
func proportionalReplan(window []*embedding.AccessStats) ([]int64, error) {
	return embedding.NewCDF(window[0]).ProportionalCuts(0.70, 0.95), nil
}

func main() {
	duration := flag.Duration("duration", 12*time.Second, "how long to drive traffic")
	flag.Parse()

	cfgHot := model.RM1().WithRows(20_000).WithName("rm1-hot")
	cfgHot.NumTables = 3 // keep the socket count friendly
	cfgSlow := model.RM1().WithRows(12_000).WithName("rm1-slow")
	cfgSlow.NumTables = 2
	cfgSlow.BatchSize = 2
	cfgBurst := model.RM1().WithRows(14_000).WithName("rm1-burst")
	cfgBurst.NumTables = 2

	hot := newVariant("hot", cfgHot, 5, *duration/4)
	slow := newVariant("slow", cfgSlow, 1005, 2**duration/3)
	burst := newVariant("burst", cfgBurst, 2005, 0)
	byName := map[string]*variant{hot.name: hot, slow.name: slow, burst.name: burst}

	mHot, err := model.New(cfgHot, 77)
	if err != nil {
		log.Fatal(err)
	}
	mSlow, err := model.New(cfgSlow, 1077)
	if err != nil {
		log.Fatal(err)
	}

	// The initial set: both variants behind ONE router and ONE frontend,
	// each shard a TCP microservice, each variant with its own dynamic
	// batcher. "burst" arrives later, over the admin API.
	md, err := serving.BuildMulti(
		serving.ModelSpec{
			Name: hot.name, Model: mHot, Stats: hot.window(100),
			Boundaries: []int64{2_000, 8_000, cfgHot.RowsPerTable},
			Options: serving.BuildOptions{
				Transport: serving.TransportTCP,
				Batching:  &serving.BatcherOptions{MaxBatch: 3 * cfgHot.BatchSize, MaxDelay: 500 * time.Microsecond},
			},
		},
		serving.ModelSpec{
			Name: slow.name, Model: mSlow, Stats: slow.window(100),
			Boundaries: []int64{1_500, 5_000, cfgSlow.RowsPerTable},
			Options: serving.BuildOptions{
				Transport: serving.TransportTCP,
				Batching:  &serving.BatcherOptions{MaxBatch: 3 * cfgSlow.BatchSize, MaxDelay: 500 * time.Microsecond},
			},
		},
	)
	if err != nil {
		log.Fatal(err)
	}
	defer md.Close()
	for _, name := range md.Models() {
		ld, _ := md.Deployment(name)
		fmt.Printf("model %q: %d embedding shards x %d tables over TCP microservices\n",
			name, ld.Table().NumShards(0), byName[name].cfg.NumTables)
	}

	// Export the multi-model dispatching frontend over TCP and drive
	// all traffic through the wire; the Model field routes each request.
	// The same listener carries the versioned admin control plane.
	addr, err := md.ExportPredict("Frontend")
	if err != nil {
		log.Fatal(err)
	}
	frontend, err := serving.DialPredict(addr, "Frontend")
	if err != nil {
		log.Fatal(err)
	}
	defer frontend.Close()
	admin, err := serving.DialAdmin(addr, "Frontend")
	if err != nil {
		log.Fatal(err)
	}
	defer admin.Close()
	fmt.Printf("multi-model predict frontend + admin control plane exported at %s\n", addr)

	// One control loop watches the frontend: every tick it reads the
	// served variants and their current epochs, so a deployed variant is
	// scaled and repartitioned from its first tick and an undeployed one
	// is let go — nothing here has to tell it. Every shard pool scales on
	// its own pull-queue pressure: a depth EWMA above one queued gather
	// per replica adds a replica inside the live epoch, no repartition
	// needed. The skew trigger's policy is shared, but firing times are
	// kept per variant, so variants profile and swap on independent
	// cadences.
	as := &serving.LiveAutoscaler{
		Frontend:    md,
		Interval:    500 * time.Millisecond,
		Queue:       &serving.QueuePolicy{HighDepth: 1, LowDepth: 0.05, Cooldown: 2 * time.Second},
		MaxReplicas: 6,
		Repartition: &serving.RepartitionPolicy{
			MinSkew: 0.35,
			// Dense dispatches, not client requests: the batcher fuses ~3
			// requests per forward batch at this MaxBatch, so 25
			// dispatches ≈ 75 client requests of warm-up per variant.
			MinRequests: 25,
			MinInterval: *duration, // at most one swap per variant per run
		},
		Replan: func(_ string, stats []*embedding.AccessStats) ([]int64, error) {
			return proportionalReplan(stats)
		},
		OnRepartition: func(name string, retired int64, err error) {
			if err != nil {
				log.Printf("repartition %s: %v", name, err)
				return
			}
			fmt.Printf("-> repartitioned %q live: retired epoch %d, serving epoch %d (other variants untouched)\n",
				name, retired, retired+1)
		},
	}
	as.Start()
	defer as.Stop()

	// Drive stepped Poisson traffic: low -> high -> low; each variant's
	// hot set drifts at its own time, and the lifecycle events land
	// mid-run: deploy "burst" at half time, undeploy "hot" at 3/4.
	pattern, err := workload.NewTrafficPattern([]workload.TrafficPhase{
		{Start: 0, TargetQPS: 10},
		{Start: *duration / 3, TargetQPS: 60},
		{Start: 2 * *duration / 3, TargetQPS: 15},
	}, *duration)
	if err != nil {
		log.Fatal(err)
	}
	arrivals := workload.NewPoissonArrivals(pattern, 9)
	deployAt, undeployAt := *duration/2, 3**duration/4
	rotation := []*variant{hot, hot, slow} // 2/3 hot, 1/3 slow to start
	start := time.Now()
	var wg sync.WaitGroup
	total := 0
	for {
		at, ok := arrivals.Next()
		if !ok {
			break
		}
		time.Sleep(time.Until(start.Add(at)))
		for _, v := range byName {
			if v.driftAt > 0 && at > v.driftAt {
				v.drift.SetShift(v.cfg.RowsPerTable / 2)
				v.driftAt = 0
				fmt.Printf("-> hotness drift injected into %q at %v\n", v.name, at.Round(time.Millisecond))
			}
		}
		if deployAt > 0 && at > deployAt {
			deployAt = 0
			// Deploy "burst" into the running frontend over the wire: the
			// spec (config + seed + profiling counts + plan) rides the
			// admin RPC; the frontend builds, pre-warms and publishes
			// while traffic keeps flowing, and the control loop finds it
			// on its next tick.
			window := burst.window(100)
			counts := make([][]int64, len(window))
			for t, st := range window {
				counts[t] = st.Counts
			}
			boundaries, _ := proportionalReplan(window)
			var reply serving.AdminDeployReply
			err := admin.Deploy(context.Background(), &serving.AdminDeployRequest{
				Name: burst.name, Config: cfgBurst, Seed: 2077,
				Counts: counts, Boundaries: boundaries,
				Options: serving.BuildOptions{
					Transport: serving.TransportTCP,
					Batching:  &serving.BatcherOptions{MaxBatch: 3 * cfgBurst.BatchSize, MaxDelay: 500 * time.Microsecond},
				},
			}, &reply)
			if err != nil {
				log.Fatalf("admin deploy: %v", err)
			}
			rotation = []*variant{hot, burst, slow} // burst joins the mix
			fmt.Printf("-> deployed %q live at %v: epoch %d, %d shards (no restart, others untouched)\n",
				reply.Model, at.Round(time.Millisecond), reply.Epoch, reply.Shards)
		}
		if undeployAt > 0 && at > undeployAt {
			undeployAt = 0
			// Take "hot" out of the client rotation first, then drain it
			// out of the frontend: its final epoch drains, its shard
			// services tear down, the control loop drops it on its next
			// tick, and the name becomes reusable — "slow" and "burst"
			// never notice.
			rotation = []*variant{burst, burst, slow}
			if _, err := admin.Undeploy(context.Background(), hot.name); err != nil {
				log.Fatalf("admin undeploy: %v", err)
			}
			fmt.Printf("-> undeployed %q live at %v: drained, unregistered, shard services released\n",
				hot.name, at.Round(time.Millisecond))
		}
		v := rotation[total%len(rotation)]
		total++
		v.served++
		wg.Add(1)
		// Build the request on the arrival loop (the generators are not
		// concurrency-safe), then issue it from its own client goroutine.
		req := v.request()
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			var reply serving.PredictReply
			if err := frontend.Predict(ctx, req, &reply); err != nil {
				log.Printf("predict: %v", err)
			}
		}()
	}
	wg.Wait()
	// Stop the control loop before the summary so a last-tick swap lands
	// (Stop is idempotent; the deferred call becomes a no-op).
	as.Stop()

	fmt.Printf("served %d queries over %v (%d epoch swaps; final served set %v)\n",
		total, time.Since(start).Round(time.Millisecond), md.Router.Swaps.Value(), md.Models())
	for _, st := range md.Controller().Status() {
		served := 0
		if v := byName[st.Model]; v != nil {
			served = v.served
		}
		ld, _ := md.Deployment(st.Model)
		rt := ld.Table()
		fmt.Printf("model %q: %d queries (%.1f offered qps at close), epoch %d (%d swaps), dense P50=%v P95=%v, cached tables %d bytes\n",
			st.Model, served, st.OfferedQPS, st.Epoch, st.Swaps,
			ld.Dense.Latency.Quantile(0.50).Round(time.Microsecond),
			ld.Dense.Latency.Quantile(0.95).Round(time.Microsecond),
			st.Counters.CachedSortedBytes)
		if ld.Batcher != nil {
			fmt.Printf("model %q batcher: %d requests fused into %d batches (mean batch %.1f inputs)\n",
				st.Model, ld.Batcher.Requests.Value(), ld.Batcher.Batches.Value(), ld.Batcher.BatchSizes.Mean())
		}
		for s := 0; s < rt.NumShards(0); s++ {
			fmt.Printf("model %q epoch %d table0 shard %d: replicas=%d utility=%.1f%% P95=%v\n",
				st.Model, rt.Epoch, s+1, rt.Pools[0][s].Size(), 100*rt.Utility(0, s),
				rt.Shards[0][s].Latency.Quantile(0.95).Round(time.Microsecond))
		}
		// The admin status carries every live shard's pull-queue pressure:
		// the same depth/service EWMAs the queue-depth autoscaler scales on.
		for _, q := range st.Queues {
			fmt.Printf("model %q queue t%d/s%d: replicas=%d workers=%d depth=%d/%d depth-ewma=%.2f service-ewma=%v enqueued=%d rejected=%d\n",
				st.Model, q.Table, q.Shard, q.Replicas, q.Workers, q.Depth, q.Capacity,
				q.DepthEWMA, q.ServiceEWMA.Round(time.Microsecond), q.Enqueued, q.Rejected)
		}
		for _, label := range ld.EpochUtility.Labels() {
			if val, ok := ld.EpochUtility.Value(label); ok {
				fmt.Printf("model %q retired gauge %s = %.1f%%\n", st.Model, label, 100*val)
			}
		}
	}
	fmt.Printf("undeployed %q offered-qps meter after retirement: %.1f (metrics do not outlive the model)\n",
		hot.name, md.OfferedQPS(hot.name))
}
