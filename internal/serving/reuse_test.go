package serving

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/embedding"
)

// These tests pin the epoch-reuse layer: the plan cache must make a
// repartition back to a recent plan free of Preprocess/shard-build work,
// an incremental boundary move must rebuild only the moved shards while
// unchanged shards keep their live service pointers across epochs, and the
// shard refcounts must reach zero only when no epoch (and no cache entry)
// references a unit anymore. Run with -race in CI (the names match the
// race-repartition target's pattern).

// reuseTestbed is one epoch-reuse test's working set: a live deployment,
// the profiling window it was built from (re-fed to Repartition so the
// fingerprint hits), two boundary plans differing in exactly one cut, and
// a canned predict.
type reuseTestbed struct {
	ld           *LiveDeployment
	stats        []*embedding.AccessStats
	planA, planB []int64
	predict      func() error
}

// reuseFixture builds a small live deployment plus a second boundary plan
// differing from the first in exactly one cut.
func reuseFixture(t *testing.T, opts BuildOptions) *reuseTestbed {
	t.Helper()
	cfg := liveConfig()
	m, stats, gen := buildFixture(t, cfg)
	planA := []int64{50, 200, cfg.RowsPerTable}
	planB := []int64{50, 300, cfg.RowsPerTable} // middle boundary moved
	ld, err := BuildElastic(m, stats, planA, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ld.Close)
	req := makeRequest(cfg, gen, 4242)
	return &reuseTestbed{
		ld:    ld,
		stats: stats,
		planA: planA,
		planB: planB,
		predict: func() error {
			var reply PredictReply
			return ld.Predict(bg, req, &reply)
		},
	}
}

// TestRepartitionReusesUnchangedShards: an incremental single-boundary
// move rebuilds only the shards the boundary move touches; every unchanged
// shard's service pointer (and replica pool) is identical across epochs.
func TestRepartitionReusesUnchangedShards(t *testing.T) {
	for _, transport := range []Transport{TransportLocal, TransportTCP} {
		t.Run(string(transport), func(t *testing.T) {
			tb := reuseFixture(t, BuildOptions{Transport: transport})
			ld := tb.ld
			cfg := ld.cfg
			before := ld.Table()

			rep, err := ld.RepartitionReport(context.Background(), tb.stats, tb.planB)
			if err != nil {
				t.Fatal(err)
			}
			after := ld.Table()
			if after.Epoch != 1 {
				t.Fatalf("epoch = %d, want 1", after.Epoch)
			}
			// Moving the middle cut changes shards 1 and 2 of every
			// table; shard 0 ([0,50)) is untouched.
			if want := cfg.NumTables * 2; rep.ShardsBuilt != want {
				t.Fatalf("ShardsBuilt = %d, want %d (only the moved shards)", rep.ShardsBuilt, want)
			}
			if want := cfg.NumTables; rep.ShardsReused != want {
				t.Fatalf("ShardsReused = %d, want %d", rep.ShardsReused, want)
			}
			if !rep.CacheHit {
				t.Fatal("same stats must hit the preprocessing cache")
			}
			for tb := 0; tb < cfg.NumTables; tb++ {
				if before.Shards[tb][0] != after.Shards[tb][0] {
					t.Fatalf("table %d shard 0 service rebuilt across epochs despite unchanged range", tb)
				}
				if before.Pools[tb][0] != after.Pools[tb][0] {
					t.Fatalf("table %d shard 0 pool rebuilt across epochs", tb)
				}
				if before.Shards[tb][1] == after.Shards[tb][1] {
					t.Fatalf("table %d shard 1 service reused despite moved boundary", tb)
				}
			}
			// The deployment still serves correctly through the mixed
			// reused/fresh epoch.
			if err := tb.predict(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRepartitionCacheHitSkipsBuilds: returning to a recent plan is a full
// cache hit — no Preprocess run, no shard built (spied via BuildCounters),
// and the original epoch's exact service units come back.
func TestRepartitionCacheHitSkipsBuilds(t *testing.T) {
	tb := reuseFixture(t, BuildOptions{})
	ld := tb.ld
	epoch0 := ld.Table()
	shard00 := epoch0.Shards[0][0]
	shard01 := epoch0.Shards[0][1]

	if err := ld.Repartition(context.Background(), tb.stats, tb.planB); err != nil {
		t.Fatal(err)
	}
	mid := ld.BuildCounters()

	// Swap back to plan A: every unit (including the moved ones) is still
	// cached, so nothing may be preprocessed or built.
	rep, err := ld.RepartitionReport(context.Background(), tb.stats, tb.planA)
	if err != nil {
		t.Fatal(err)
	}
	now := ld.BuildCounters()
	if now.Preprocesses != mid.Preprocesses {
		t.Fatalf("cache-hit repartition ran Preprocess (%d -> %d)", mid.Preprocesses, now.Preprocesses)
	}
	if now.ShardsBuilt != mid.ShardsBuilt {
		t.Fatalf("cache-hit repartition built shards (%d -> %d)", mid.ShardsBuilt, now.ShardsBuilt)
	}
	if !rep.CacheHit || rep.ShardsBuilt != 0 {
		t.Fatalf("report = %+v, want a cache hit with zero builds", rep)
	}
	if rep.WarmedRows != 0 {
		t.Fatalf("cache-hit warmed %d rows; reused shards are already warm", rep.WarmedRows)
	}
	back := ld.Table()
	if back.Shards[0][0] != shard00 || back.Shards[0][1] != shard01 {
		t.Fatal("cache-hit repartition did not restore the original service units")
	}
	if err := tb.predict(); err != nil {
		t.Fatal(err)
	}
}

// TestRepartitionColdOnFreshWindow: a profiling window the cache has never
// seen is a cold build — fresh Preprocess, every shard rebuilt (a new
// fingerprint keys new units even for identical boundaries) and pre-warmed
// before publish.
func TestRepartitionColdOnFreshWindow(t *testing.T) {
	tb := reuseFixture(t, BuildOptions{})
	ld := tb.ld
	before := ld.Table().Shards[0][0]
	fresh := driftedStats(t, ld.cfg, 123, 7)
	rep, err := ld.RepartitionReport(context.Background(), fresh, tb.planA)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHit || rep.ShardsReused != 0 {
		t.Fatalf("fresh window produced reuse: %+v", rep)
	}
	if want := ld.cfg.NumTables * len(tb.planA); rep.ShardsBuilt != want {
		t.Fatalf("ShardsBuilt = %d, want %d", rep.ShardsBuilt, want)
	}
	if ld.Table().Shards[0][0] == before {
		t.Fatal("fresh window reused a shard service")
	}
	if rep.WarmedRows == 0 {
		t.Fatal("cold build should pre-warm its fresh shards")
	}
	if err := tb.predict(); err != nil {
		t.Fatal(err)
	}
}

// TestShardRefcountLifecycle: a unit's refcount is one per epoch routing
// to it plus one while cached; it drops to zero (closing transports) only
// when no epoch references it anymore and the cache has let go.
func TestShardRefcountLifecycle(t *testing.T) {
	// maxAge 1: an entry not reused for one epoch is evicted on the next
	// build, so refcounts are observable without deployment teardown.
	tb := reuseFixture(t, BuildOptions{Transport: TransportTCP})
	ld := tb.ld
	ld.cache.maxAge = 1
	epoch0 := ld.Table()
	// Live epoch + cache reference.
	if got := epoch0.units[0][0].refs.Load(); got != 2 {
		t.Fatalf("epoch-0 shard refs = %d, want 2 (epoch + cache)", got)
	}

	// Acquire the epoch like an in-flight request, then repartition: the
	// unchanged shard must be shared (epoch0 + epoch1 + cache), the moved
	// shard stays owned by epoch0 + cache until eviction.
	pinned, err := ld.Router.AcquireModel(ld.model)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	err = ld.Repartition(ctx, tb.stats, tb.planB)
	cancel()
	if err == nil {
		t.Fatal("drain should have timed out with a pinned epoch")
	}
	epoch1 := ld.Table()
	if got := epoch1.units[0][0].refs.Load(); got != 3 {
		t.Fatalf("shared shard refs = %d, want 3 (two epochs + cache)", got)
	}
	if got := epoch1.units[0][1].refs.Load(); got != 2 {
		t.Fatalf("fresh shard refs = %d, want 2 (epoch + cache)", got)
	}

	// Release the pinned epoch and close it (the drain timed out, so the
	// retiring table was intentionally leaked to us).
	pinned.release()
	epoch0.Close()
	if got := epoch1.units[0][0].refs.Load(); got != 2 {
		t.Fatalf("after retiring epoch 0, shared shard refs = %d, want 2", got)
	}
	// The moved shard of epoch 0 is now held only by the cache; its
	// service must still answer (kept warm for a return swap).
	var reply GatherReply
	err = epoch0.Shards[0][1].Gather(bg, &GatherRequest{Indices: []int64{0}, Offsets: []int32{0}}, &reply)
	if err != nil {
		t.Fatalf("cached shard service gather: %v", err)
	}
}

// TestRepartitionUnderFireWithReuse is the reuse twin of the
// repartition-under-fire acceptance: 8 clients hammer Predict while the
// plan alternates between two overlapping boundary sets built from the
// SAME stats — so every swap shares most shard units with the epoch it
// retires. Replies must stay monolith-equivalent throughout (a refcount
// bug would tear a shared unit's transports down under in-flight gathers).
func TestRepartitionUnderFireWithReuse(t *testing.T) {
	for _, transport := range []Transport{TransportLocal, TransportTCP} {
		t.Run(string(transport), func(t *testing.T) {
			cfg := liveConfig()
			if transport == TransportTCP {
				cfg.NumTables = 2 // keep the socket count friendly
			}
			m, stats, gen := buildFixture(t, cfg)
			mono := NewMonolith(m.Clone())
			plans := [][]int64{
				{50, 200, cfg.RowsPerTable},
				{50, 300, cfg.RowsPerTable},
			}
			ld, err := BuildElastic(m, stats, plans[0], BuildOptions{Transport: transport})
			if err != nil {
				t.Fatal(err)
			}
			defer ld.Close()

			const clients = 8
			const perClient = 20
			reqs := make([]*PredictRequest, clients*perClient)
			want := make([][]float32, len(reqs))
			for i := range reqs {
				reqs[i] = makeRequest(cfg, gen, uint64(9000+i))
				var mr PredictReply
				if err := mono.Predict(bg, reqs[i], &mr); err != nil {
					t.Fatal(err)
				}
				want[i] = mr.Probs
			}

			var stop atomic.Bool
			var wg sync.WaitGroup
			errc := make(chan error, clients)
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for q := 0; !stop.Load(); q = (q + 1) % perClient {
						i := c*perClient + q
						var reply PredictReply
						if err := ld.Predict(bg, reqs[i], &reply); err != nil {
							errc <- fmt.Errorf("client %d: %w", c, err)
							return
						}
						for j := range want[i] {
							if math.Abs(float64(reply.Probs[j]-want[i][j])) > 1e-4 {
								errc <- fmt.Errorf("client %d query %d: %v != monolith %v", c, q, reply.Probs[j], want[i][j])
								return
							}
						}
					}
				}(c)
			}
			const swaps = 10
			var reused int
			for swap := 0; swap < swaps; swap++ {
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				rep, err := ld.RepartitionReport(ctx, stats, plans[(swap+1)%len(plans)])
				cancel()
				if err != nil {
					stop.Store(true)
					wg.Wait()
					t.Fatalf("swap %d: %v", swap, err)
				}
				reused += rep.ShardsReused
			}
			stop.Store(true)
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}
			if reused == 0 {
				t.Fatal("no shard was ever reused across ten same-stats swaps")
			}
			if got := ld.Epoch(); got != swaps {
				t.Fatalf("final epoch = %d, want %d", got, swaps)
			}
		})
	}
}

// TestPrewarmBounds: Prewarm touches at most the shard's rows and never
// perturbs the utility tracker.
func TestPrewarmBounds(t *testing.T) {
	cfg := liveConfig()
	m, stats, _ := buildFixture(t, cfg)
	ld, err := BuildElastic(m, stats, []int64{50, cfg.RowsPerTable}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()
	sh := ld.Table().Shards[0][0]
	if got := sh.Prewarm(1 << 20); got != sh.Rows() {
		t.Fatalf("Prewarm touched %d rows, want clamped to %d", got, sh.Rows())
	}
	if u := sh.Utility.Utility(); u != 0 {
		t.Fatalf("Prewarm moved the utility tracker to %v; warming must not distort Fig. 14", u)
	}
}

func TestFingerprintStability(t *testing.T) {
	cfg := liveConfig()
	_, statsA, _ := buildFixture(t, cfg)
	_, statsB, _ := buildFixture(t, cfg)
	if fingerprintStats(statsA) != fingerprintStats(statsB) {
		t.Fatal("identical windows must fingerprint identically")
	}
	statsB[0].Counts[0]++
	statsB[0].Total++
	if fingerprintStats(statsA) == fingerprintStats(statsB) {
		t.Fatal("different windows must fingerprint differently")
	}
}
