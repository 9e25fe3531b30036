package serving

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestRowCacheEquivalence is the correctness gate for gather path v2 with
// the frontend hot-row cache on: predictions must match the monolith to
// the same tolerance as the cache-off path, and replaying each query must
// actually exercise the hit path (a cache that never hits would pass the
// equivalence check vacuously).
func TestRowCacheEquivalence(t *testing.T) {
	cfg := liveConfig()
	m, stats, gen := buildFixture(t, cfg)
	mono := NewMonolith(m.Clone())
	ld, err := BuildElastic(m, stats, []int64{50, 200, cfg.RowsPerTable},
		BuildOptions{Transport: TransportLocal, RowCacheBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()
	reqs := make([]*PredictRequest, 20)
	for i := range reqs {
		reqs[i] = makeRequest(cfg, gen, uint64(i))
	}
	for pass := 0; pass < 3; pass++ { // later passes replay warm rows
		for i, req := range reqs {
			var monoReply, shardReply PredictReply
			if err := mono.Predict(bg, req, &monoReply); err != nil {
				t.Fatal(err)
			}
			if err := ld.Predict(bg, req, &shardReply); err != nil {
				t.Fatal(err)
			}
			for j := range monoReply.Probs {
				if math.Abs(float64(monoReply.Probs[j]-shardReply.Probs[j])) > 1e-5 {
					t.Fatalf("pass %d query %d input %d: monolith %v vs cached %v",
						pass, i, j, monoReply.Probs[j], shardReply.Probs[j])
				}
			}
		}
	}
	bc := ld.BuildCounters()
	if bc.RowCacheSeeded == 0 {
		t.Fatal("publish-time seeding installed no rows")
	}
	if bc.RowCacheHits == 0 {
		t.Fatal("cache never hit across three passes over the same queries")
	}
	if bc.RowCacheBytes <= 0 || bc.RowCacheBytes > 1<<20 {
		t.Fatalf("cache footprint %d outside (0, budget]", bc.RowCacheBytes)
	}
}

// TestGatherRowsDedupMultiplicity hand-builds batches whose bags repeat
// the same row with different multiplicities — the exact shape the
// in-batch dedup must re-expand correctly. A dropped or double-counted
// multiplicity shifts the pooled sum and diverges from the monolith.
// Rows mode adds each bag's rows in the monolith's order, so the replies
// must match bit for bit. A 1-byte cache budget holds no row: every row
// is a miss, which covers rows mode with the cache effectively off.
func TestGatherRowsDedupMultiplicity(t *testing.T) {
	cfg := liveConfig()
	m, stats, _ := buildFixture(t, cfg)
	mono := NewMonolith(m.Clone())
	for _, opts := range []BuildOptions{
		{Transport: TransportLocal, RowCacheBytes: 1},
		{Transport: TransportLocal, RowCacheBytes: 1 << 18},
	} {
		ld, err := BuildElastic(m.Clone(), stats, []int64{50, 200, cfg.RowsPerTable}, opts)
		if err != nil {
			t.Fatal(err)
		}
		rng := workload.NewRNG(7)
		for q := 0; q < 12; q++ {
			req := &PredictRequest{
				BatchSize: cfg.BatchSize,
				DenseDim:  cfg.DenseInputDim,
				Dense:     make([]float32, cfg.BatchSize*cfg.DenseInputDim),
			}
			for i := range req.Dense {
				req.Dense[i] = float32(rng.Float64()*2 - 1)
			}
			// Three bags per table: [r,r,r], [r,s,r,s,s], [s] — heavy
			// duplication within and across bags, plus boundary rows.
			for tb := 0; tb < cfg.NumTables; tb++ {
				r := rng.Intn(cfg.RowsPerTable)
				s := (r + 1 + rng.Intn(100)) % cfg.RowsPerTable
				req.Tables = append(req.Tables, TableBatch{
					Indices: []int64{r, r, r, r, s, r, s, s, s},
					Offsets: []int32{0, 3, 8},
				})
			}
			// Twice: the second run replays the rows through the warm cache.
			for pass := 0; pass < 2; pass++ {
				var monoReply, shardReply PredictReply
				if err := mono.Predict(bg, req, &monoReply); err != nil {
					t.Fatal(err)
				}
				if err := ld.Predict(bg, req, &shardReply); err != nil {
					t.Fatal(err)
				}
				for j := range monoReply.Probs {
					if math.Float32bits(monoReply.Probs[j]) != math.Float32bits(shardReply.Probs[j]) {
						t.Fatalf("opts %+v query %d pass %d input %d: monolith %v vs dedup %v",
							opts, q, pass, j, monoReply.Probs[j], shardReply.Probs[j])
					}
				}
			}
		}
		ld.Close()
	}
}

// TestRowsModeSpillBitExact drives rows mode past its hot window. On
// 20 000-row tables a uniform draw sends most indices past the first
// rowsModeHotWindow sorted rows, into the spill whose packed
// (row, position) keys sort into both the unique rows and each position's
// uniq slot. Cuts on and around the window edge, a single shard, a budget
// that holds no row and one that holds some, and bags that repeat rows
// within and across bags must all reproduce the monolith bit for bit.
func TestRowsModeSpillBitExact(t *testing.T) {
	cfg := liveConfig()
	cfg.NumTables = 2
	cfg.RowsPerTable = 20000
	m, stats, _ := buildFixture(t, cfg)
	mono := NewMonolith(m.Clone())
	rows := cfg.RowsPerTable
	for _, cuts := range [][]int64{{100, 8192, 9000, rows}, {8191, 8193, rows}, {rows}} {
		for _, budget := range []int64{1, 64 << 10} {
			ld, err := BuildElastic(m.Clone(), stats, cuts,
				BuildOptions{Transport: TransportLocal, RowCacheBytes: budget})
			if err != nil {
				t.Fatal(err)
			}
			rank := ld.Router.LoadModel(DefaultModel).Pre.RankOf
			rng := workload.NewRNG(uint64(len(cuts))<<32 | uint64(budget))
			hot, spilled := 0, 0
			for q := 0; q < 15; q++ {
				req := &PredictRequest{
					BatchSize: cfg.BatchSize,
					DenseDim:  cfg.DenseInputDim,
					Dense:     make([]float32, cfg.BatchSize*cfg.DenseInputDim),
				}
				for i := range req.Dense {
					req.Dense[i] = float32(rng.Float64()*2 - 1)
				}
				for tb := 0; tb < cfg.NumTables; tb++ {
					// Bags of 1-8 draws from six uniform rows, so rows
					// repeat within a bag and across bags.
					var pool [6]int64
					for k := range pool {
						pool[k] = rng.Intn(rows)
					}
					var b TableBatch
					for i := 0; i < cfg.BatchSize; i++ {
						b.Offsets = append(b.Offsets, int32(len(b.Indices)))
						for n := 1 + rng.Intn(8); n > 0; n-- {
							idx := pool[rng.Intn(int64(len(pool)))]
							if rank[tb][idx] < rowsModeHotWindow {
								hot++
							} else {
								spilled++
							}
							b.Indices = append(b.Indices, idx)
						}
					}
					req.Tables = append(req.Tables, b)
				}
				// Twice: the second run replays the rows through the warm cache.
				for pass := 0; pass < 2; pass++ {
					var monoReply, shardReply PredictReply
					if err := mono.Predict(bg, req, &monoReply); err != nil {
						t.Fatal(err)
					}
					if err := ld.Predict(bg, req, &shardReply); err != nil {
						t.Fatal(err)
					}
					for j := range monoReply.Probs {
						if math.Float32bits(monoReply.Probs[j]) != math.Float32bits(shardReply.Probs[j]) {
							t.Fatalf("cuts %v budget %d query %d pass %d input %d: monolith %v vs rows mode %v",
								cuts, budget, q, pass, j, monoReply.Probs[j], shardReply.Probs[j])
						}
					}
				}
			}
			ld.Close()
			if hot == 0 || spilled == 0 {
				t.Fatalf("cuts %v: %d hot-window and %d spilled indices, want both", cuts, hot, spilled)
			}
		}
	}
}

// TestRowCacheRepartitionUnderFire drives closed-loop clients against a
// cache-enabled deployment while Repartition swaps the plan repeatedly.
// Every repartition remaps row ids, so a single cross-epoch cache hit
// would serve a stale vector and diverge from the monolith. Run with
// -race in CI: it also exercises concurrent lookup/fill/advance/lazy
// eviction on the cache shards.
func TestRowCacheRepartitionUnderFire(t *testing.T) {
	cfg := liveConfig()
	m, stats, gen := buildFixture(t, cfg)
	mono := NewMonolith(m.Clone())
	// Small budget: fills run eviction constantly while epochs advance.
	ld, err := BuildElastic(m, stats, []int64{50, 200, cfg.RowsPerTable},
		BuildOptions{Transport: TransportLocal, RowCacheBytes: 64 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()

	const clients = 8
	const perClient = 40
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
					errc <- fmt.Errorf("client %d query %d: %w", c, q, err)
					return
				}
				for j := range want[i] {
					if math.Abs(float64(reply.Probs[j]-want[i][j])) > 1e-4 {
						errc <- fmt.Errorf("client %d query %d input %d: %v != monolith %v (stale cached row?)",
							c, q, j, reply.Probs[j], want[i][j])
						return
					}
				}
			}
		}(c)
	}

	plans := [][]int64{
		{80, 300, cfg.RowsPerTable},
		{50, 200, cfg.RowsPerTable},
		{120, 250, 400, cfg.RowsPerTable},
	}
	const swaps = 8
	for swap := 0; swap < swaps; swap++ {
		fresh := driftedStats(t, cfg, int64(swap*40), uint64(swap))
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		err := ld.Repartition(ctx, fresh, plans[swap%len(plans)])
		cancel()
		if err != nil {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("swap %d: %v", swap, err)
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	bc := ld.BuildCounters()
	if bc.RowCacheHits == 0 {
		t.Fatal("cache never hit under fire — the hot path stopped consulting it")
	}
	if bc.RowCacheEvicted == 0 {
		t.Fatal("no evictions across 8 epoch swaps under a 64KiB budget")
	}
	if bc.RowCacheBytes > 64<<10 {
		t.Fatalf("cache footprint %d exceeds the 64KiB budget after swaps", bc.RowCacheBytes)
	}
}

// TestRowCacheEpochSemantics unit-tests the epoch discipline directly:
// in-flight requests of a retiring epoch keep hitting their own entries,
// fills for retired epochs are rejected, and entries from an epoch that
// is neither live nor the requester's are lazily evicted on lookup.
func TestRowCacheEpochSemantics(t *testing.T) {
	c := newRowCache(1 << 16)
	vec := []float32{1, 2, 3, 4}

	if !c.fill(0, 0, 7, vec) {
		t.Fatal("fill at live epoch 0 rejected")
	}
	if got := c.get(0, 0, 7); len(got) != 4 || got[2] != 3 {
		t.Fatalf("get at the filling epoch = %v", got)
	}

	c.advance(1)
	// A request still pinned to epoch 0 may keep hitting its entry...
	if c.get(0, 0, 7) == nil {
		t.Fatal("pinned epoch-0 request lost its entry after advance")
	}
	// ...but retired-epoch fills must be dropped.
	if c.fill(0, 1, 9, vec) {
		t.Fatal("fill for retired epoch 0 accepted after advance(1)")
	}
	// An epoch-1 request misses the epoch-0 entry (same key, possibly a
	// different row after remapping) and must never read it.
	if c.get(1, 0, 7) != nil {
		t.Fatal("cross-epoch hit: epoch-1 request read an epoch-0 entry")
	}

	c.advance(2)
	// Now the entry's epoch 0 is neither live (2) nor the requester's (1):
	// the lookup must lazily evict it.
	if c.get(1, 0, 7) != nil {
		t.Fatal("cross-epoch hit after second advance")
	}
	if got := c.stats(); got.Evicted == 0 {
		t.Fatal("doubly-stale entry was not lazily evicted")
	}
	if c.get(0, 0, 7) != nil {
		t.Fatal("entry readable after lazy eviction")
	}

	// Counters are batched in by the caller, not counted per get.
	c.note(3, 2)
	if st := c.stats(); st.Hits != 3 || st.Misses != 2 {
		t.Fatalf("noted counters = %+v", st)
	}

	// Nil receiver: every method is a safe no-op for the disabled cache.
	var nilCache *rowCache
	if nilCache.get(0, 0, 0) != nil || nilCache.fill(0, 0, 0, vec) {
		t.Fatal("nil cache claimed a hit or fill")
	}
	nilCache.advance(1)
	nilCache.note(1, 1)
	nilCache.clear()
	if st := nilCache.stats(); st != (rowCacheStats{}) {
		t.Fatalf("nil cache stats = %+v", st)
	}
}

// TestRowCacheBudgetEviction fills far past the byte budget and checks
// the FIFO eviction holds the footprint under it, while seeding (the
// non-evicting publish-time pass) stops at the budget instead of
// thrashing rows it just installed.
func TestRowCacheBudgetEviction(t *testing.T) {
	const budget = 16 << 10
	c := newRowCache(budget)
	vec := make([]float32, 16) // 64B payload + 64B overhead = 128B/entry
	for i := range vec {
		vec[i] = float32(i)
	}
	for r := int64(0); r < 4096; r++ { // ~512KiB offered against 16KiB
		c.fill(0, 0, r, vec)
	}
	st := c.stats()
	if st.Bytes > budget {
		t.Fatalf("footprint %d exceeds budget %d", st.Bytes, budget)
	}
	if st.Evicted == 0 {
		t.Fatal("filling 32x the budget evicted nothing")
	}
	// The newest rows survive FIFO eviction and stay readable.
	if got := c.get(0, 0, 4095); len(got) != 16 || got[15] != 15 {
		t.Fatal("most recent fill not readable")
	}

	// Seeding a fresh cache's prefix plane stops at its budget share
	// without evicting, and the seeded rows read back lock-free.
	s := newRowCache(budget)
	b := s.newPrefixBuilder(0, 1, len(vec))
	inserted := 0
	for r := int64(0); r < 4096; r++ {
		if !b.add(0, vec) {
			break
		}
		inserted++
	}
	b.install()
	sst := s.stats()
	if sst.Bytes > budget {
		t.Fatalf("seeded footprint %d exceeds budget %d", sst.Bytes, budget)
	}
	if sst.Evicted != 0 {
		t.Fatal("seeding evicted entries")
	}
	if inserted == 0 || inserted == 4096 {
		t.Fatalf("seed inserted %d of 4096 — expected a budget-bounded prefix", inserted)
	}
	if sst.Seeded != int64(inserted) {
		t.Fatalf("Seeded = %d, want %d", sst.Seeded, inserted)
	}
	if got := s.get(0, 0, int64(inserted-1)); len(got) != 16 || got[15] != 15 {
		t.Fatal("last seeded prefix row not readable")
	}
	if s.get(0, 0, int64(inserted)) != nil {
		t.Fatal("row past the seeded prefix claimed a hit")
	}
	// Re-seeding a later epoch retires the old prefix wholesale.
	b2 := s.newPrefixBuilder(1, 1, len(vec))
	s.advance(1)
	if !b2.add(0, vec) {
		t.Fatal("fresh epoch prefix refused its first row")
	}
	b2.install()
	if st := s.stats(); st.Evicted != int64(inserted) {
		t.Fatalf("prefix swap evicted %d, want %d", st.Evicted, inserted)
	}
	if s.get(0, 0, 0) != nil || s.get(1, 0, 0) == nil {
		t.Fatal("prefix epoch gating wrong after swap")
	}
}

// idleGatherClient is a distinguishable no-op replica for pool ranking
// tests.
type idleGatherClient struct{ id int }

func (idleGatherClient) Gather(context.Context, *GatherRequest, *GatherReply) error { return nil }

// TestReplicaPoolRemovesColdest is the property test for utilization-
// ranked scale-in: across random per-replica busy times, Remove must
// return the replica with the lowest utilization, break exact ties
// toward the newest replica, and never empty the pool.
func TestReplicaPoolRemovesColdest(t *testing.T) {
	rng := workload.NewRNG(42)
	for trial := 0; trial < 60; trial++ {
		n := int(2 + rng.Intn(5))
		clients := make([]GatherClient, n)
		for i := range clients {
			clients[i] = idleGatherClient{id: i}
		}
		pool := NewReplicaPool(clients...)

		// Fix every replica's lifetime and assign random busy times; some
		// trials force exact ties to exercise the newest-wins rule.
		base := time.Now().Add(-time.Minute)
		busy := make([]int64, n)
		for i := range busy {
			busy[i] = rng.Intn(int64(time.Minute))
			if trial%4 == 0 {
				busy[i] = int64(trial) * int64(time.Millisecond)
				if i > 0 {
					busy[i] = busy[0] // all tied
				}
			}
			pool.replicas[i].added = base
			pool.replicas[i].busy.Store(busy[i])
		}
		// Expected victim: minimum busy (equal lifetimes make utilization
		// proportional to busy), ties toward the highest index.
		wantID := 0
		for i := 1; i < n; i++ {
			if busy[i] <= busy[wantID] {
				wantID = i
			}
		}

		got := pool.Remove()
		if got == nil {
			t.Fatalf("trial %d: Remove returned nil with %d replicas", trial, n)
		}
		if id := got.(idleGatherClient).id; id != wantID {
			t.Fatalf("trial %d: removed replica %d, want coldest %d (busy=%v)", trial, id, wantID, busy)
		}
		// Draining: Remove refuses to empty the pool.
		for pool.Remove() != nil {
		}
		if pool.Size() != 1 {
			t.Fatalf("trial %d: pool drained to %d replicas", trial, pool.Size())
		}
		pool.Close()
	}
}
