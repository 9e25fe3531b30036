package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/serving"
)

// The benchmark owns its input generator: the program under test sees only
// the generated requests, and a change to internal/workload cannot move the
// benchmark's inputs.

// rng is a splitmix64 generator; every input derives from the -seed flag
// through one of these.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed} }

func (r *rng) uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform value in [0, 1).
func (r *rng) float64() float64 { return float64(r.uint64()>>11) / float64(1<<53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int64) int64 { return int64(r.uint64() % uint64(n)) }

// exp returns an exponentially distributed value with mean 1 (Poisson
// inter-arrival times).
func (r *rng) exp() float64 {
	u := r.float64()
	for u == 0 {
		u = r.float64()
	}
	return -math.Log(u)
}

// Power-law shape of the sampled ranks: localityP of the lookups land in
// the hottest hotFraction of ranks, and inside each segment rank k is drawn
// with weight (k+1)^-zipfS. This is the paper's locality metric P = 0.9.
const (
	localityP   = 0.9
	hotFraction = 0.10
	zipfS       = 0.9
)

// sampleRank draws one rank in [0, rows); rank 0 is the hottest.
func sampleRank(r *rng, rows int64) int64 {
	hot := int64(float64(rows) * hotFraction)
	if hot < 1 {
		hot = 1
	}
	if hot >= rows {
		return truncZipf(r, 0, rows)
	}
	if r.float64() < localityP {
		return truncZipf(r, 0, hot)
	}
	return truncZipf(r, hot, rows)
}

// truncZipf draws a rank in [lo, hi) with weight (rank-lo+1)^-zipfS by
// inverting the continuous approximation of the CDF.
func truncZipf(r *rng, lo, hi int64) int64 {
	n := float64(hi - lo)
	if n <= 1 {
		return lo
	}
	a := 1 - zipfS
	x := math.Pow(r.float64()*(math.Pow(1+n, a)-1)+1, 1/a) - 1
	k := int64(x)
	if k >= hi-lo {
		k = hi - lo - 1
	}
	return lo + k
}

// shuffledIDs returns a seeded permutation of [0, rows): rank k maps to
// row ids[k], so the hot rows are not the low ids.
func shuffledIDs(r *rng, rows int64) []int64 {
	ids := make([]int64, rows)
	for i := range ids {
		ids[i] = int64(i)
	}
	for i := rows - 1; i > 0; i-- {
		j := r.intn(i + 1)
		ids[i], ids[j] = ids[j], ids[i]
	}
	return ids
}

// requestPool is the pre-generated request set of one run together with
// the oracle reply of every request.
type requestPool struct {
	reqs   []*serving.PredictRequest
	oracle [][]float32 // filled by fillOracle
	// segments splits reqs into equal consecutive runs whose hot sets are
	// rotated against each other (plan_swap); 1 everywhere else.
	segments int
	// distinctRows is the size of the union of rows the pool touches,
	// summed over tables.
	distinctRows int64
	hash         uint64
}

// segment returns the requests of segment s.
func (p *requestPool) segment(s int) (lo, hi int) {
	n := len(p.reqs) / p.segments
	return s * n, (s + 1) * n
}

// newRequestPool generates size requests of cfg's geometry from seed. The
// pool depends on (seed, geometry, size, segments) only, never on the
// workload's name, so two workloads with the same geometry replay the
// identical pool. Segment s draws the same rank distribution but maps rank
// k to the id of rank k + s*rows/segments, which moves the hot set. Each
// request has its own generator derived from (seed, position), so the
// requests are built on every CPU and still come out the same.
func newRequestPool(cfg model.Config, seed uint64, size, segments int) *requestPool {
	r := newRNG(seed)
	ids := make([][]int64, cfg.NumTables)
	for t := range ids {
		ids[t] = shuffledIDs(r, cfg.RowsPerTable)
	}
	p := &requestPool{segments: segments, reqs: make([]*serving.PredictRequest, size)}
	bs, pooling := cfg.BatchSize, cfg.Pooling
	parallelFor(size, func(i int) {
		r := newRNG(seed ^ uint64(i+1)*0xd6e8feb86659fd93)
		shift := int64(i/(size/segments)) * (cfg.RowsPerTable / int64(segments))
		req := &serving.PredictRequest{
			BatchSize: bs,
			DenseDim:  cfg.DenseInputDim,
			Dense:     make([]float32, bs*cfg.DenseInputDim),
			Tables:    make([]serving.TableBatch, cfg.NumTables),
		}
		for j := range req.Dense {
			req.Dense[j] = float32(r.float64()*2 - 1)
		}
		for t := range req.Tables {
			tb := serving.TableBatch{Indices: make([]int64, bs*pooling), Offsets: make([]int32, bs)}
			for b := 0; b < bs; b++ {
				tb.Offsets[b] = int32(b * pooling)
			}
			for j := range tb.Indices {
				tb.Indices[j] = ids[t][(sampleRank(r, cfg.RowsPerTable)+shift)%cfg.RowsPerTable]
			}
			req.Tables[t] = tb
		}
		p.reqs[i] = req
	})
	seen := make([]bool, cfg.RowsPerTable)
	for t := 0; t < cfg.NumTables; t++ {
		clear(seen)
		for _, req := range p.reqs {
			for _, id := range req.Tables[t].Indices {
				if !seen[id] {
					seen[id] = true
					p.distinctRows++
				}
			}
		}
	}
	p.hash = hashRequests(p.reqs)
	return p
}

// parallelFor runs fn(0..n-1) on every CPU and returns when all are done.
func parallelFor(n int, fn func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// hashRequests content-hashes the pool (word-wise FNV-1a over every dense
// value and index), the fingerprint printed with each run.
func hashRequests(reqs []*serving.PredictRequest) uint64 {
	h := uint64(14695981039346656037)
	word := func(v uint64) { h = (h ^ v) * 1099511628211 }
	for _, req := range reqs {
		for _, v := range req.Dense {
			word(uint64(math.Float32bits(v)))
		}
		for _, tb := range req.Tables {
			for _, idx := range tb.Indices {
				word(uint64(idx))
			}
		}
	}
	return h
}

// checkCoverage asserts that replaying the pool cannot inflate the row
// cache's hit rate: the pool must touch at least four times as many
// distinct rows as the cache can hold.
func (p *requestPool) checkCoverage(cacheRows int64) error {
	if cacheRows > 0 && p.distinctRows < 4*cacheRows {
		return fmt.Errorf("request pool touches %d distinct rows, need >= 4 x %d cache rows: enlarge the pool",
			p.distinctRows, cacheRows)
	}
	return nil
}

// accessStats replays the pool into per-table access statistics, the
// profiling window the deployment's plan is built from.
func (p *requestPool) accessStats(cfg model.Config, lo, hi int) ([]*embedding.AccessStats, error) {
	stats := make([]*embedding.AccessStats, cfg.NumTables)
	for t := range stats {
		stats[t] = embedding.NewAccessStats(cfg.RowsPerTable)
		for _, req := range p.reqs[lo:hi] {
			b := embedding.Batch{Indices: req.Tables[t].Indices, Offsets: req.Tables[t].Offsets}
			if err := stats[t].RecordBatch(&b); err != nil {
				return nil, fmt.Errorf("profiling table %d: %w", t, err)
			}
		}
	}
	return stats, nil
}

// fillOracle computes the reference reply of every request with the
// monolithic model.
func (p *requestPool) fillOracle(m *model.Model) error {
	mono := serving.NewMonolith(m)
	p.oracle = make([][]float32, len(p.reqs))
	errs := make([]error, len(p.reqs))
	parallelFor(len(p.reqs), func(i int) {
		var reply serving.PredictReply
		errs[i] = mono.Predict(context.Background(), p.reqs[i], &reply)
		p.oracle[i] = reply.Probs
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("oracle request %d: %w", i, err)
		}
	}
	return nil
}

// oracleTolerance bounds |sharded - monolith| per probability: plan swaps
// and shard merges reorder float32 sums.
const oracleTolerance = 1e-4

// replyMatches reports whether probs is the oracle's answer to request i.
func (p *requestPool) replyMatches(i int, probs []float32) bool {
	want := p.oracle[i]
	if len(probs) != len(want) {
		return false
	}
	for j, v := range probs {
		d := float64(v) - float64(want[j])
		if math.IsNaN(d) || math.IsInf(float64(v), 0) || math.Abs(d) > oracleTolerance {
			return false
		}
	}
	return true
}
