package main

import (
	"fmt"

	"repro/internal/model"
	"repro/internal/serving"
)

// workload is one deployment shape plus the load constants frozen for it.
// rLo, rHi and sloMs were measured once on the reference box (see
// REPEATABILITY.md) and are never adapted at run time.
type workload struct {
	name string // BENCHMARK.json and README.md say why each exists

	cfg      model.Config
	poolSize int // pre-generated requests
	// segments > 1 rotates the hot set between consecutive runs of the
	// pool (plan_swap); clients then replay one segment per second.
	segments int

	transport serving.Transport
	batching  bool
	// rowCacheDiv > 0 gives the frontend row cache 1/rowCacheDiv of the
	// total table bytes (which implies rows-mode gathers with dedup).
	rowCacheDiv int64
	// planSwap runs the re-profiling control loop beside the traffic.
	planSwap bool

	rLo, rHi float64 // open-loop rates, req/s
	sloMs    float64 // latency limit of slo_ok_share at rHi
}

// Every workload serves batch-32 queries over 4 tables of 200k rows cut
// into 3 shards per table.
const (
	benchTables = 4
	benchRows   = 200_000
	benchBatch  = 32
	// swapRows is plan_swap's table size: a quarter of the others', so
	// that a cold plan build takes a fraction of a second and a run sees
	// tens of swaps, not a handful whose timing decides every metric.
	swapRows = 50_000
)

func denseConfig() model.Config {
	return model.Config{
		Name:          "bench-dense",
		DenseInputDim: 13,
		BottomMLP:     []int{256, 128, 32},
		TopMLP:        []int{256, 64, 1},
		NumTables:     benchTables,
		RowsPerTable:  benchRows,
		EmbeddingDim:  32,
		Pooling:       8,
		LocalityP:     localityP,
		BatchSize:     benchBatch,
	}
}

func gatherConfig(rows int64) model.Config {
	return model.Config{
		Name:          "bench-gather",
		DenseInputDim: 13,
		BottomMLP:     []int{16, 64},
		TopMLP:        []int{16, 1},
		NumTables:     benchTables,
		RowsPerTable:  rows,
		EmbeddingDim:  64,
		Pooling:       128,
		LocalityP:     localityP,
		BatchSize:     benchBatch,
	}
}

// workloads lists the benchmark's workloads; the names are final.
var workloads = []*workload{
	{
		name:      "dense_local",
		cfg:       denseConfig(),
		poolSize:  256,
		segments:  1,
		transport: serving.TransportLocal,
		batching:  true,
		rLo:       200, rHi: 400, sloMs: 50,
	},
	{
		name:      "gather_tcp",
		cfg:       gatherConfig(benchRows),
		poolSize:  768,
		segments:  1,
		transport: serving.TransportTCP,
		rLo:       120, rHi: 240, sloMs: 100,
	},
	{
		name:        "rows_cache_tcp",
		cfg:         gatherConfig(benchRows),
		poolSize:    768,
		segments:    1,
		transport:   serving.TransportTCP,
		rowCacheDiv: 8,
		rLo:         70, rHi: 140, sloMs: 120,
	},
	{
		name:        "plan_swap",
		cfg:         gatherConfig(swapRows),
		poolSize:    513,
		segments:    3,
		transport:   serving.TransportTCP,
		rowCacheDiv: 8,
		planSwap:    true,
		rLo:         65, rHi: 130, sloMs: 250,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// rowCacheBytes is the workload's row-cache budget (0 = no cache).
func (w *workload) rowCacheBytes() int64 {
	if w.rowCacheDiv == 0 {
		return 0
	}
	return w.cfg.TableBytes() * int64(w.cfg.NumTables) / w.rowCacheDiv
}

// rowCacheRows is the most rows the cache budget can hold.
func (w *workload) rowCacheRows() int64 {
	return w.rowCacheBytes() / (int64(w.cfg.EmbeddingDim) * 4)
}

// buildOptions returns the deployment options of the workload. Everything
// not named here stays at the repository's defaults.
func (w *workload) buildOptions() serving.BuildOptions {
	opts := serving.BuildOptions{Transport: w.transport, RowCacheBytes: w.rowCacheBytes()}
	if w.batching {
		opts.Batching = &serving.BatcherOptions{}
	}
	return opts
}
