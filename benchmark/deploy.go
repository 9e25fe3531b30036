package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/serving"
)

// numClients is the load generator's connection count. The reference box
// has 2 CPUs and the generator shares them with the server, so more
// clients would only measure the scheduler.
const numClients = 2

// frontendName is the predict service name on the deployment's listener.
const frontendName = "Frontend"

// planCoverage are the CDF coverage fractions the shard boundaries are cut
// at: 3 shards per table, the hot one absorbing 70% of the lookups.
var planCoverage = []float64{0.70, 0.95}

// deployment is one live system under test: the model, the sharded
// deployment built from it, its TCP frontend and the generator's
// connections to that frontend.
type deployment struct {
	model   *model.Model
	ld      *serving.LiveDeployment
	clients []*serving.RPCPredictClient
}

// modelSeed derives the parameter seed from the run seed; every set-up of
// one run builds the identical model, so one oracle serves them all.
func modelSeed(seed uint64) uint64 { return seed*0x9e3779b97f4a7c15 + 0x5eed }

// cutBoundaries cuts a hotness-sorted table at the planCoverage fractions
// of its access CDF, the cheap stand-in for the DP planner that the
// repository's live examples use.
func cutBoundaries(st *embedding.AccessStats) []int64 {
	return embedding.NewCDF(st).ProportionalCuts(planCoverage...)
}

// setUp builds the workload's deployment from the request pool and returns
// it with the time the build took: model, profiling window, BuildElastic,
// the TCP frontend and the generator's dials. Pool and oracle generation
// are the benchmark's own work and stay outside the timed region.
func setUp(w *workload, pool *requestPool, seed uint64) (*deployment, time.Duration, error) {
	start := time.Now()
	d := &deployment{}
	var err error
	if d.model, err = model.New(w.cfg, modelSeed(seed)); err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	lo, hi := pool.segment(0)
	stats, err := pool.accessStats(w.cfg, lo, hi)
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	d.ld, err = serving.BuildElastic(d.model, stats, cutBoundaries(stats[0]), w.buildOptions())
	if err != nil {
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	addr, err := d.ld.ExportPredict(frontendName)
	if err != nil {
		d.close()
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	for i := 0; i < numClients; i++ {
		c, err := serving.DialPredict(addr, frontendName)
		if err != nil {
			d.close()
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		d.clients = append(d.clients, c)
	}
	return d, time.Since(start), nil
}

// predictClients returns the generator's connections as PredictClients.
func (d *deployment) predictClients() []serving.PredictClient {
	out := make([]serving.PredictClient, len(d.clients))
	for i, c := range d.clients {
		out[i] = c
	}
	return out
}

// close tears the connections and the deployment down.
func (d *deployment) close() {
	for _, c := range d.clients {
		_ = c.Close() // the connection is being discarded
	}
	d.clients = nil
	d.ld.Close()
}

// setupChecks is how many pool requests are verified through in-process
// Predict before any timing starts.
const setupChecks = 64

// verifyOracle sends the first setupChecks requests through the
// deployment in-process and fails if any reply disagrees with the oracle:
// a benchmark whose reference is wrong measures nothing.
func (d *deployment) verifyOracle(pool *requestPool) error {
	for i := 0; i < setupChecks && i < len(pool.reqs); i++ {
		var reply serving.PredictReply
		if err := d.ld.Predict(context.Background(), pool.reqs[i], &reply); err != nil {
			return fmt.Errorf("set-up check: request %d: %w", i, err)
		}
		if !pool.replyMatches(i, reply.Probs) {
			return fmt.Errorf("set-up check: request %d: sharded reply disagrees with the monolith oracle", i)
		}
	}
	return nil
}
