package serving

import (
	"testing"

	"repro/internal/model"
)

// Steady-state allocation pins for the dense forward's callers. Batch
// scratch that starts being allocated per request shows up here as a
// count, long before it shows up in a timing. The fixture's batch of 16
// runs the dense forward's 8-sample tile twice per layer.

// allocFixtureConfig is liveConfig at a batch size the tile runs on.
func allocFixtureConfig() model.Config {
	cfg := liveConfig()
	cfg.BatchSize = 16
	return cfg
}

func TestMonolithPredictAllocatesOnlyReply(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not steady under -race")
	}
	cfg := allocFixtureConfig()
	m, _, gen := buildFixture(t, cfg)
	mono := NewMonolith(m)
	req := makeRequest(cfg, gen, 1)
	var reply PredictReply
	predict := func() {
		if err := mono.Predict(bg, req, &reply); err != nil {
			t.Fatal(err)
		}
	}
	predict() // warm the model's scratch pool and the batch views
	if allocs := testing.AllocsPerRun(100, predict); allocs != 1 {
		t.Fatalf("Monolith.Predict: %v allocations per call, want 1 (the reply's probabilities)", allocs)
	}
}

// denseShardLocalAllocs is the measured count of one steady-state
// DenseShard.Predict over TransportLocal at the fixture's geometry (4
// tables × 3 shards): the 12-call gather fan-out's allocations plus the
// reply. The batched dense forward adds none; a change that trims the
// fan-out lowers this number with it.
const denseShardLocalAllocs = 44

func TestDenseShardPredictLocalAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not steady under -race")
	}
	cfg := allocFixtureConfig()
	m, stats, gen := buildFixture(t, cfg)
	ld, err := BuildElastic(m, stats, []int64{50, 200, cfg.RowsPerTable}, BuildOptions{Transport: TransportLocal})
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()
	req := makeRequest(cfg, gen, 1)
	var reply PredictReply
	predict := func() {
		if err := ld.Dense.Predict(bg, req, &reply); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		predict()
	}
	if allocs := testing.AllocsPerRun(100, predict); allocs != denseShardLocalAllocs {
		t.Fatalf("DenseShard.Predict over TransportLocal: %v allocations per call, want %d", allocs, denseShardLocalAllocs)
	}
}

// batchedLocalAllocs is the measured count of one steady-state
// LiveDeployment.Predict through the dynamic batcher over TransportLocal
// at the fixture's geometry: denseShardLocalAllocs plus the batcher's
// per-request and per-batch bookkeeping (pending entry, done channel,
// fill timer, dispatch goroutine). The batcher's fixed limits (solo
// grace, in-flight cap, queue capacity) allocate nothing per request.
const batchedLocalAllocs = 59

// tcpAllocs is the measured count of one steady-state
// LiveDeployment.Predict over TransportTCP at the fixture's geometry,
// both ends of the 12 gather round trips included (the servers run in
// this process, so their allocations are counted too).
const tcpAllocs = 212

func TestLiveDeploymentPredictAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not steady under -race")
	}
	cfg := allocFixtureConfig()
	for _, c := range []struct {
		name string
		opts BuildOptions
		want float64
	}{
		{"batched-local", BuildOptions{Transport: TransportLocal, Batching: &BatcherOptions{}}, batchedLocalAllocs},
		{"tcp", BuildOptions{Transport: TransportTCP}, tcpAllocs},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, stats, gen := buildFixture(t, cfg)
			ld, err := BuildElastic(m, stats, []int64{50, 200, cfg.RowsPerTable}, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer ld.Close()
			req := makeRequest(cfg, gen, 1)
			var reply PredictReply
			predict := func() {
				if err := ld.Predict(bg, req, &reply); err != nil {
					t.Fatal(err)
				}
			}
			// Warm every pool and connection past its first-use growth.
			for i := 0; i < 50; i++ {
				predict()
			}
			if allocs := testing.AllocsPerRun(100, predict); allocs != c.want {
				t.Fatalf("LiveDeployment.Predict (%s): %v allocations per call, want %v", c.name, allocs, c.want)
			}
		})
	}
}
