package serving

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/embedding"
	"repro/internal/model"
)

// multiFixture builds a two-variant multi-model deployment: variant "a"
// (4 tables) and variant "b" (2 tables, different rows and seed), each
// with its own monolithic baseline for equivalence checks.
func multiFixture(t *testing.T, optsA, optsB BuildOptions) (*MultiDeployment, map[string]*Monolith, map[string][]*PredictRequest) {
	t.Helper()
	cfgA := liveConfig()
	cfgB := liveConfig()
	cfgB.NumTables = 2
	cfgB.RowsPerTable = 700
	cfgB.BatchSize = 2

	mA, statsA, genA := buildFixture(t, cfgA)
	mB, statsB, genB := buildFixture(t, cfgB)
	md, err := BuildMulti(
		ModelSpec{Name: "a", Model: mA, Stats: statsA, Boundaries: []int64{50, 200, cfgA.RowsPerTable}, Options: optsA},
		ModelSpec{Name: "b", Model: mB, Stats: statsB, Boundaries: []int64{100, cfgB.RowsPerTable}, Options: optsB},
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(md.Close)

	monos := map[string]*Monolith{"a": NewMonolith(mA.Clone()), "b": NewMonolith(mB.Clone())}
	reqs := map[string][]*PredictRequest{}
	for name, pair := range map[string]struct {
		cfg model.Config
		gen requestGen
	}{
		"a": {cfgA, genA.Next},
		"b": {cfgB, genB.Next},
	} {
		for i := 0; i < 48; i++ {
			req := &PredictRequest{
				Model:     name,
				BatchSize: pair.cfg.BatchSize,
				DenseDim:  pair.cfg.DenseInputDim,
				Dense:     make([]float32, pair.cfg.BatchSize*pair.cfg.DenseInputDim),
			}
			for tb := 0; tb < pair.cfg.NumTables; tb++ {
				b := pair.gen()
				req.Tables = append(req.Tables, TableBatch{Indices: b.Indices, Offsets: b.Offsets})
			}
			reqs[name] = append(reqs[name], req)
		}
	}
	return md, monos, reqs
}

// requestGen adapts a query generator's Next for the fixture map.
type requestGen func() *embedding.Batch

// TestMultiModelDispatchEquivalence checks the frontend dispatch: each
// variant's requests score exactly as that variant's monolith, and an
// unknown model name is rejected at the frontend rather than served by
// the wrong variant.
func TestMultiModelDispatchEquivalence(t *testing.T) {
	md, monos, reqs := multiFixture(t, BuildOptions{}, BuildOptions{})
	for _, name := range []string{"a", "b"} {
		for i, req := range reqs[name] {
			var got, want PredictReply
			if err := md.Predict(bg, req, &got); err != nil {
				t.Fatalf("model %s req %d: %v", name, i, err)
			}
			if err := monos[name].Predict(bg, req, &want); err != nil {
				t.Fatal(err)
			}
			for j := range want.Probs {
				if math.Abs(float64(got.Probs[j]-want.Probs[j])) > 1e-4 {
					t.Fatalf("model %s req %d input %d: %v != monolith %v", name, i, j, got.Probs[j], want.Probs[j])
				}
			}
		}
	}
	var reply PredictReply
	err := md.Predict(bg, &PredictRequest{Model: "nope", BatchSize: 1, DenseDim: 1, Dense: []float32{0}}, &reply)
	if err == nil || !strings.Contains(err.Error(), `no model "nope"`) {
		t.Fatalf("unknown model error = %v", err)
	}
}

// TestMultiModelRepartitionIsolation is the model-isolation acceptance
// test (run under -race via make race-repartition): model A swaps epochs
// 10 times under freshly drifted statistics while 8 concurrent clients
// hammer model B. B's replies must keep matching its monolith (no request
// may ever mix models or plans), B's epoch must never move, and B's
// per-epoch served accounting must show that none of its requests were
// drained or re-routed by A's swaps.
func TestMultiModelRepartitionIsolation(t *testing.T) {
	for _, tc := range []struct {
		name     string
		optsA    BuildOptions
		optsB    BuildOptions
		batching bool
	}{
		{name: "local", optsA: BuildOptions{}, optsB: BuildOptions{}},
		{name: "local-batched", optsA: BuildOptions{},
			optsB:    BuildOptions{Batching: &BatcherOptions{MaxBatch: 8, MaxDelay: 200 * time.Microsecond}},
			batching: true},
		{name: "tcp", optsA: BuildOptions{Transport: TransportTCP}, optsB: BuildOptions{Transport: TransportTCP}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			md, monos, reqs := multiFixture(t, tc.optsA, tc.optsB)
			ldA, _ := md.Deployment("a")
			ldB, _ := md.Deployment("b")
			epochB := ldB.Table()

			want := make([][]float32, len(reqs["b"]))
			for i, req := range reqs["b"] {
				var mr PredictReply
				if err := monos["b"].Predict(bg, req, &mr); err != nil {
					t.Fatal(err)
				}
				want[i] = mr.Probs
			}

			const clients = 8
			var stop atomic.Bool
			var wg sync.WaitGroup
			errc := make(chan error, clients)
			var served atomic.Int64
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for q := c; !stop.Load(); q = (q + 1) % len(want) {
						var reply PredictReply
						if err := md.Predict(bg, reqs["b"][q], &reply); err != nil {
							errc <- fmt.Errorf("client %d query %d: %w", c, q, err)
							return
						}
						for j := range want[q] {
							if math.Abs(float64(reply.Probs[j]-want[q][j])) > 1e-4 {
								errc <- fmt.Errorf("client %d query %d input %d: %v != monolith %v (cross-model mix?)",
									c, q, j, reply.Probs[j], want[q][j])
								return
							}
						}
						served.Add(1)
					}
				}(c)
			}

			// Swap model A's plan 10 times under B's fire.
			cfgA := liveConfig()
			plans := [][]int64{
				{80, 300, cfgA.RowsPerTable},
				{50, 200, cfgA.RowsPerTable},
				{120, 250, 400, cfgA.RowsPerTable},
			}
			const swaps = 10
			for swap := 0; swap < swaps; swap++ {
				fresh := driftedStats(t, cfgA, int64(swap*40), uint64(swap))
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				err := ldA.Repartition(ctx, fresh, plans[swap%len(plans)])
				cancel()
				if err != nil {
					stop.Store(true)
					wg.Wait()
					t.Fatalf("swap %d: %v", swap, err)
				}
				if got := ldB.Table(); got != epochB {
					stop.Store(true)
					wg.Wait()
					t.Fatalf("swap %d of model a moved model b's epoch table", swap)
				}
			}
			// The swaps can outrun the clients at this scale; keep B under
			// fire until it has demonstrably served through them (client
			// errors break the wait via the errc drain below).
			waitUntil := time.Now().Add(10 * time.Second)
			for served.Load() < 32 && time.Now().Before(waitUntil) && len(errc) == 0 {
				time.Sleep(time.Millisecond)
			}
			stop.Store(true)
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}

			// A advanced 10 epochs; B never moved.
			if got := ldA.Epoch(); got != swaps {
				t.Fatalf("model a epoch = %d, want %d", got, swaps)
			}
			if got := ldB.Epoch(); got != 0 {
				t.Fatalf("model b epoch = %d, want 0 (A's swaps leaked into B)", got)
			}
			if got := md.Router.SwapsFor("a"); got != swaps {
				t.Fatalf("model a swap counter = %d, want %d", got, swaps)
			}
			if got := md.Router.SwapsFor("b"); got != 0 {
				t.Fatalf("model b swap counter = %d, want 0", got)
			}
			// Every one of B's dispatches landed in B's single epoch: none
			// were drained, dropped, or accounted into A's epochs.
			wantServed := served.Load()
			if tc.batching {
				wantServed = ldB.Batcher.Batches.Value()
			}
			if got := epochB.Served.Value(); got != wantServed {
				t.Fatalf("model b epoch-0 served = %d, want %d", got, wantServed)
			}
			if served.Load() == 0 {
				t.Fatal("model b served nothing; isolation untested")
			}
		})
	}
}

// TestRouterMultiModelPublish pins the router map semantics: per-model
// registration, independent publish/acquire, duplicate registration
// rejected, unknown models rejected.
func TestRouterMultiModelPublish(t *testing.T) {
	cfg := liveConfig()
	r := NewMultiRouter()
	rtA0, err := NewRoutingTable(0, cfg, nil, emptyPlan(cfg), emptyClients(cfg))
	if err != nil {
		t.Fatal(err)
	}
	rtB0, err := NewRoutingTable(0, cfg, nil, emptyPlan(cfg), emptyClients(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Register("a", rtA0); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("b", rtB0); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("a", rtA0); err == nil {
		t.Fatal("duplicate registration accepted")
	}
	if got := r.Models(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("models = %v", got)
	}
	if rtA0.Model != "a" || rtB0.Model != "b" {
		t.Fatalf("table models = %q/%q", rtA0.Model, rtB0.Model)
	}

	// Pin B, publish A: A's drain isn't blocked by B's in-flight request.
	pinnedB, err := r.AcquireModel("b")
	if err != nil {
		t.Fatal(err)
	}
	rtA1, err := NewRoutingTable(1, cfg, nil, emptyPlan(cfg), emptyClients(cfg))
	if err != nil {
		t.Fatal(err)
	}
	prev, err := r.PublishModel("a", rtA1)
	if err != nil {
		t.Fatal(err)
	}
	if prev != rtA0 {
		t.Fatal("publish returned wrong predecessor")
	}
	if err := rtA0.Drain(context.Background()); err != nil {
		t.Fatalf("draining a's retired epoch while b is pinned: %v", err)
	}
	if r.LoadModel("a") != rtA1 || r.LoadModel("b") != rtB0 {
		t.Fatal("publish of a disturbed the model map")
	}
	if r.SwapsFor("a") != 1 || r.SwapsFor("b") != 0 || r.Swaps.Value() != 1 {
		t.Fatalf("swap counters = a:%d b:%d total:%d", r.SwapsFor("a"), r.SwapsFor("b"), r.Swaps.Value())
	}
	pinnedB.release()

	if _, err := r.AcquireModel("ghost"); err == nil {
		t.Fatal("acquire of unregistered model succeeded")
	}
	if _, err := r.PublishModel("ghost", rtA1); err == nil {
		t.Fatal("publish to unregistered model succeeded")
	}
	if r.LoadModel("ghost") != nil {
		t.Fatal("load of unregistered model returned a table")
	}
}

// TestModelMismatchRejectedEverywhere drives a wrong-model request into
// each model-aware layer directly (deployment, batcher, dense shard) and
// checks every one refuses rather than serving it with the wrong
// variant's parameters.
func TestModelMismatchRejectedEverywhere(t *testing.T) {
	cfg := liveConfig()
	m, stats, gen := buildFixture(t, cfg)
	ld, err := BuildElastic(m, stats, []int64{50, 200, cfg.RowsPerTable},
		BuildOptions{Batching: &BatcherOptions{MaxBatch: 8}})
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()

	req := makeRequest(cfg, gen, 1)
	req.Model = "other"
	var reply PredictReply
	for layer, client := range map[string]PredictClient{
		"deployment": ld,
		"batcher":    ld.Batcher,
		"dense":      ld.Dense,
	} {
		if err := client.Predict(bg, req, &reply); err == nil || !strings.Contains(err.Error(), `"other"`) {
			t.Fatalf("%s accepted a wrong-model request (err = %v)", layer, err)
		}
	}
	// The same request addressed correctly (empty = default) still works.
	req.Model = ""
	if err := ld.Predict(bg, req, &reply); err != nil {
		t.Fatal(err)
	}
}

// TestMultiModelOverTCPFrontend exports the dispatching frontend over
// TCP and checks the Model field survives the wire: both variants are
// served through one TCP endpoint.
func TestMultiModelOverTCPFrontend(t *testing.T) {
	md, monos, reqs := multiFixture(t, BuildOptions{}, BuildOptions{})
	addr, err := md.ExportPredict("Frontend")
	if err != nil {
		t.Fatal(err)
	}
	client, err := DialPredict(addr, "Frontend")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	for _, name := range []string{"a", "b"} {
		req := reqs[name][0]
		var got, want PredictReply
		if err := client.Predict(bg, req, &got); err != nil {
			t.Fatalf("model %s over TCP: %v", name, err)
		}
		if err := monos[name].Predict(bg, req, &want); err != nil {
			t.Fatal(err)
		}
		for j := range want.Probs {
			if math.Abs(float64(got.Probs[j]-want.Probs[j])) > 1e-4 {
				t.Fatalf("model %s over TCP input %d: %v != %v", name, j, got.Probs[j], want.Probs[j])
			}
		}
	}
}
