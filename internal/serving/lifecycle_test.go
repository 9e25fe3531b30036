package serving

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/serving/wire"
)

// This file is the model-lifecycle acceptance suite (run under -race via
// make race-repartition): variants are deployed into and drained out of a
// live multi-model frontend while other variants serve under fire, and
// the control plane must never disturb them — epochs, accounting and
// monolith equivalence stay intact, an undeployed variant's shard units
// are fully released (refcounts drained, plan cache cleared), and its
// name is immediately reusable with fresh state.

// lifecycleCfgC is model C's geometry (distinct from the multiFixture
// variants so cross-model mixing would be loud).
func lifecycleCfgC() model.Config {
	cfg := liveConfig()
	cfg.NumTables = 3
	cfg.RowsPerTable = 600
	cfg.BatchSize = 2
	return cfg
}

// TestLifecycleDeployUndeployUnderFire is the ISSUE acceptance test:
// model C is repeatedly deployed, served, and undeployed while 8
// concurrent clients hammer models A and B. A and B must stay untouched
// (epoch pointers identical, replies monolith-equivalent, per-epoch served
// accounting exact), every undeploy must fully release C's shard units
// (epoch AND plan-cache references drained to zero), and C's name must be
// reusable by the next cycle's deploy.
func TestLifecycleDeployUndeployUnderFire(t *testing.T) {
	for _, tc := range []struct {
		name     string
		optsA    BuildOptions
		optsB    BuildOptions
		optsC    BuildOptions
		batching bool
	}{
		{name: "local"},
		{name: "local-batched",
			optsB:    BuildOptions{Batching: &BatcherOptions{MaxBatch: 8, MaxDelay: 200 * time.Microsecond}},
			optsC:    BuildOptions{Batching: &BatcherOptions{MaxBatch: 8, MaxDelay: 200 * time.Microsecond}},
			batching: true},
		{name: "tcp",
			optsA: BuildOptions{Transport: TransportTCP},
			optsB: BuildOptions{Transport: TransportTCP},
			optsC: BuildOptions{Transport: TransportTCP}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			md, monos, reqs := multiFixture(t, tc.optsA, tc.optsB)
			ctrl := md.Controller()
			ldA, _ := md.Deployment("a")
			ldB, _ := md.Deployment("b")
			epochA, epochB := ldA.Table(), ldB.Table()

			cfgC := lifecycleCfgC()
			mC, statsC, genC := buildFixture(t, cfgC)
			monoC := NewMonolith(mC.Clone())
			var reqsC []*PredictRequest
			for i := 0; i < 16; i++ {
				req := makeRequest(cfgC, genC, uint64(i))
				req.Model = "c"
				reqsC = append(reqsC, req)
			}
			wantC := make([][]float32, len(reqsC))
			for i, req := range reqsC {
				var mr PredictReply
				if err := monoC.Predict(bg, req, &mr); err != nil {
					t.Fatal(err)
				}
				wantC[i] = mr.Probs
			}

			want := make([][]float32, len(reqs["b"]))
			for i, req := range reqs["b"] {
				var mr PredictReply
				if err := monos["b"].Predict(bg, req, &mr); err != nil {
					t.Fatal(err)
				}
				want[i] = mr.Probs
			}
			wantA := make([][]float32, len(reqs["a"]))
			for i, req := range reqs["a"] {
				var mr PredictReply
				if err := monos["a"].Predict(bg, req, &mr); err != nil {
					t.Fatal(err)
				}
				wantA[i] = mr.Probs
			}

			// 8 clients hammer A and B (4 each) for the whole lifecycle
			// storm.
			const clients = 8
			var stop atomic.Bool
			var wg sync.WaitGroup
			errc := make(chan error, clients)
			var servedA, servedB atomic.Int64
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					name, expect, served := "a", wantA, &servedA
					if c%2 == 1 {
						name, expect, served = "b", want, &servedB
					}
					for q := c; !stop.Load(); q = (q + 1) % len(expect) {
						var reply PredictReply
						if err := md.Predict(bg, reqs[name][q], &reply); err != nil {
							errc <- fmt.Errorf("client %d model %s query %d: %w", c, name, q, err)
							return
						}
						for j := range expect[q] {
							if math.Abs(float64(reply.Probs[j]-expect[q][j])) > 1e-4 {
								errc <- fmt.Errorf("client %d model %s query %d input %d: %v != monolith %v (cross-model mix?)",
									c, name, q, j, reply.Probs[j], expect[q][j])
								return
							}
						}
						served.Add(1)
					}
				}(c)
			}

			fail := func(format string, args ...any) {
				stop.Store(true)
				wg.Wait()
				t.Fatalf(format, args...)
			}

			// Deploy/undeploy C under fire, several full cycles: the name
			// must be reusable every time.
			const cycles = 3
			for cycle := 0; cycle < cycles; cycle++ {
				err := ctrl.Deploy(bg, ModelSpec{
					Name: "c", Model: mC, Stats: statsC,
					Boundaries: []int64{100, 400, cfgC.RowsPerTable},
					Options:    tc.optsC,
				})
				if err != nil {
					fail("cycle %d: deploy c: %v", cycle, err)
				}
				ldC, ok := md.Deployment("c")
				if !ok {
					fail("cycle %d: c missing after deploy", cycle)
				}
				if got := md.Epoch("c"); got != 0 {
					fail("cycle %d: redeployed c starts at epoch %d, want 0 (stale router slot?)", cycle, got)
				}
				if got := md.Router.SwapsFor("c"); got != 0 {
					fail("cycle %d: redeployed c has %d swaps, want 0", cycle, got)
				}
				rtC := ldC.Table()
				for i, req := range reqsC {
					var reply PredictReply
					if err := md.Predict(bg, req, &reply); err != nil {
						fail("cycle %d: c query %d: %v", cycle, i, err)
					}
					for j := range wantC[i] {
						if math.Abs(float64(reply.Probs[j]-wantC[i][j])) > 1e-4 {
							fail("cycle %d: c query %d input %d: %v != monolith %v", cycle, i, j, reply.Probs[j], wantC[i][j])
						}
					}
				}
				ctxUndeploy, cancel := context.WithTimeout(context.Background(), 20*time.Second)
				err = ctrl.Undeploy(ctxUndeploy, "c")
				cancel()
				if err != nil {
					fail("cycle %d: undeploy c: %v", cycle, err)
				}
				// Fully released: no epoch reference, no plan-cache
				// reference — every shard unit of the retired variant is
				// torn down.
				for tb := 0; tb < cfgC.NumTables; tb++ {
					for s := 0; s < rtC.NumShards(tb); s++ {
						if refs := rtC.ShardRefs(tb, s); refs != 0 {
							fail("cycle %d: t%d s%d still holds %d refs after undeploy (plan cache not cleared?)", cycle, tb, s, refs)
						}
					}
				}
				if rt := md.Router.LoadModel("c"); rt != nil {
					fail("cycle %d: router still serves c after undeploy", cycle)
				}
				if got := md.Epoch("c"); got != -1 {
					fail("cycle %d: undeployed c reports epoch %d", cycle, got)
				}
				var reply PredictReply
				if err := md.Predict(bg, reqsC[0], &reply); err == nil || !strings.Contains(err.Error(), `no model "c"`) {
					fail("cycle %d: undeployed c request error = %v", cycle, err)
				}
			}

			// Keep A and B under fire until both demonstrably served
			// through the storm.
			waitUntil := time.Now().Add(10 * time.Second)
			for (servedA.Load() < 32 || servedB.Load() < 32) && time.Now().Before(waitUntil) && len(errc) == 0 {
				time.Sleep(time.Millisecond)
			}
			stop.Store(true)
			wg.Wait()
			close(errc)
			for err := range errc {
				t.Fatal(err)
			}

			// A and B never moved: same epoch tables, zero swaps, and
			// every dispatch landed in their single epoch.
			if ldA.Table() != epochA || ldB.Table() != epochB {
				t.Fatal("lifecycle of model c moved a surviving model's epoch table")
			}
			if md.Router.SwapsFor("a") != 0 || md.Router.SwapsFor("b") != 0 {
				t.Fatalf("surviving models swapped: a=%d b=%d", md.Router.SwapsFor("a"), md.Router.SwapsFor("b"))
			}
			wantServedB := servedB.Load()
			if tc.batching {
				wantServedB = ldB.Batcher.Batches.Value()
			}
			if got := epochB.Served.Value(); got != wantServedB {
				t.Fatalf("model b epoch-0 served = %d, want %d", got, wantServedB)
			}
			if got := epochA.Served.Value(); got != servedA.Load() {
				t.Fatalf("model a epoch-0 served = %d, want %d", got, servedA.Load())
			}
			if servedA.Load() == 0 || servedB.Load() == 0 {
				t.Fatal("a or b served nothing; isolation untested")
			}
		})
	}
}

// TestLifecycleRouterUnregister pins the router's runtime-unregistration
// semantics: tombstone-free removal, drain of the final epoch, immediate
// name reuse with a fresh slot, and errors on unknown names.
func TestLifecycleRouterUnregister(t *testing.T) {
	cfg := liveConfig()
	r := NewMultiRouter()
	rtA, err := NewRoutingTable(0, cfg, nil, emptyPlan(cfg), emptyClients(cfg))
	if err != nil {
		t.Fatal(err)
	}
	rtB, err := NewRoutingTable(0, cfg, nil, emptyPlan(cfg), emptyClients(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Register("a", rtA); err != nil {
		t.Fatal(err)
	}
	if err := r.Register("b", rtB); err != nil {
		t.Fatal(err)
	}

	// Pin A, unregister it: the final table must still drain the pinned
	// request out before teardown.
	pinned, err := r.AcquireModel("a")
	if err != nil {
		t.Fatal(err)
	}
	final, err := r.Unregister("a")
	if err != nil {
		t.Fatal(err)
	}
	if final != rtA {
		t.Fatal("unregister returned wrong final table")
	}
	if _, err := r.AcquireModel("a"); err == nil {
		t.Fatal("acquire of unregistered model succeeded")
	}
	if r.LoadModel("a") != nil {
		t.Fatal("unregistered model still loadable")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	if err := final.Drain(ctx); err == nil {
		t.Fatal("drain finished with a request still pinned")
	}
	cancel()
	pinned.release()
	if err := final.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// B was never disturbed; A's name is immediately reusable and its
	// slot state is fresh.
	if r.LoadModel("b") != rtB {
		t.Fatal("unregister of a disturbed b")
	}
	rtA2, err := NewRoutingTable(0, cfg, nil, emptyPlan(cfg), emptyClients(cfg))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Register("a", rtA2); err != nil {
		t.Fatalf("name reuse after unregister: %v", err)
	}
	if r.SwapsFor("a") != 0 {
		t.Fatalf("reused name inherited %d swaps", r.SwapsFor("a"))
	}
	if _, err := r.Unregister("ghost"); err == nil {
		t.Fatal("unregister of unknown model succeeded")
	}
}

// TestLifecycleAdminRPC drives the whole lifecycle over the wire: the
// versioned admin service rides the predict frontend's listener, rejects
// foreign API versions, deploys a spec-shipped variant, snapshots status,
// drains the variant back out, and allows immediate name reuse.
func TestLifecycleAdminRPC(t *testing.T) {
	md, monos, reqs := multiFixture(t, BuildOptions{}, BuildOptions{})
	addr, err := md.ExportPredict("Frontend")
	if err != nil {
		t.Fatal(err)
	}
	admin, err := DialAdmin(addr, "Frontend")
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	predict, err := DialPredict(addr, "Frontend")
	if err != nil {
		t.Fatal(err)
	}
	defer predict.Close()

	// A request from a different control-plane generation is refused —
	// AdminClient always stamps its own version, so the probe is a
	// hand-built frame.
	body, err := json.Marshal(&AdminStatusRequest{APIVersion: 99})
	if err != nil {
		t.Fatal(err)
	}
	raw := dialRawWire(t, addr, "Frontend", wire.KindAdmin)
	raw.send(1, wire.AppendAdminRequest(nil, adminOpStatus, 0, body))
	if _, st, msg := raw.recv(); st != 1 || !strings.Contains(string(msg), "version 99 not supported") {
		t.Fatalf("foreign API version reply: status %d %q", st, msg)
	}

	// No request has been served yet: every meter and EWMA in the snapshot
	// is at its zero-traffic value, and the JSON body must carry them all
	// (it refuses non-finite floats) without losing a field.
	sts, err := admin.Status(bg, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 2 || sts[0].Model != "a" || sts[1].Model != "b" {
		t.Fatalf("initial status = %+v", sts)
	}
	if local := md.Controller().Status(); !reflect.DeepEqual(sts, local) {
		t.Fatalf("status over the wire = %+v\nlocal snapshot = %+v", sts, local)
	}
	if sts[0].Counters.CachedSortedBytes <= 0 {
		t.Fatalf("status reports %d cached sorted-table bytes, want > 0", sts[0].Counters.CachedSortedBytes)
	}

	// Deploy model C from its wire spec (config + seed + window counts)
	// and check it serves exactly as a locally built equivalent.
	cfgC := lifecycleCfgC()
	const seedC = 123 // buildFixture's model seed
	mC, statsC, genC := buildFixture(t, cfgC)
	monoC := NewMonolith(mC.Clone())
	counts := make([][]int64, len(statsC))
	for tb, st := range statsC {
		counts[tb] = st.Counts
	}
	var depReply AdminDeployReply
	err = admin.Deploy(bg, &AdminDeployRequest{
		Name: "c", Config: cfgC, Seed: seedC,
		Counts: counts, Boundaries: []int64{100, 400, cfgC.RowsPerTable},
	}, &depReply)
	if err != nil {
		t.Fatal(err)
	}
	if depReply.Model != "c" || depReply.Epoch != 0 || depReply.Shards != 3 {
		t.Fatalf("deploy reply = %+v", depReply)
	}
	// Duplicate deploys are refused.
	if err := admin.Deploy(bg, &AdminDeployRequest{
		Name: "c", Config: cfgC, Seed: seedC,
		Counts: counts, Boundaries: []int64{100, 400, cfgC.RowsPerTable},
	}, &depReply); err == nil || !strings.Contains(err.Error(), "already deployed") {
		t.Fatalf("duplicate deploy error = %v", err)
	}

	req := makeRequest(cfgC, genC, 7)
	req.Model = "c"
	var got, want PredictReply
	if err := predict.Predict(bg, req, &got); err != nil {
		t.Fatalf("predict on wire-deployed model: %v", err)
	}
	if err := monoC.Predict(bg, req, &want); err != nil {
		t.Fatal(err)
	}
	for j := range want.Probs {
		if math.Abs(float64(got.Probs[j]-want.Probs[j])) > 1e-4 {
			t.Fatalf("wire-deployed model input %d: %v != monolith %v", j, got.Probs[j], want.Probs[j])
		}
	}
	// The existing variants still serve, monolith-equivalent.
	for _, name := range []string{"a", "b"} {
		var gotN, wantN PredictReply
		if err := predict.Predict(bg, reqs[name][0], &gotN); err != nil {
			t.Fatalf("model %s after deploy of c: %v", name, err)
		}
		if err := monos[name].Predict(bg, reqs[name][0], &wantN); err != nil {
			t.Fatal(err)
		}
		for j := range wantN.Probs {
			if math.Abs(float64(gotN.Probs[j]-wantN.Probs[j])) > 1e-4 {
				t.Fatalf("model %s disturbed by deploy of c", name)
			}
		}
	}

	// Undeploy over the wire; the name disappears from status and the
	// frontend, and is immediately reusable.
	undep, err := admin.Undeploy(bg, "c")
	if err != nil {
		t.Fatal(err)
	}
	if undep.Model != "c" {
		t.Fatalf("undeploy reply = %+v", undep)
	}
	if _, err := admin.Status(bg, "c"); err == nil || !strings.Contains(err.Error(), `no model "c"`) {
		t.Fatalf("status of undeployed model = %v", err)
	}
	if err := predict.Predict(bg, req, &got); err == nil || !strings.Contains(err.Error(), `no model "c"`) {
		t.Fatalf("predict on undeployed model = %v", err)
	}
	if err := admin.Deploy(bg, &AdminDeployRequest{
		Name: "c", Config: cfgC, Seed: seedC,
		Counts: counts, Boundaries: []int64{100, 400, cfgC.RowsPerTable},
	}, &depReply); err != nil {
		t.Fatalf("name reuse over the wire: %v", err)
	}
	sts, err = admin.Status(bg, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) != 3 || sts[2].Model != "c" || sts[2].Swaps != 0 {
		t.Fatalf("final status = %+v", sts)
	}
}

// TestLifecycleUndeployDrainTimeout pins the drain-bound contract: an
// undeploy whose final epoch cannot drain within ctx returns the drain
// error, the model is still unpublished and unregistered (requests fail,
// the name is reusable), and the pinned epoch is leaked rather than closed
// under the in-flight request.
func TestLifecycleUndeployDrainTimeout(t *testing.T) {
	md, _, reqs := multiFixture(t, BuildOptions{}, BuildOptions{})
	ctrl := md.Controller()
	pinned, err := md.Router.AcquireModel("b")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := ctrl.Undeploy(ctx, "b"); err == nil || !strings.Contains(err.Error(), "draining epoch") {
		pinned.release()
		t.Fatalf("undeploy with pinned epoch = %v, want drain error", err)
	}
	var reply PredictReply
	if err := md.Predict(bg, reqs["b"][0], &reply); err == nil || !strings.Contains(err.Error(), `no model "b"`) {
		t.Fatalf("request after failed-drain undeploy = %v", err)
	}
	// The in-flight request still completes against its pinned epoch
	// (the table was leaked, not closed under it).
	if pinned.Served == nil {
		t.Fatal("pinned table lost state")
	}
	pinned.release()
	if rt := md.Router.LoadModel("b"); rt != nil {
		t.Fatal("model b still registered after undeploy")
	}
	// Undeploy deliberately leaked the undrainable epoch; now that the
	// pin is gone it drains instantly, so reclaim its shard workers.
	if err := pinned.Drain(bg); err != nil {
		t.Fatal(err)
	}
	pinned.Close()
}

// TestLifecycleAutoscalerBinding checks the controller keeps the
// autoscaler's per-variant loops in step with the served set: Deploy
// starts a repartition loop (and opens the profiling window), Undeploy
// stops it and forgets the variant's policy state so a reused name starts
// clean.
func TestLifecycleAutoscalerBinding(t *testing.T) {
	md, _, _ := multiFixture(t, BuildOptions{}, BuildOptions{})
	ctrl := md.Controller()
	policy := &cluster.RepartitionPolicy{MinSkew: 0.5, MinRequests: 0, MinInterval: time.Hour}
	as := &LiveAutoscaler{}
	ctrl.Bind(&AutoscalerBinding{
		Autoscaler: as,
		Policy:     policy,
		Replan: func(model string, stats []*embedding.AccessStats) ([]int64, error) {
			return nil, fmt.Errorf("not triggered in this test")
		},
	})
	if got := len(as.Repartitions); got != 2 {
		t.Fatalf("binding wired %d loops, want 2 (a, b)", got)
	}

	cfgC := lifecycleCfgC()
	mC, statsC, _ := buildFixture(t, cfgC)
	if err := ctrl.Deploy(bg, ModelSpec{
		Name: "c", Model: mC, Stats: statsC,
		Boundaries: []int64{100, 400, cfgC.RowsPerTable},
	}); err != nil {
		t.Fatal(err)
	}
	if got := len(as.Repartitions); got != 3 {
		t.Fatalf("deploy wired %d loops, want 3", got)
	}
	ldC, _ := md.Deployment("c")
	if ldC.SnapshotProfile() == nil {
		t.Fatal("deploy did not open the variant's profiling window")
	}

	// Consume C's policy interval, then undeploy: the loop stops and the
	// policy state is forgotten, so a redeployed "c" can fire immediately.
	now := time.Now()
	if !policy.ShouldRepartitionModel("c", 0.1, 10, now) {
		t.Fatal("policy should fire for c")
	}
	if policy.ShouldRepartitionModel("c", 0.1, 10, now.Add(time.Minute)) {
		t.Fatal("policy re-fired inside c's interval")
	}
	if err := ctrl.Undeploy(bg, "c"); err != nil {
		t.Fatal(err)
	}
	if got := len(as.Repartitions); got != 2 {
		t.Fatalf("undeploy left %d loops, want 2", got)
	}
	if !policy.ShouldRepartitionModel("c", 0.1, 10, now.Add(2*time.Minute)) {
		t.Fatal("undeploy did not forget c's policy state; a reused name inherits the retired model's throttle")
	}
}

// TestLifecycleDeployDeadlineNotPublished pins the deploy-deadline
// contract: a deploy whose ctx expired during the build is torn down
// rather than published — the name stays free, so the timed-out client's
// retry succeeds instead of hitting "already deployed".
func TestLifecycleDeployDeadlineNotPublished(t *testing.T) {
	md, _, _ := multiFixture(t, BuildOptions{}, BuildOptions{})
	ctrl := md.Controller()
	cfgC := lifecycleCfgC()
	mC, statsC, _ := buildFixture(t, cfgC)
	spec := ModelSpec{Name: "c", Model: mC, Stats: statsC,
		Boundaries: []int64{100, 400, cfgC.RowsPerTable}}

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expires "mid-build" from the controller's point of view
	if err := ctrl.Deploy(ctx, spec); err == nil || !strings.Contains(err.Error(), "context canceled") {
		t.Fatalf("expired deploy = %v, want context error", err)
	}
	if _, ok := md.Deployment("c"); ok {
		t.Fatal("expired deploy was published")
	}
	if md.Router.LoadModel("c") != nil {
		t.Fatal("expired deploy left a router slot behind")
	}
	// The retry succeeds: the failed deploy freed everything.
	if err := ctrl.Deploy(bg, spec); err != nil {
		t.Fatalf("retry after expired deploy: %v", err)
	}
	if err := ctrl.Undeploy(bg, "c"); err != nil {
		t.Fatal(err)
	}
}

// clockExpiredCtx freezes open the timer hop between a deadline passing and
// its context noticing: Err() stays nil and Done() never fires, while
// Deadline() reports a time in the past — from the start, or only after
// liveCalls calls (the deadline passes during the build).
type clockExpiredCtx struct {
	context.Context
	liveCalls int32
	calls     atomic.Int32
}

func (c *clockExpiredCtx) Deadline() (time.Time, bool) {
	if c.calls.Add(1) <= c.liveCalls {
		return time.Now().Add(time.Hour), true
	}
	return time.Now().Add(-time.Millisecond), true
}

// TestLifecycleDeployDeadlineByClock pins that Deploy judges its deadline
// by the clock, not only by ctx.Err(): a deploy whose deadline has passed —
// at entry, or during the build — fails with DeadlineExceeded, publishes
// nothing, leaves no router slot, and the retry with a live ctx succeeds.
func TestLifecycleDeployDeadlineByClock(t *testing.T) {
	md, _, _ := multiFixture(t, BuildOptions{}, BuildOptions{})
	ctrl := md.Controller()
	cfgC := lifecycleCfgC()
	mC, statsC, _ := buildFixture(t, cfgC)
	spec := ModelSpec{Name: "c", Model: mC, Stats: statsC,
		Boundaries: []int64{100, 400, cfgC.RowsPerTable}}

	for _, tc := range []struct {
		name      string
		liveCalls int32
	}{{"at entry", 0}, {"during build", 1}} {
		err := ctrl.Deploy(&clockExpiredCtx{Context: bg, liveCalls: tc.liveCalls}, spec)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: deploy past its deadline = %v, want deadline exceeded", tc.name, err)
		}
		if _, ok := md.Deployment("c"); ok {
			t.Fatalf("%s: deploy past its deadline was published", tc.name)
		}
		if md.Router.LoadModel("c") != nil {
			t.Fatalf("%s: deploy past its deadline left a router slot behind", tc.name)
		}
		if err := ctrl.Deploy(bg, spec); err != nil {
			t.Fatalf("%s: retry with a live ctx: %v", tc.name, err)
		}
		if err := ctrl.Undeploy(bg, "c"); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLifecycleAdminDeployAbandoned is the same contract over the wire: a
// client whose ctx ends while the frontend is still deploying gets its
// error promptly (the call is abandoned, not waited out), the deadline
// that rode the admin frame keeps the late build from being published,
// and the connection and the name both stay usable for the retry.
func TestLifecycleAdminDeployAbandoned(t *testing.T) {
	md, _, _ := multiFixture(t, BuildOptions{}, BuildOptions{})
	addr, err := md.ExportPredict("Frontend")
	if err != nil {
		t.Fatal(err)
	}
	admin, err := DialAdmin(addr, "Frontend")
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	cfgC := lifecycleCfgC()
	_, statsC, _ := buildFixture(t, cfgC)
	req := &AdminDeployRequest{Name: "c", Config: cfgC, Seed: 123,
		Boundaries: []int64{100, 400, cfgC.RowsPerTable}}
	for _, st := range statsC {
		req.Counts = append(req.Counts, st.Counts)
	}

	// Holding the control-plane lock parks the server-side deploy until
	// the client's deadline has passed.
	md.mutateMu.Lock()
	ctx, cancel := context.WithTimeout(bg, 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	var reply AdminDeployReply
	err = admin.Deploy(ctx, req, &reply)
	took := time.Since(start)
	md.mutateMu.Unlock()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("abandoned deploy = %v, want deadline exceeded", err)
	}
	if took > 5*time.Second {
		t.Fatalf("abandoned deploy returned after %v", took)
	}

	// The retry queues behind the parked deploy on the same lock; had that
	// one been published, this would be "already deployed".
	if err := admin.Deploy(bg, req, &reply); err != nil {
		t.Fatalf("retry after abandoned deploy: %v", err)
	}
	sts, err := admin.Status(bg, "c")
	if err != nil || len(sts) != 1 || sts[0].Epoch != 0 {
		t.Fatalf("status after retry = %+v, %v", sts, err)
	}
}

// TestLifecycleRebindPreservesLiveState pins the rebind contract: swapping
// a controller binding over live models must not discard their
// accumulated profiling windows and must not forget their policy throttle
// state (only Undeploy retires state).
func TestLifecycleRebindPreservesLiveState(t *testing.T) {
	md, _, reqs := multiFixture(t, BuildOptions{}, BuildOptions{})
	ctrl := md.Controller()
	policy := &cluster.RepartitionPolicy{MinSkew: 0.5, MinRequests: 0, MinInterval: time.Hour}
	replan := func(string, []*embedding.AccessStats) ([]int64, error) {
		return nil, fmt.Errorf("not triggered in this test")
	}
	ctrl.Bind(&AutoscalerBinding{Autoscaler: &LiveAutoscaler{}, Policy: policy, Replan: replan})

	// Accumulate profile into a's window and consume a's policy interval.
	ldA, _ := md.Deployment("a")
	for i := 0; i < 4; i++ {
		var reply PredictReply
		if err := md.Predict(bg, reqs["a"][i], &reply); err != nil {
			t.Fatal(err)
		}
	}
	now := time.Now()
	if !policy.ShouldRepartitionModel("a", 0.1, 10, now) {
		t.Fatal("policy should fire for a")
	}

	// Rebind (same policy, fresh autoscaler): the window keeps its
	// accumulated counts and the throttle survives.
	ctrl.Bind(&AutoscalerBinding{Autoscaler: &LiveAutoscaler{}, Policy: policy, Replan: replan})
	if policy.ShouldRepartitionModel("a", 0.1, 10, now.Add(time.Minute)) {
		t.Fatal("rebind forgot a live model's firing time; it re-fired inside MinInterval")
	}
	stats := ldA.SnapshotProfile()
	if stats == nil {
		t.Fatal("rebind closed the profiling window")
	}
	var total int64
	for _, st := range stats {
		total += st.Total
	}
	if total == 0 {
		t.Fatal("rebind discarded the accumulated profile")
	}
	// Undeploy DOES retire the state (the reused-name contract).
	if err := ctrl.Undeploy(bg, "a"); err != nil {
		t.Fatal(err)
	}
	if !policy.ShouldRepartitionModel("a", 0.1, 10, now.Add(2*time.Minute)) {
		t.Fatal("undeploy did not forget the retired model's policy state")
	}
}

// TestLifecycleOfferedQPSMeterRemoved checks the per-model frontend meter
// is created at deploy and dropped at undeploy — a retired model's metrics
// must not leak.
func TestLifecycleOfferedQPSMeterRemoved(t *testing.T) {
	md, _, reqs := multiFixture(t, BuildOptions{}, BuildOptions{})
	var reply PredictReply
	if err := md.Predict(bg, reqs["b"][0], &reply); err != nil {
		t.Fatal(err)
	}
	if md.OfferedQPS("b") <= 0 {
		t.Fatal("offered-QPS meter did not record the dispatch")
	}
	if err := md.Controller().Undeploy(bg, "b"); err != nil {
		t.Fatal(err)
	}
	if got := md.OfferedQPS("b"); got != 0 {
		t.Fatalf("retired model still meters %.1f qps", got)
	}
	if _, ok := md.snapshot().meters["b"]; ok {
		t.Fatal("retired model's meter still registered")
	}
}

// TestReplanMemoSkipsRepartitionDP checks the fingerprint-keyed replan
// memo: a profiling window already replanned recently returns its DP
// boundaries without invoking the planner, a changed window replans, and
// the memo ages out with the plan cache's epoch eviction.
func TestReplanMemoSkipsRepartitionDP(t *testing.T) {
	cfg := liveConfig()
	m, stats, _ := buildFixture(t, cfg)
	ld, err := BuildElastic(m, stats, []int64{50, 200, cfg.RowsPerTable}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()

	var calls int
	replan := func([]*embedding.AccessStats) ([]int64, error) {
		calls++
		return []int64{80, 300, cfg.RowsPerTable}, nil
	}
	b1, err := ld.ReplanMemo(stats, replan)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := ld.ReplanMemo(stats, replan)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("replan ran %d times for one fingerprint, want 1", calls)
	}
	if len(b1) != 3 || len(b2) != 3 || b2[0] != 80 {
		t.Fatalf("memoized boundaries = %v / %v", b1, b2)
	}
	// The memo hands out copies: mutating a result must not poison it.
	b2[0] = 999
	b3, err := ld.ReplanMemo(stats, replan)
	if err != nil {
		t.Fatal(err)
	}
	if b3[0] != 80 {
		t.Fatalf("memo poisoned by caller mutation: %v", b3)
	}
	c := ld.BuildCounters()
	if c.Replans != 1 || c.ReplanMemoHits != 2 {
		t.Fatalf("counters = %d replans / %d hits, want 1 / 2", c.Replans, c.ReplanMemoHits)
	}
	if c.CachedPlans != 1 {
		t.Fatalf("cached plans = %d, want 1", c.CachedPlans)
	}

	// A different window replans.
	fresh := driftedStats(t, cfg, 111, 5)
	if _, err := ld.ReplanMemo(fresh, replan); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("replan ran %d times across two fingerprints, want 2", calls)
	}

	// The memo ages with the plan cache: after PlanCacheEpochs epochs of
	// swaps under other windows, the original fingerprint must re-replan.
	for i := 0; i < DefaultPlanCacheEpochs+1; i++ {
		drift := driftedStats(t, cfg, int64(200+i*37), uint64(10+i))
		if err := ld.Repartition(bg, drift, []int64{60, 250, cfg.RowsPerTable}); err != nil {
			t.Fatal(err)
		}
	}
	calls = 0
	if _, err := ld.ReplanMemo(stats, replan); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("evicted fingerprint did not replan (calls = %d)", calls)
	}
}

// TestLifecycleStatusSnapshot sanity-checks the control-plane snapshot
// fields against the live deployment.
func TestLifecycleStatusSnapshot(t *testing.T) {
	md, _, reqs := multiFixture(t, BuildOptions{}, BuildOptions{})
	for i := 0; i < 5; i++ {
		var reply PredictReply
		if err := md.Predict(bg, reqs["a"][i], &reply); err != nil {
			t.Fatal(err)
		}
	}
	st, ok := md.Controller().ModelStatus("a")
	if !ok {
		t.Fatal("status missing model a")
	}
	if st.Model != "a" || st.Epoch != 0 || st.Swaps != 0 {
		t.Fatalf("status = %+v", st)
	}
	if st.Served != 5 {
		t.Fatalf("status served = %d, want 5", st.Served)
	}
	if st.Shards != 3 {
		t.Fatalf("status shards = %d, want 3", st.Shards)
	}
	if st.OfferedQPS <= 0 {
		t.Fatal("status offered qps not attributed")
	}
	if st.Counters.CachedSortedBytes <= 0 {
		t.Fatal("status does not account cached sorted-table bytes")
	}
	if _, ok := md.Controller().ModelStatus("ghost"); ok {
		t.Fatal("status invented a model")
	}
}
