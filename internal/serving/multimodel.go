package serving

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/embedding"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/serving/wire"
)

// This file implements the multi-model data plane: one frontend, one
// Router, N independently-repartitionable DLRM variants. Each variant
// keeps its own dense shard (its own MLP parameters), its own dynamic
// batcher (fused batches never mix variants), its own live profiling
// window and its own epoch sequence inside the shared Router's
// (model -> plan) map. Repartitioning one variant drains only that
// variant's retired epoch; every other variant's in-flight requests are
// untouched.
//
// The set of served models is no longer frozen at build time: the model
// map is copy-on-write, and the deployment's Controller (controller.go)
// deploys new variants into — and drains retired variants out of — a
// running frontend. The data plane here stays strictly read-only on the
// request path: Predict is one atomic snapshot load plus the variant's own
// serving path.

// ModelSpec describes one DLRM variant of a multi-model deployment.
type ModelSpec struct {
	// Name identifies the variant; requests address it through
	// PredictRequest.Model. Must be unique within the deployment
	// (empty canonicalizes to DefaultModel).
	Name string
	// Model is the fully instantiated variant (tables included).
	Model *model.Model
	// Stats is the variant's pre-deployment profiling window.
	Stats []*embedding.AccessStats
	// Boundaries is the variant's initial shard plan.
	Boundaries []int64
	// Options configures the variant's transport/replicas/batching;
	// variants may differ (e.g. only the hot variant batched).
	Options BuildOptions
}

// modelSet is one immutable snapshot of the served variants: the
// deployments, their registration order, and the per-model offered-QPS
// meters. The MultiDeployment swaps whole snapshots (copy-on-write) so the
// request path reads a consistent set with one atomic load, and a variant
// being deployed or undeployed never blocks — or is partially visible to —
// a concurrent Predict.
type modelSet struct {
	deployments map[string]*LiveDeployment
	meters      map[string]*metrics.QPSMeter
	names       []string // registration order, canonical
}

// clone deep-copies the snapshot's maps (the values are shared).
func (s *modelSet) clone() *modelSet {
	next := &modelSet{
		deployments: make(map[string]*LiveDeployment, len(s.deployments)),
		meters:      make(map[string]*metrics.QPSMeter, len(s.meters)),
		names:       append([]string(nil), s.names...),
	}
	for k, v := range s.deployments {
		next.deployments[k] = v
	}
	for k, v := range s.meters {
		next.meters[k] = v
	}
	return next
}

// MultiDeployment serves several DLRM variants behind one frontend and one
// epoch-versioned Router — the multi-model *data plane*. Each variant is a
// full LiveDeployment (dense shard, batcher, profiling window) sharing the
// Router, and the MultiDeployment dispatches every request on its Model
// field. Lifecycle (deploying a new variant into the running frontend,
// draining one out) belongs to the Controller; the data plane only ever
// reads the current model snapshot.
type MultiDeployment struct {
	// Router is the shared (model -> plan) routing layer.
	Router *Router

	// models is the copy-on-write variant snapshot; mutateMu serializes
	// the writers (Controller lifecycle operations and Close), never the
	// request path.
	models   atomic.Pointer[modelSet]
	mutateMu sync.Mutex

	ctrl    *Controller
	servers []*RPCServer
}

// BuildMulti assembles a multi-model deployment: every spec is built as a
// LiveDeployment registered under its name in one shared Router. On error,
// everything already built is torn down. Further variants can be deployed
// into (and drained out of) the running deployment through Controller.
func BuildMulti(specs ...ModelSpec) (*MultiDeployment, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("serving: multi-model deployment needs at least one model spec")
	}
	md := &MultiDeployment{Router: NewMultiRouter()}
	md.models.Store(&modelSet{
		deployments: map[string]*LiveDeployment{},
		meters:      map[string]*metrics.QPSMeter{},
	})
	md.ctrl = &Controller{md: md}
	for _, spec := range specs {
		//lint:escape ctxflow constructor-time deploys have no caller context; NewMultiModel predates any request
		if err := md.ctrl.Deploy(context.Background(), spec); err != nil {
			md.Close()
			return nil, err
		}
	}
	return md, nil
}

// Controller returns the deployment's lifecycle control plane.
func (md *MultiDeployment) Controller() *Controller { return md.ctrl }

// snapshot returns the current immutable model set.
func (md *MultiDeployment) snapshot() *modelSet { return md.models.Load() }

// Models returns the served model names in registration order.
func (md *MultiDeployment) Models() []string {
	return append([]string(nil), md.snapshot().names...)
}

// Deployment returns the named variant's deployment (the per-model handle
// for profiling, repartitioning and metrics).
func (md *MultiDeployment) Deployment(mdl string) (*LiveDeployment, bool) {
	ld, ok := md.snapshot().deployments[canonicalModel(mdl)]
	return ld, ok
}

// OfferedQPS returns the named variant's offered load at the frontend
// (queries/sec over a sliding window; 0 for an unknown or retired model),
// as ModelStatus reports it. The meter is created at Deploy and removed at
// Undeploy, so a retired model's meter never lingers.
func (md *MultiDeployment) OfferedQPS(mdl string) float64 {
	m, ok := md.snapshot().meters[canonicalModel(mdl)]
	if !ok {
		return 0
	}
	return m.Rate()
}

// Predict dispatches the request to the variant named by its Model field
// (empty = DefaultModel) — the one multi-model frontend entry point. Each
// variant's own batcher/dense path takes over from there, so two variants'
// requests are never fused together and never score against each other's
// parameters. The dispatch reads one immutable model snapshot, so a
// concurrent deploy/undeploy can never expose a half-registered variant.
func (md *MultiDeployment) Predict(ctx context.Context, req *PredictRequest, reply *PredictReply) error {
	s := md.snapshot()
	name := canonicalModel(req.Model)
	ld, ok := s.deployments[name]
	if !ok {
		return fmt.Errorf("serving: frontend serves no model %q (have %v)", name, s.names)
	}
	if m := s.meters[name]; m != nil {
		m.Mark()
	}
	return ld.Predict(ctx, req, reply)
}

var _ PredictClient = (*MultiDeployment)(nil)

// publishModel installs a freshly built variant into the data plane: the
// instant the snapshot swaps, the frontend dispatches to it. Caller holds
// mutateMu.
func (md *MultiDeployment) publishModel(name string, ld *LiveDeployment) error {
	s := md.snapshot()
	if _, dup := s.deployments[name]; dup {
		return fmt.Errorf("serving: model %q already deployed", name)
	}
	next := s.clone()
	next.deployments[name] = ld
	next.meters[name] = metrics.NewQPSMeter(2 * time.Second)
	next.names = append(next.names, name)
	md.models.Store(next)
	return nil
}

// unpublishModel removes a variant from the data plane and returns its
// deployment: new requests for the name fail immediately with the usual
// "serves no model" error, and the variant's offered-QPS meter is dropped
// with it (metrics must not outlive a retired model). Caller holds
// mutateMu and still has to drain/tear down the returned deployment.
func (md *MultiDeployment) unpublishModel(name string) (*LiveDeployment, error) {
	s := md.snapshot()
	ld, ok := s.deployments[name]
	if !ok {
		return nil, fmt.Errorf("serving: frontend serves no model %q (have %v)", name, s.names)
	}
	next := s.clone()
	delete(next.deployments, name)
	delete(next.meters, name)
	next.names = next.names[:0]
	for _, n := range s.names {
		if n != name {
			next.names = append(next.names, n)
		}
	}
	md.models.Store(next)
	return ld, nil
}

// ExportPredict exposes the multi-model dispatching frontend as one
// network service under name on loopback TCP: a single wire endpoint
// serves every variant, routed by PredictRequest.Model (DialPredict).
// The same listener carries the versioned lifecycle control plane
// (Deploy / Undeploy / Status) under the same name as the admin
// connection kind (DialAdmin). The server is torn down by Close.
func (md *MultiDeployment) ExportPredict(name string) (string, error) {
	srv, err := NewRPCServer("127.0.0.1:0")
	if err != nil {
		return "", err
	}
	ep := wire.Endpoint{Predict: md, Admin: adminService{ctrl: md.ctrl}}
	if err := srv.register(name, ep); err != nil {
		srv.Close()
		return "", err
	}
	md.mutateMu.Lock()
	md.servers = append(md.servers, srv)
	md.mutateMu.Unlock()
	return srv.Addr(), nil
}

// Close tears down the frontend servers and every variant's deployment.
func (md *MultiDeployment) Close() {
	md.mutateMu.Lock()
	defer md.mutateMu.Unlock()
	for _, s := range md.servers {
		_ = s.Close()
	}
	md.servers = nil
	s := md.snapshot()
	md.models.Store(&modelSet{
		deployments: map[string]*LiveDeployment{},
		meters:      map[string]*metrics.QPSMeter{},
	})
	for _, name := range s.names {
		s.deployments[name].Close()
	}
}
