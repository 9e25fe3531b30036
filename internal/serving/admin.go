package serving

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/embedding"
	"repro/internal/model"
	"repro/internal/serving/wire"
)

// This file is the wire form of the control plane: the Controller's
// lifecycle API (Deploy / Undeploy / Status) exposed as a versioned admin
// service on the same listener, and under the same name, as the frontend
// that serves Predict traffic. It rides wire.KindAdmin frames: the header
// carries an op code and the caller's deadline, the body is the JSON of
// the structs below — three low-rate calls need no hand-written codec,
// and JSON skips unknown fields, so ModelStatus and BuildCounters can
// grow without a version bump. Every request carries AdminAPIVersion; a
// frontend refuses a request from a different control-plane generation
// instead of misinterpreting it, so admin tooling and servers can roll
// independently. A Deploy request does not ship model weights — it ships
// the variant's spec (architecture config + parameter seed +
// profiling-window counts), and the frontend instantiates the model
// locally, exactly how every other layer of this repository materializes
// variants.

// AdminAPIVersion is the control-plane wire version. Bump it when a
// request/reply shape changes incompatibly; servers reject mismatches.
const AdminAPIVersion = 1

// Admin frame op codes.
const (
	adminOpDeploy   byte = 1
	adminOpUndeploy byte = 2
	adminOpStatus   byte = 3
)

// AdminDeployRequest asks a frontend to build and publish a new variant.
type AdminDeployRequest struct {
	// APIVersion must equal AdminAPIVersion.
	APIVersion int
	// Name is the variant name the frontend will serve it under.
	Name string
	// Config is the variant's DLRM architecture and workload geometry.
	Config model.Config
	// Seed selects the variant's parameters (model.New(Config, Seed)).
	Seed uint64
	// Counts[t] is table t's profiling-window access counts in
	// original-ID space — the window the deploy preprocesses and
	// pre-warms from.
	Counts [][]int64
	// Boundaries is the initial shard plan.
	Boundaries []int64
	// Options configures transport/replicas/batching/plan-cache.
	Options BuildOptions
}

// AdminDeployReply reports the published variant.
type AdminDeployReply struct {
	Model  string
	Epoch  int64
	Shards int
}

// AdminUndeployRequest asks a frontend to drain a variant out.
type AdminUndeployRequest struct {
	APIVersion int
	Model      string
}

// AdminUndeployReply reports the retired variant.
type AdminUndeployReply struct {
	Model string
}

// AdminStatusRequest asks for per-model snapshots (Model empty = all).
type AdminStatusRequest struct {
	APIVersion int
	Model      string
}

// AdminStatusReply carries the snapshots in registration order.
type AdminStatusReply struct {
	Models []ModelStatus
}

// checkAdminVersion rejects requests from a different control-plane
// generation.
func checkAdminVersion(got int) error {
	if got != AdminAPIVersion {
		return fmt.Errorf("serving: admin API version %d not supported (server speaks v%d)", got, AdminAPIVersion)
	}
	return nil
}

// adminService serves a Controller's lifecycle API as a
// wire.AdminService. ctx carries the frame header's deadline: a Deploy
// that outlives it is torn down at the build boundary instead of
// published, so a timed-out client can safely retry; an Undeploy bounds
// its drain by it.
type adminService struct{ ctrl *Controller }

// Admin implements wire.AdminService.
func (a adminService) Admin(ctx context.Context, op byte, body []byte) ([]byte, error) {
	switch op {
	case adminOpDeploy:
		return serveAdmin(ctx, body, a.deploy)
	case adminOpUndeploy:
		return serveAdmin(ctx, body, a.undeploy)
	case adminOpStatus:
		return serveAdmin(ctx, body, a.status)
	default:
		return nil, fmt.Errorf("serving: unknown admin op %d", op)
	}
}

// serveAdmin decodes one request body, runs its handler and encodes the
// reply.
func serveAdmin[Req, Rep any](ctx context.Context, body []byte, handle func(context.Context, *Req, *Rep) error) ([]byte, error) {
	var req Req
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, fmt.Errorf("serving: admin request body: %w", err)
	}
	var reply Rep
	if err := handle(ctx, &req, &reply); err != nil {
		return nil, err
	}
	out, err := json.Marshal(&reply)
	if err != nil {
		return nil, fmt.Errorf("serving: admin reply body: %w", err)
	}
	return out, nil
}

// deploy reconstructs the variant from its spec (model weights from
// Config+Seed, profiling window from Counts) and publishes it into the
// running frontend.
func (a adminService) deploy(ctx context.Context, req *AdminDeployRequest, reply *AdminDeployReply) error {
	if err := checkAdminVersion(req.APIVersion); err != nil {
		return err
	}
	m, err := model.New(req.Config, req.Seed)
	if err != nil {
		return fmt.Errorf("serving: admin deploy %q: %w", req.Name, err)
	}
	if len(req.Counts) != req.Config.NumTables {
		return fmt.Errorf("serving: admin deploy %q: %d count tables, want %d",
			req.Name, len(req.Counts), req.Config.NumTables)
	}
	stats := make([]*embedding.AccessStats, len(req.Counts))
	for t, counts := range req.Counts {
		if int64(len(counts)) != req.Config.RowsPerTable {
			return fmt.Errorf("serving: admin deploy %q: table %d counts cover %d rows, want %d",
				req.Name, t, len(counts), req.Config.RowsPerTable)
		}
		st := &embedding.AccessStats{Counts: counts} // the decoded request owns them
		for _, c := range counts {
			st.Total += c
		}
		stats[t] = st
	}
	if err := a.ctrl.Deploy(ctx, ModelSpec{
		Name: req.Name, Model: m, Stats: stats,
		Boundaries: req.Boundaries, Options: req.Options,
	}); err != nil {
		return err
	}
	st, ok := a.ctrl.ModelStatus(req.Name)
	if !ok {
		return fmt.Errorf("serving: admin deploy %q: published model missing from status", req.Name)
	}
	reply.Model = st.Model
	reply.Epoch = st.Epoch
	reply.Shards = st.Shards
	return nil
}

// undeploy drains the variant out of the frontend within the deadline.
func (a adminService) undeploy(ctx context.Context, req *AdminUndeployRequest, reply *AdminUndeployReply) error {
	if err := checkAdminVersion(req.APIVersion); err != nil {
		return err
	}
	if err := a.ctrl.Undeploy(ctx, req.Model); err != nil {
		return err
	}
	reply.Model = canonicalModel(req.Model)
	return nil
}

// status snapshots one variant, or all of them.
func (a adminService) status(_ context.Context, req *AdminStatusRequest, reply *AdminStatusReply) error {
	if err := checkAdminVersion(req.APIVersion); err != nil {
		return err
	}
	if req.Model != "" {
		st, ok := a.ctrl.ModelStatus(req.Model)
		if !ok {
			return fmt.Errorf("serving: admin status: no model %q", canonicalModel(req.Model))
		}
		reply.Models = []ModelStatus{st}
		return nil
	}
	reply.Models = a.ctrl.Status()
	return nil
}

// AdminClient drives a remote frontend's control plane. Every call stamps
// AdminAPIVersion into the request and the context deadline into the frame
// header, and is abandoned on cancel (see call).
type AdminClient struct {
	conn *wire.Conn
}

// DialAdmin connects to the admin endpoint registered beside the predict
// frontend named frontend at addr; the dial is bounded by DialTimeout
// like every other transport dial.
func DialAdmin(addr, frontend string) (*AdminClient, error) {
	c, err := wire.Dial(addr, frontend, wire.KindAdmin, DialTimeout)
	if err != nil {
		return nil, err
	}
	return &AdminClient{conn: c}, nil
}

// callAdmin issues one admin op.
func callAdmin[Rep any](ctx context.Context, c *AdminClient, op byte, req any, reply *Rep) error {
	body, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("serving: admin request body: %w", err)
	}
	return call(ctx, c.conn,
		func(b []byte) []byte { return wire.AppendAdminRequest(b, op, wire.CtxDeadlineNanos(ctx), body) },
		func(p []byte, r *Rep) error { return json.Unmarshal(p, r) }, reply)
}

// Deploy builds and publishes a variant on the remote frontend.
func (c *AdminClient) Deploy(ctx context.Context, req *AdminDeployRequest, reply *AdminDeployReply) error {
	stamped := *req
	stamped.APIVersion = AdminAPIVersion
	return callAdmin(ctx, c, adminOpDeploy, &stamped, reply)
}

// Undeploy drains a variant out of the remote frontend.
func (c *AdminClient) Undeploy(ctx context.Context, mdl string) (AdminUndeployReply, error) {
	var reply AdminUndeployReply
	err := callAdmin(ctx, c, adminOpUndeploy, &AdminUndeployRequest{APIVersion: AdminAPIVersion, Model: mdl}, &reply)
	return reply, err
}

// Status snapshots the remote frontend's variants (mdl empty = all).
func (c *AdminClient) Status(ctx context.Context, mdl string) ([]ModelStatus, error) {
	var reply AdminStatusReply
	if err := callAdmin(ctx, c, adminOpStatus, &AdminStatusRequest{APIVersion: AdminAPIVersion, Model: mdl}, &reply); err != nil {
		return nil, err
	}
	return reply.Models, nil
}

// Close tears down the connection.
func (c *AdminClient) Close() error { return c.conn.Close() }
