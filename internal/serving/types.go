// Package serving is the live microservice engine: real goroutine-backed
// model-shard services communicating over loopback TCP (one
// length-prefixed binary protocol for data and control plane alike — see
// internal/serving/wire) or a zero-copy in-process transport. It
// implements the paper's life-of-a-query path (Sec. IV-A): a dense DNN
// shard receives the query, bucketizes the sparse inputs, fans gather
// RPCs out to the embedding shards, merges the pooled partial sums, and
// finishes the forward pass. A monolithic server provides the model-wise
// baseline, and the equivalence tests assert that sharded serving
// reproduces monolithic predictions.
package serving

import (
	"context"

	"repro/internal/serving/wire"
)

// The serving messages are defined in internal/serving/wire (the codec
// cannot depend on this package) and aliased here, so call sites name
// them without importing the codec.
type (
	// GatherRequest asks an embedding shard to gather-and-pool one batch
	// (see wire.GatherRequest).
	GatherRequest = wire.GatherRequest
	// GatherReply carries the pooled partial sums (see wire.GatherReply).
	GatherReply = wire.GatherReply
	// TableBatch is one table's index/offset arrays within a predict
	// request (see wire.TableBatch).
	TableBatch = wire.TableBatch
	// PredictRequest is a full inference query (see wire.PredictRequest).
	PredictRequest = wire.PredictRequest
	// PredictReply carries one click probability per input (see
	// wire.PredictReply).
	PredictReply = wire.PredictReply
)

// GatherClient is anything that can service a gather call: a local shard,
// an RPC connection, or a load-balanced replica pool. Implementations
// honour ctx cancellation and deadlines: a canceled context aborts the
// call (locally, or unblocks the caller on the TCP transport).
type GatherClient interface {
	Gather(ctx context.Context, req *GatherRequest, reply *GatherReply) error
}

// PredictClient is anything that can service a predict call; ctx follows
// the GatherClient contract.
type PredictClient interface {
	Predict(ctx context.Context, req *PredictRequest, reply *PredictReply) error
}
