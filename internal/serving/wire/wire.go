// Package wire is the serving plane's one wire protocol: a
// length-prefixed, little-endian codec for the four predict/gather
// messages (raw float32 and u32 payloads, no reflection) plus
// the framed-TCP transport that carries it — a magic/version preamble
// negotiated at dial time, pipelined request IDs with out-of-order
// completion on sticky connections, per-connection pooled buffers, and an
// optional int8-quantized encoding of gather rows. The same frames carry
// the control plane as a third connection kind (KindAdmin) whose request
// body is opaque to this package, so every listener in package serving
// speaks exactly this protocol and nothing else.
package wire

import (
	"context"
	"fmt"
	"time"

	"repro/internal/embedding"
)

// Magic opens every connection. The server's handshake closes a peer that
// opens with anything else (a port scan, an HTTP probe, a foreign
// protocol) before parsing a single length field from it; the first byte
// is not valid ASCII or UTF-8, so no text protocol can collide.
var Magic = [4]byte{0xf5, 'E', 'R', 'W'}

// Version is the protocol generation carried in the preamble; servers
// reject a mismatch instead of misinterpreting frames. Version 2 carries
// indices as u32 (version 1 sent u64), see codec.go.
const Version = 2

// Connection kinds named in the preamble.
const (
	// KindGather connects to a gather service.
	KindGather byte = 1
	// KindPredict connects to a predict service.
	KindPredict byte = 2
	// KindAdmin connects to the control plane registered beside a predict
	// service (same name, same listener).
	KindAdmin byte = 3
)

// GatherReply payload encodings (the reply is self-describing, so clients
// need no negotiation state).
const (
	// EncFloat32 is the exact encoding: BatchSize*Dim raw float32s.
	EncFloat32 byte = 0
	// EncInt8 is the quantized encoding: per row, one float32 scale
	// followed by Dim int8s (value = scale * int8). Lossy; enabled per
	// service via BuildOptions.WireQuant.
	EncInt8 byte = 1
)

// MaxFrame bounds a frame body. A decoder rejects anything larger before
// allocating, so a malformed or hostile length prefix cannot force an
// oversized allocation.
const MaxFrame = 64 << 20

// frameReadBuf sizes the buffered reader of both frame loops (ServeConn's
// and Conn's). Gather and reply frames run to tens of KiB, so with
// bufio's 4 KiB default a frame took two or more read syscalls; a frame
// no larger than this buffer costs one when it has fully arrived.
const frameReadBuf = 64 << 10

// MaxName bounds the service name in the preamble.
const MaxName = 256

// GatherRequest asks an embedding shard to gather-and-pool one batch. The
// indices are shard-local (already bucketized and rebased, Fig. 11c).
//
// An empty Offsets slice selects rows mode (gather path v2): the shard
// returns one raw row per index instead of pooled-per-input sums, and the
// reply's BatchSize equals len(Indices). The encoding is unchanged — a
// zero offset count is already canonical — so rows mode needs no version
// bump and rides every transport.
type GatherRequest struct {
	Table   int
	Shard   int
	Indices []int64
	Offsets []int32
	// Deadline carries the caller's context deadline across process
	// boundaries as unix nanoseconds (0 = none). The TCP transport stamps
	// it on the way out and reconstructs the context server-side, so a
	// frontend deadline bounds every downstream gather.
	Deadline int64
}

// GatherReply carries the pooled partial sums: BatchSize rows of Dim
// float32s, row-major. On the binary transport the row payload may ride
// int8-quantized (EncInt8); the decoder always materializes float32s, so
// consumers never see the wire encoding.
type GatherReply struct {
	BatchSize int
	Dim       int
	Pooled    []float32
}

// TableBatch is one table's index/offset arrays within a predict request.
type TableBatch struct {
	Indices []int64
	Offsets []int32
}

// PredictRequest is a full inference query: the dense features for every
// input plus, per table, the sparse lookup batch. Index space depends on
// the receiving service: the monolith expects original table IDs; the
// ElasticRec dense shard expects original IDs too when its routing table
// carries a preprocessing remap (the remap is applied inside the epoch
// snapshot, so batching and plan swaps can never mix ID spaces), and
// hotness-sorted IDs when it does not.
type PredictRequest struct {
	// Model names the DLRM variant the request addresses. Empty routes to
	// the deployment's default model, so single-variant clients never set
	// it. The field rides the wire: a multi-model frontend dispatches on
	// it, and every model-aware service (dense shard, batcher) rejects a
	// mismatched request rather than serve it with the wrong variant's
	// parameters. Gathers carry no model field — a gather fan-out happens
	// strictly inside one pinned epoch of one model, so the model is
	// implied by the shard client the epoch hands out.
	Model     string
	BatchSize int
	DenseDim  int
	Dense     []float32 // BatchSize x DenseDim, row-major
	Tables    []TableBatch
	// Deadline mirrors GatherRequest.Deadline for the predict wire format.
	Deadline int64
}

// PredictReply carries one click probability per input.
type PredictReply struct {
	Probs []float32
}

// Validate checks the request's structural invariants against the model
// geometry.
func (r *PredictRequest) Validate(numTables int) error {
	if r.BatchSize <= 0 {
		return fmt.Errorf("serving: batch size must be positive, got %d", r.BatchSize)
	}
	if len(r.Dense) != r.BatchSize*r.DenseDim {
		return fmt.Errorf("serving: dense payload %d != %d x %d", len(r.Dense), r.BatchSize, r.DenseDim)
	}
	if len(r.Tables) != numTables {
		return fmt.Errorf("serving: %d table batches, want %d", len(r.Tables), numTables)
	}
	for t, tb := range r.Tables {
		b := embedding.Batch{Indices: tb.Indices, Offsets: tb.Offsets}
		if err := b.Validate(); err != nil {
			return fmt.Errorf("serving: table %d: %w", t, err)
		}
		if len(tb.Offsets) != r.BatchSize {
			return fmt.Errorf("serving: table %d batch size %d != %d", t, len(tb.Offsets), r.BatchSize)
		}
	}
	return nil
}

// GatherService is the server-side gather endpoint the transport invokes.
type GatherService interface {
	Gather(ctx context.Context, req *GatherRequest, reply *GatherReply) error
}

// PredictService is the server-side predict endpoint the transport
// invokes.
type PredictService interface {
	Predict(ctx context.Context, req *PredictRequest, reply *PredictReply) error
}

// AdminService is the server-side control-plane endpoint the transport
// invokes. The codec carries an op code and an opaque body each way; what
// the ops mean and how bodies are encoded belongs to the implementer, so
// this package never sees the control plane's types.
type AdminService interface {
	Admin(ctx context.Context, op byte, req []byte) ([]byte, error)
}

// RowSource is the optional zero-copy fast path for rows-mode gathers
// (len(req.Offsets) == 0): the service encodes one row per index straight
// from its storage onto frame — an open reply frame positioned at the
// payload — using enc (EncFloat32 or EncInt8), and returns
// the extended buffer. The transport skips the intermediate GatherReply
// materialization (and its float32 copy) entirely. Implementations must
// validate indices and honor ctx exactly as their Gather method does;
// on error the returned buffer is discarded and an error reply is sent.
type RowSource interface {
	AppendGatherRows(ctx context.Context, req *GatherRequest, frame []byte, enc byte) ([]byte, error)
}

// CtxDeadlineNanos converts a context deadline to the wire encoding
// (unix nanoseconds, 0 = none).
func CtxDeadlineNanos(ctx context.Context) int64 {
	if dl, ok := ctx.Deadline(); ok {
		return dl.UnixNano()
	}
	return 0
}

// DeadlineContext reconstructs a context from the wire encoding. The
// returned cancel func must always be called.
func DeadlineContext(nanos int64) (context.Context, context.CancelFunc) {
	if nanos > 0 {
		//lint:escape ctxflow the server-side root IS the wire deadline; the caller's context lives in another process
		return context.WithDeadline(context.Background(), time.Unix(0, nanos))
	}
	//lint:escape ctxflow no deadline on the wire means an unbounded server-side root, canceled when the conn drops
	return context.WithCancel(context.Background())
}
