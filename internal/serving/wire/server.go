package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// This file is the server half of the framed transport. The serving
// package's RPCServer hands every accepted connection to ServeConn, which
// reads the preamble (magic, version, kind, service name) under a
// deadline, resolves the endpoint, acks, and then serves frames: requests
// are decoded serially on the connection's reader (into pooled slices),
// handled on one goroutine each (so a slow gather or a long deploy never
// blocks the pipeline behind it), and replies are written under a
// per-connection write lock with frame buffers recycled after every write.

// Endpoint is what one service name resolves to: a gather service, or a
// predict service with (optionally) the control plane that administers it
// registered beside it — the preamble kind picks which one a connection
// talks to. Quant selects the int8-quantized gather-reply encoding for
// this service. Rows, when non-nil, is the zero-copy fast path for
// rows-mode gathers: the service encodes rows straight into the reply
// frame, skipping the intermediate GatherReply materialization.
type Endpoint struct {
	Gather  GatherService
	Predict PredictService
	Admin   AdminService
	Rows    RowSource
	Quant   bool
}

// encoding returns the gather-row wire encoding this endpoint serves.
func (ep *Endpoint) encoding() byte {
	if ep.Quant {
		return EncInt8
	}
	return EncFloat32
}

// Resolver maps a preamble's (kind, service name) to an endpoint; an
// error refuses the connection in the ack.
type Resolver func(kind byte, name string) (Endpoint, error)

// ServeConn serves one accepted connection. The handshake — magic,
// preamble, ack — must finish within timeout, so a peer that connects and
// says nothing (a port scan, a half-open socket) holds a goroutine and a
// descriptor that long at most; nothing after the ack is bounded here.
// ServeConn blocks until the client hangs up or a transport error occurs,
// and does not close conn — the caller owns it.
func ServeConn(conn net.Conn, resolve Resolver, timeout time.Duration) {
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return
	}
	kind, ep, err := handshake(conn, resolve)
	if err != nil {
		return
	}
	if err := conn.SetDeadline(time.Time{}); err != nil {
		return
	}
	serveFrames(conn, kind, ep)
}

// handshake reads the preamble and writes the ack. A peer that does not
// open with Magic speaks another protocol: no ack, the caller closes it.
func handshake(conn net.Conn, resolve Resolver) (kind byte, ep Endpoint, err error) {
	var hdr [len(Magic) + 4]byte // magic, version, kind, u16 nameLen
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return 0, Endpoint{}, err
	}
	if [len(Magic)]byte(hdr[:len(Magic)]) != Magic {
		return 0, Endpoint{}, errors.New("wire: connection does not open with the protocol magic")
	}
	version, kind := hdr[len(Magic)], hdr[len(Magic)+1]
	nameLen := int(le.Uint16(hdr[len(Magic)+2:]))
	if nameLen > MaxName {
		err := fmt.Errorf("wire: service name length %d exceeds %d", nameLen, MaxName)
		_ = writeAck(conn, err)
		return 0, Endpoint{}, err
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(conn, name); err != nil {
		return 0, Endpoint{}, err
	}
	if version != Version {
		err := fmt.Errorf("wire: protocol version %d not supported (server speaks v%d)", version, Version)
		_ = writeAck(conn, err)
		return 0, Endpoint{}, err
	}
	ep, err = resolve(kind, string(name))
	if err := writeAck(conn, err); err != nil {
		return 0, Endpoint{}, err
	}
	return kind, ep, nil
}

// writeAck sends the handshake verdict (status 0 accepts; otherwise the
// error text rides along) and returns any transport error.
func writeAck(conn net.Conn, verdict error) error {
	var msg string
	status := byte(0)
	if verdict != nil {
		status = 1
		msg = verdict.Error()
	}
	ack := make([]byte, 0, 3+len(msg))
	ack = append(ack, status)
	ack = le.AppendUint16(ack, uint16(len(msg)))
	ack = append(ack, msg...)
	if _, err := conn.Write(ack); err != nil {
		return err
	}
	return verdict
}

// serveFrames is the per-connection request loop; kind is the preamble's
// connection kind, which the resolver has vetted against ep.
func serveFrames(conn net.Conn, kind byte, ep Endpoint) {
	var wmu sync.Mutex // serializes reply writes from handler goroutines
	var wg sync.WaitGroup
	defer wg.Wait()
	r := bufio.NewReader(conn)
	var hdr [4]byte
	var body []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return
		}
		n := int(binary.LittleEndian.Uint32(hdr[:]))
		if n < 8 || n > MaxFrame {
			return
		}
		if cap(body) < n {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(r, body); err != nil {
			return
		}
		id := binary.LittleEndian.Uint64(body)
		payload := body[8:]
		// Decode on the reader (the frame buffer is reused by the next
		// iteration; decoded messages own pooled copies), handle on a
		// fresh goroutine so completions pipeline out of order.
		switch kind {
		case KindGather:
			var req GatherRequest
			if err := DecodeGatherRequest(payload, &req); err != nil {
				writeErrorReply(conn, &wmu, id, err)
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				handleGather(conn, &wmu, ep, id, &req)
			}()
		case KindPredict:
			var req PredictRequest
			if err := DecodePredictRequest(payload, &req); err != nil {
				writeErrorReply(conn, &wmu, id, err)
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				handlePredict(conn, &wmu, ep, id, &req)
			}()
		case KindAdmin:
			op, deadline, body, err := DecodeAdminRequest(payload)
			if err != nil {
				writeErrorReply(conn, &wmu, id, err)
				continue
			}
			body = append([]byte(nil), body...) // the handler outlives the frame buffer
			wg.Add(1)
			go func() {
				defer wg.Done()
				handleAdmin(conn, &wmu, ep, id, op, deadline, body)
			}()
		default:
			return // unreachable: the resolver vets the kind
		}
	}
}

// handleGather services one gather frame end to end, recycling the
// decoded request and the reply's pooled rows once the reply is on the
// wire (the shard's Gather is synchronous, so nothing retains them).
func handleGather(conn net.Conn, wmu *sync.Mutex, ep Endpoint, id uint64, req *GatherRequest) {
	ctx, cancel := DeadlineContext(req.Deadline)
	if ep.Rows != nil && len(req.Offsets) == 0 {
		// Zero-copy rows mode: the service encodes rows straight from its
		// storage into the reply frame — no intermediate float32 copy.
		b := GetBuf(64 + len(req.Indices)*256) // capacity hint: dim-64 f32 rows
		b = beginReply(b, id)
		b, err := ep.Rows.AppendGatherRows(ctx, req, b, ep.encoding())
		cancel()
		FreeGatherRequest(req)
		if err != nil {
			PutBuf(b)
			writeErrorReply(conn, wmu, id, err)
			return
		}
		finishReply(conn, wmu, b)
		return
	}
	var reply GatherReply
	err := ep.Gather.Gather(ctx, req, &reply)
	cancel()
	FreeGatherRequest(req)
	if err != nil {
		writeErrorReply(conn, wmu, id, err)
		return
	}
	b := GetBuf(64 + 4*len(reply.Pooled))
	b = beginReply(b, id)
	b = AppendGatherReplyEnc(b, &reply, ep.encoding())
	FreeGatherReply(&reply)
	finishReply(conn, wmu, b)
}

// handlePredict services one predict frame end to end (see handleGather).
func handlePredict(conn net.Conn, wmu *sync.Mutex, ep Endpoint, id uint64, req *PredictRequest) {
	ctx, cancel := DeadlineContext(req.Deadline)
	var reply PredictReply
	err := ep.Predict.Predict(ctx, req, &reply)
	cancel()
	FreePredictRequest(req)
	if err != nil {
		writeErrorReply(conn, wmu, id, err)
		return
	}
	b := GetBuf(64 + 4*len(reply.Probs))
	b = beginReply(b, id)
	b = AppendPredictReply(b, &reply)
	finishReply(conn, wmu, b)
}

// handleAdmin services one admin frame end to end; body and reply are
// plain allocations — the control plane is a few calls a minute.
func handleAdmin(conn net.Conn, wmu *sync.Mutex, ep Endpoint, id uint64, op byte, deadline int64, body []byte) {
	ctx, cancel := DeadlineContext(deadline)
	out, err := ep.Admin.Admin(ctx, op, body)
	cancel()
	if err != nil {
		writeErrorReply(conn, wmu, id, err)
		return
	}
	b := GetBuf(16 + len(out))
	b = beginReply(b, id)
	b = append(b, out...)
	finishReply(conn, wmu, b)
}

// beginReply opens an OK reply frame (length patched by finishReply).
func beginReply(b []byte, id uint64) []byte {
	b = append(b, 0, 0, 0, 0)
	b = appendU64(b, id)
	return append(b, 0) // status OK
}

// finishReply patches the frame length, writes under the connection's
// write lock and recycles the frame buffer. Write errors are dropped: the
// reader side of a dead connection tears the loop down.
func finishReply(conn net.Conn, wmu *sync.Mutex, b []byte) {
	le.PutUint32(b, uint32(len(b)-4))
	wmu.Lock()
	_, _ = conn.Write(b)
	wmu.Unlock()
	PutBuf(b)
}

// writeErrorReply sends a status-1 frame carrying err's text.
func writeErrorReply(conn net.Conn, wmu *sync.Mutex, id uint64, err error) {
	if err == nil {
		err = errors.New("wire: unknown error")
	}
	msg := err.Error()
	b := GetBuf(16 + len(msg))
	b = append(b, 0, 0, 0, 0)
	b = appendU64(b, id)
	b = append(b, 1) // status: service error
	b = append(b, msg...)
	finishReply(conn, wmu, b)
}
