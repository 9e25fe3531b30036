package wire

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// This file is the client half of the framed transport. A Conn is sticky
// and pipelined: one TCP connection per (address, service), any number of
// in-flight calls identified by u64 request IDs, replies completed out of
// order by a single reader goroutine. Cancellation is abandon-on-cancel:
// a call whose context ends unblocks its caller immediately, and its
// eventual reply decodes into a private per-call struct that is
// discarded, so it can never race state the caller has moved on from.
//
// Frame layout (both directions, little-endian):
//
//	request  = u32 bodyLen | u64 id | payload
//	reply    = u32 bodyLen | u64 id | u8 status | payload
//
// status 0 carries a message payload; any other status carries a UTF-8
// error string (a service-level error, reported to that call only — the
// connection stays usable).

// ErrClosed reports a call issued on (or interrupted by) a closed
// connection.
var ErrClosed = errors.New("wire: connection closed")

// ServerError is a service-level failure relayed over the wire, typed so
// callers can distinguish remote errors from transport ones.
type ServerError string

// Error implements the error interface.
func (e ServerError) Error() string { return string(e) }

// pendingCall is one in-flight request's completion state.
type pendingCall struct {
	// decode materializes the reply payload into the call's private reply
	// struct; it runs on the reader goroutine strictly before done is
	// signalled, so the caller observes a fully decoded reply or nothing.
	decode func([]byte) error
	done   chan error // buffered: the reader never blocks on a deserter
}

// Conn is a sticky, pipelined client connection to one service endpoint.
// It is safe for concurrent use by any number of goroutines.
type Conn struct {
	conn net.Conn

	wmu  sync.Mutex
	wbuf []byte // write frame scratch, grown-not-reallocated

	mu      sync.Mutex
	pending map[uint64]*pendingCall
	nextID  uint64
	err     error // terminal transport error; nil while healthy
}

// Dial connects to the service registered under name at addr, negotiates
// the binary codec (magic/version preamble, bounded by timeout along with
// the TCP dial itself) and starts the reader. kind is KindGather,
// KindPredict or KindAdmin; the server refuses a name not registered for
// that kind at dial time rather than at first call.
func Dial(addr, name string, kind byte, timeout time.Duration) (*Conn, error) {
	if len(name) > MaxName {
		return nil, fmt.Errorf("wire: service name %q too long", name)
	}
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	c, err := newConn(nc, name, kind, timeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	return c, nil
}

// newConn negotiates the codec over an established connection and starts
// the reader; on a refused handshake it closes nc.
func newConn(nc net.Conn, name string, kind byte, timeout time.Duration) (*Conn, error) {
	if err := clientHandshake(nc, name, kind, timeout); err != nil {
		nc.Close()
		return nil, err
	}
	c := &Conn{conn: nc, pending: make(map[uint64]*pendingCall)}
	go c.readLoop()
	return c, nil
}

// clientHandshake sends the preamble and reads the ack (u8 status | u16
// msgLen | msg: status 0 accepts, anything else carries the refusal
// reason), all within timeout.
func clientHandshake(nc net.Conn, name string, kind byte, timeout time.Duration) error {
	if err := nc.SetDeadline(time.Now().Add(timeout)); err != nil {
		return err
	}
	pre := make([]byte, 0, len(Magic)+4+len(name))
	pre = append(pre, Magic[:]...)
	pre = append(pre, Version, kind)
	pre = le.AppendUint16(pre, uint16(len(name)))
	pre = append(pre, name...)
	if _, err := nc.Write(pre); err != nil {
		return fmt.Errorf("preamble: %w", err)
	}
	var hdr [3]byte
	if _, err := io.ReadFull(nc, hdr[:]); err != nil {
		return fmt.Errorf("ack: %w", err)
	}
	msg := make([]byte, le.Uint16(hdr[1:]))
	if _, err := io.ReadFull(nc, msg); err != nil {
		return fmt.Errorf("ack: %w", err)
	}
	switch {
	case hdr[0] == 0:
		return nc.SetDeadline(time.Time{})
	case len(msg) == 0:
		return fmt.Errorf("server refused connection (status %d)", hdr[0])
	default:
		return errors.New(string(msg))
	}
}

// Call issues one pipelined request: encode appends the payload onto the
// frame buffer, decode materializes the reply payload (into storage only
// this call observes). Call blocks until the reply arrives, ctx is done,
// or the connection fails; on ctx cancellation the call is abandoned and
// its late reply, if any, is discarded by the reader. A request that
// encodes past MaxFrame fails this call alone, before anything is
// written: the server would answer it by dropping the connection, and
// every other call in flight with it.
func (c *Conn) Call(ctx context.Context, encode func([]byte) []byte, decode func([]byte) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	call := &pendingCall{decode: decode, done: make(chan error, 1)}
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return err
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = call
	c.mu.Unlock()

	c.wmu.Lock()
	b := append(c.wbuf[:0], 0, 0, 0, 0)
	b = appendU64(b, id)
	b = encode(b)
	if n := len(b) - 4; n > MaxFrame {
		c.wbuf = nil // don't pin the oversized scratch for the connection's lifetime
		c.wmu.Unlock()
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return fmt.Errorf("wire: request frame of %d bytes exceeds MaxFrame (%d)", n, MaxFrame)
	}
	le.PutUint32(b, uint32(len(b)-4))
	c.wbuf = b
	_, err := c.conn.Write(b)
	c.wmu.Unlock()
	if err != nil {
		// A dead socket fails every pending call, including this one.
		c.fail(fmt.Errorf("wire: write: %w", err))
	}

	select {
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		return ctx.Err()
	case err := <-call.done:
		// A deadline that rides the frame expires on both ends at once:
		// when the server's refusal wins the race the caller still gets
		// its own context's error, even if the context's timer goroutine
		// has not run yet. A reply that made it is a success.
		if err != nil {
			if cerr := ctx.Err(); cerr != nil {
				return cerr
			}
			if dl, ok := ctx.Deadline(); ok && !time.Now().Before(dl) {
				return context.DeadlineExceeded
			}
		}
		return err
	}
}

// readLoop drains reply frames, completing pending calls out of order.
// The frame buffer is reused across replies: decode copies everything it
// keeps into per-call storage before the loop moves on.
func (c *Conn) readLoop() {
	r := bufio.NewReaderSize(c.conn, frameReadBuf)
	var hdr [4]byte
	var body []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			c.fail(fmt.Errorf("wire: read: %w", err))
			return
		}
		n := int(binary.LittleEndian.Uint32(hdr[:]))
		if n < 9 || n > MaxFrame {
			c.fail(fmt.Errorf("wire: reply frame length %d out of range", n))
			return
		}
		if cap(body) < n {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(r, body); err != nil {
			c.fail(fmt.Errorf("wire: read: %w", err))
			return
		}
		id := binary.LittleEndian.Uint64(body)
		status := body[8]
		payload := body[9:]
		c.mu.Lock()
		call := c.pending[id]
		delete(c.pending, id)
		c.mu.Unlock()
		if call == nil {
			continue // abandoned by a canceled caller; drop the reply
		}
		if status != 0 {
			call.done <- ServerError(payload)
			continue
		}
		call.done <- call.decode(payload)
	}
}

// fail records the terminal error once and completes every pending call
// with it.
func (c *Conn) fail(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	err = c.err
	pend := c.pending
	c.pending = make(map[uint64]*pendingCall)
	c.mu.Unlock()
	_ = c.conn.Close()
	for _, call := range pend {
		call.done <- err
	}
}

// Close tears the connection down; in-flight calls fail with ErrClosed.
func (c *Conn) Close() error {
	c.fail(ErrClosed)
	return nil
}
