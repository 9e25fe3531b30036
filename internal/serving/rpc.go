package serving

import (
	"context"
	"fmt"
	"log"
	"net"
	"sync"
	"time"

	"repro/internal/serving/wire"
)

// This file provides the loopback-TCP transport. Every shard can be
// exported as a network service (the stand-in for the paper's C++ gRPC
// layer) and consumed through a GatherClient/PredictClient that dials it.
// Every listener speaks one protocol, the binary framed one in
// internal/serving/wire (no reflection, pooled buffers, pipelined sticky
// connections): gathers, predicts and the admin control plane are three
// connection kinds of it, and a peer that opens with anything else is
// closed.

// DialTimeout bounds every transport dial (TCP connect plus handshake),
// so a hung shard address fails pool construction promptly instead of
// blocking it forever. Servers bound the same handshake from their side
// with it, so a peer that connects and goes silent is dropped.
const DialTimeout = 5 * time.Second

// RPCServer hosts one or more services on a TCP listener.
type RPCServer struct {
	listener         net.Listener
	handshakeTimeout time.Duration // bounds each accepted connection's preamble
	mu               sync.Mutex
	conns            map[net.Conn]struct{}
	done             chan struct{}

	epMu      sync.RWMutex
	endpoints map[string]wire.Endpoint
}

// NewRPCServer starts a server on addr ("127.0.0.1:0" picks a free port).
func NewRPCServer(addr string) (*RPCServer, error) {
	return newRPCServer(addr, DialTimeout)
}

// newRPCServer is NewRPCServer with the handshake bound exposed, so the
// silent-peer test need not wait out DialTimeout.
func newRPCServer(addr string, handshakeTimeout time.Duration) (*RPCServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serving: rpc listen: %w", err)
	}
	s := &RPCServer{
		listener:         ln,
		handshakeTimeout: handshakeTimeout,
		conns:            make(map[net.Conn]struct{}),
		done:             make(chan struct{}),
		endpoints:        make(map[string]wire.Endpoint),
	}
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's address for clients to dial.
func (s *RPCServer) Addr() string { return s.listener.Addr().String() }

// GatherWireOptions selects the per-service gather-reply wire encoding.
type GatherWireOptions struct {
	Quant bool // int8-quantized rows
}

// RegisterGather exposes a gather service under name.
func (s *RPCServer) RegisterGather(name string, svc GatherClient) error {
	return s.RegisterGatherWire(name, svc, GatherWireOptions{})
}

// RegisterGatherWire is RegisterGather with explicit wire options. If svc
// also implements wire.RowSource, rows-mode gathers take the zero-copy
// encode path.
func (s *RPCServer) RegisterGatherWire(name string, svc GatherClient, opts GatherWireOptions) error {
	rows, _ := svc.(wire.RowSource) // nil when svc has no zero-copy path
	return s.register(name, wire.Endpoint{Gather: svc, Rows: rows, Quant: opts.Quant})
}

// RegisterPredict exposes a predict service under name.
func (s *RPCServer) RegisterPredict(name string, svc PredictClient) error {
	return s.register(name, wire.Endpoint{Predict: svc})
}

// register claims name for ep; a name serves one endpoint for good.
func (s *RPCServer) register(name string, ep wire.Endpoint) error {
	s.epMu.Lock()
	defer s.epMu.Unlock()
	if _, dup := s.endpoints[name]; dup {
		return fmt.Errorf("serving: service %q already registered", name)
	}
	s.endpoints[name] = ep
	return nil
}

// resolve maps a connection preamble to a registered endpoint.
func (s *RPCServer) resolve(kind byte, name string) (wire.Endpoint, error) {
	s.epMu.RLock()
	ep, ok := s.endpoints[name]
	s.epMu.RUnlock()
	if !ok {
		return wire.Endpoint{}, fmt.Errorf("serving: no service %q", name)
	}
	switch kind {
	case wire.KindGather:
		if ep.Gather == nil {
			return wire.Endpoint{}, fmt.Errorf("serving: service %q is not a gather service", name)
		}
	case wire.KindPredict:
		if ep.Predict == nil {
			return wire.Endpoint{}, fmt.Errorf("serving: service %q is not a predict service", name)
		}
	case wire.KindAdmin:
		if ep.Admin == nil {
			return wire.Endpoint{}, fmt.Errorf("serving: service %q has no admin endpoint", name)
		}
	default:
		return wire.Endpoint{}, fmt.Errorf("serving: unknown connection kind %d", kind)
	}
	return ep, nil
}

func (s *RPCServer) acceptLoop() {
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			// A failed Accept is terminal either way; what differs is
			// whether it was asked for. Close closes s.done before the
			// listener, so a clean shutdown stays silent and a listener
			// failure is logged exactly once.
			select {
			case <-s.done:
			default:
				log.Printf("serving: rpc accept on %s failed, no longer accepting: %v", s.Addr(), err)
			}
			return
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		go func() {
			wire.ServeConn(conn, s.resolve, s.handshakeTimeout)
			_ = conn.Close()
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// Close stops the listener and all live connections.
func (s *RPCServer) Close() error {
	close(s.done)
	err := s.listener.Close()
	s.mu.Lock()
	for c := range s.conns {
		_ = c.Close()
	}
	s.mu.Unlock()
	return err
}

// RPCGatherClient calls a remote gather service over the binary framed
// codec: one sticky pipelined connection, any number of concurrent calls.
type RPCGatherClient struct {
	conn *wire.Conn
}

// DialGather connects to a gather service registered under name at addr,
// failing fast on an unregistered name or a hung address — the dial and
// handshake are bounded by DialTimeout.
func DialGather(addr, name string) (*RPCGatherClient, error) {
	c, err := wire.Dial(addr, name, wire.KindGather, DialTimeout)
	if err != nil {
		return nil, err
	}
	return &RPCGatherClient{conn: c}, nil
}

// call issues one request on conn and stores the reply only on success. A
// canceled context unblocks the caller immediately (see wire.Conn.Call)
// while the reader goroutine may still be decoding the abandoned call's
// late reply, so decode fills a private value, copied out on completion.
func call[Rep any](ctx context.Context, conn *wire.Conn, encode func([]byte) []byte, decode func([]byte, *Rep) error, reply *Rep) error {
	var inner Rep
	if err := conn.Call(ctx, encode, func(p []byte) error { return decode(p, &inner) }); err != nil {
		return err
	}
	*reply = inner
	return nil
}

// Gather implements GatherClient over the wire: the context deadline is
// stamped onto the request (copy-on-write, the caller's request is never
// mutated) and the call is abandoned on cancel (see call).
func (c *RPCGatherClient) Gather(ctx context.Context, req *GatherRequest, reply *GatherReply) error {
	if dl := wire.CtxDeadlineNanos(ctx); dl != 0 && dl != req.Deadline {
		stamped := *req
		stamped.Deadline = dl
		req = &stamped
	}
	return call(ctx, c.conn,
		func(b []byte) []byte { return wire.AppendGatherRequest(b, req) },
		wire.DecodeGatherReply, reply)
}

// Close tears down the connection.
func (c *RPCGatherClient) Close() error { return c.conn.Close() }

var _ GatherClient = (*RPCGatherClient)(nil)

// RPCPredictClient calls a remote predict service over the binary framed
// codec (same pipelining and cancel contract as RPCGatherClient).
type RPCPredictClient struct {
	conn *wire.Conn
}

// DialPredict connects to a predict service registered under name at
// addr (see DialGather).
func DialPredict(addr, name string) (*RPCPredictClient, error) {
	c, err := wire.Dial(addr, name, wire.KindPredict, DialTimeout)
	if err != nil {
		return nil, err
	}
	return &RPCPredictClient{conn: c}, nil
}

// Predict implements PredictClient over the wire (same deadline/cancel
// contract as RPCGatherClient.Gather).
func (c *RPCPredictClient) Predict(ctx context.Context, req *PredictRequest, reply *PredictReply) error {
	if dl := wire.CtxDeadlineNanos(ctx); dl != 0 && dl != req.Deadline {
		stamped := *req
		stamped.Deadline = dl
		req = &stamped
	}
	return call(ctx, c.conn,
		func(b []byte) []byte { return wire.AppendPredictRequest(b, req) },
		wire.DecodePredictReply, reply)
}

// Close tears down the connection.
func (c *RPCPredictClient) Close() error { return c.conn.Close() }

var _ PredictClient = (*RPCPredictClient)(nil)
