package wire

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// countConn counts the Read calls on a connection that delivered bytes.
type countConn struct {
	net.Conn
	reads atomic.Int64
}

func (c *countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.reads.Add(1)
	}
	return n, err
}

// wideGather answers every gather with BatchSize = len(Offsets) rows of a
// fixed width, so the test picks the reply frame's size.
type wideGather struct{ dim int }

func (g wideGather) Gather(_ context.Context, req *GatherRequest, reply *GatherReply) error {
	reply.BatchSize, reply.Dim = len(req.Offsets), g.dim
	reply.Pooled = GetFloat32(reply.BatchSize * g.dim)
	clear(reply.Pooled)
	return nil
}

// TestFrameCostsOneRead pins the frame readers' buffer: a frame no larger
// than frameReadBuf costs exactly one Read, on ServeConn's loop and on the
// client's reader alike. net.Pipe hands each Write to the reader whole
// (no kernel segmentation), so the count is deterministic; both frames
// here are several times bufio's 4 KiB default, which took two reads.
func TestFrameCostsOneRead(t *testing.T) {
	srvSide, cliSide := net.Pipe()
	srv, cli := &countConn{Conn: srvSide}, &countConn{Conn: cliSide}
	defer srv.Close()
	resolve := func(kind byte, name string) (Endpoint, error) {
		return Endpoint{Gather: wideGather{dim: 300}}, nil
	}
	go ServeConn(srv, resolve, 5*time.Second)
	conn, err := newConn(cli, "g", KindGather, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	req := &GatherRequest{Indices: make([]int64, 9000), Offsets: make([]int32, 32)}
	reqFrame := 4 + 8 + len(AppendGatherRequest(nil, req))
	replyFrame := 4 + 9 + len(AppendGatherReply(nil, &GatherReply{BatchSize: 32, Dim: 300, Pooled: make([]float32, 32*300)}, false))
	for _, n := range []int{reqFrame, replyFrame} {
		if n <= 4<<10 || n > frameReadBuf {
			t.Fatalf("frame of %d bytes does not probe the buffer size", n)
		}
	}
	for i := 1; i <= 3; i++ {
		srv0, cli0 := srv.reads.Load(), cli.reads.Load()
		var reply GatherReply
		err := conn.Call(context.Background(),
			func(b []byte) []byte { return AppendGatherRequest(b, req) },
			func(p []byte) error { return DecodeGatherReply(p, &reply) })
		if err != nil {
			t.Fatal(err)
		}
		FreeGatherReply(&reply)
		// The server read the request before it replied, and the client
		// read the reply before Call returned, so both counts are settled.
		if got := srv.reads.Load() - srv0; got != 1 {
			t.Fatalf("call %d: the server read a %d-byte request frame in %d reads, want 1", i, reqFrame, got)
		}
		if got := cli.reads.Load() - cli0; got != 1 {
			t.Fatalf("call %d: the client read a %d-byte reply frame in %d reads, want 1", i, replyFrame, got)
		}
	}
}
