package serving

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serving/wire"
)

// rawWire is a hand-rolled wire client: tests that probe a listener with
// frames no real client would send drive the socket directly.
type rawWire struct {
	t    *testing.T
	conn net.Conn
	r    *bufio.Reader
}

// dialRawWire connects, sends the preamble and requires an accepting ack.
func dialRawWire(t *testing.T, addr, name string, kind byte) *rawWire {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, DialTimeout)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.SetDeadline(time.Now().Add(10 * time.Second)); err != nil {
		t.Fatal(err)
	}
	pre := append([]byte(nil), wire.Magic[:]...)
	pre = append(pre, wire.Version, kind)
	pre = binary.LittleEndian.AppendUint16(pre, uint16(len(name)))
	pre = append(pre, name...)
	if _, err := conn.Write(pre); err != nil {
		t.Fatal(err)
	}
	w := &rawWire{t: t, conn: conn, r: bufio.NewReader(conn)}
	var ack [3]byte
	if _, err := io.ReadFull(w.r, ack[:]); err != nil {
		t.Fatal(err)
	}
	if ack != [3]byte{} {
		t.Fatalf("handshake refused: ack %v", ack)
	}
	return w
}

// send writes one request frame.
func (w *rawWire) send(id uint64, payload []byte) {
	w.t.Helper()
	b := binary.LittleEndian.AppendUint32(nil, uint32(8+len(payload)))
	b = binary.LittleEndian.AppendUint64(b, id)
	if _, err := w.conn.Write(append(b, payload...)); err != nil {
		w.t.Fatal(err)
	}
}

// recv reads one reply frame.
func (w *rawWire) recv() (id uint64, status byte, payload []byte) {
	w.t.Helper()
	var hdr [4]byte
	if _, err := io.ReadFull(w.r, hdr[:]); err != nil {
		w.t.Fatalf("reply header: %v", err)
	}
	body := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(w.r, body); err != nil {
		w.t.Fatalf("reply body: %v", err)
	}
	return binary.LittleEndian.Uint64(body), body[8], body[9:]
}

// TestAdminAndPredictShareListener polls the admin endpoint while two
// predict clients hammer the same address: the control plane and the data
// plane are connection kinds of one protocol on one listener, every
// prediction must equal the variant's monolith, and every status poll
// must see both variants.
func TestAdminAndPredictShareListener(t *testing.T) {
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

	const clients = 2
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		client, err := DialPredict(addr, "Frontend")
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, name := range []string{"a", "b"} {
				for _, req := range reqs[name] {
					var got, want PredictReply
					if err := client.Predict(bg, req, &got); err != nil {
						errCh <- err
						return
					}
					if err := monos[name].Predict(bg, req, &want); err != nil {
						errCh <- err
						return
					}
					for j := range want.Probs {
						if math.Abs(float64(got.Probs[j]-want.Probs[j])) > 1e-4 {
							errCh <- errors.New("client diverged from monolith on " + name)
							return
						}
					}
				}
			}
		}()
	}
	hammering := make(chan struct{})
	go func() {
		wg.Wait()
		close(hammering)
	}()
	for {
		st, err := admin.Status(bg, "")
		if err != nil {
			t.Fatalf("admin beside predict traffic: %v", err)
		}
		if len(st) != 2 {
			t.Fatalf("admin status models = %d, want 2", len(st))
		}
		select {
		case <-hammering:
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}
			return
		default:
		}
	}
}

// TestAdminHostileFrames sends the admin endpoint frames AdminClient never
// would. Each must be answered with an error reply for its own id, and
// the connection must stay usable: the last frame is a valid Status.
func TestAdminHostileFrames(t *testing.T) {
	md, _, _ := multiFixture(t, BuildOptions{}, BuildOptions{})
	addr, err := md.ExportPredict("Frontend")
	if err != nil {
		t.Fatal(err)
	}
	w := dialRawWire(t, addr, "Frontend", wire.KindAdmin)
	status := func(body string) []byte {
		return wire.AppendAdminRequest(nil, adminOpStatus, 0, []byte(body))
	}
	for i, tc := range []struct {
		name    string
		payload []byte
		want    string
	}{
		{"unknown op", wire.AppendAdminRequest(nil, 77, 0, []byte(`{}`)), "unknown admin op 77"},
		{"short header", []byte{adminOpStatus, 0, 0}, "truncated frame"},
		{"empty payload", nil, "truncated frame"},
		{"truncated JSON", status(`{"APIVersion":1,"Mod`), "admin request body"},
		{"garbage body", status("\xff\x00\xfe{{"), "admin request body"},
		{"wrong JSON type", status(`{"APIVersion":"one"}`), "admin request body"},
		{"foreign version", status(`{"APIVersion":99}`), "version 99 not supported"},
		{"deploy of nothing", wire.AppendAdminRequest(nil, adminOpDeploy, 0, []byte(`{"APIVersion":1}`)), "model"},
	} {
		id := uint64(100 + i)
		w.send(id, tc.payload)
		gotID, st, msg := w.recv()
		if gotID != id || st != 1 || !strings.Contains(string(msg), tc.want) {
			t.Fatalf("%s: reply id %d status %d %q, want id %d status 1 containing %q",
				tc.name, gotID, st, msg, id, tc.want)
		}
	}
	w.send(7, status(`{"APIVersion":1,"FieldFromTheFuture":true}`))
	id, st, body := w.recv()
	if id != 7 || st != 0 {
		t.Fatalf("valid status after hostile frames: id %d status %d %q", id, st, body)
	}
	var reply AdminStatusReply
	if err := json.Unmarshal(body, &reply); err != nil || len(reply.Models) != 2 {
		t.Fatalf("status body %q: %v", body, err)
	}
	// The admin kind is only offered where a control plane is registered.
	ld, _ := md.Deployment("a")
	plain, err := ld.ExportPredict("Plain")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DialAdmin(plain, "Plain"); err == nil || !strings.Contains(err.Error(), "no admin endpoint") {
		t.Fatalf("admin dial to a frontend without a control plane = %v", err)
	}
}

// TestListenerDropsSilentAndForeignPeers pins the accept-side handshake
// bound: a peer that connects and says nothing, and one that opens with
// another protocol, are both closed by the server instead of holding a
// goroutine and a descriptor until shutdown, and the listener keeps
// serving real clients meanwhile.
func TestListenerDropsSilentAndForeignPeers(t *testing.T) {
	const bound = 100 * time.Millisecond
	srv, err := newRPCServer("127.0.0.1:0", bound)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.RegisterPredict("Slow", slowPredict{}); err != nil {
		t.Fatal(err)
	}
	for _, opening := range []string{"", "GET / HTTP/1.1\r\n", "\xf5ER"} {
		peer, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer peer.Close()
		if _, err := peer.Write([]byte(opening)); err != nil {
			t.Fatal(err)
		}
		// The only thing the server may do to this peer is hang up.
		if err := peer.SetReadDeadline(time.Now().Add(50 * bound)); err != nil {
			t.Fatal(err)
		}
		if n, err := peer.Read(make([]byte, 16)); n != 0 || err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("peer opening with %q: read %d bytes, err %v; want the server to close it", opening, n, err)
		}
	}
	client, err := DialPredict(srv.Addr(), "Slow")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	var reply PredictReply
	if err := client.Predict(bg, &PredictRequest{BatchSize: 1, DenseDim: 1, Dense: []float32{1}}, &reply); err != nil {
		t.Fatalf("real client beside dropped peers: %v", err)
	}
	// The handshake bound is dial-time only: an established connection may
	// idle past it.
	time.Sleep(2 * bound)
	if err := client.Predict(bg, &PredictRequest{BatchSize: 1, DenseDim: 1, Dense: []float32{1}}, &reply); err != nil {
		t.Fatalf("idle established connection was dropped: %v", err)
	}
}

// TestWireQuantPredictAccuracy builds a float32 TCP deployment and two
// with the int8-quantized gather encoding (pooled gathers, and rows mode
// behind the hot-row cache), and checks every prediction agrees within
// 1e-2 (the acceptance bound: per-row quantization error is <=
// maxabs/254 per element before the MLPs).
func TestWireQuantPredictAccuracy(t *testing.T) {
	cfg := liveConfig()
	m, stats, gen := buildFixture(t, cfg)
	bounds := []int64{50, 200, cfg.RowsPerTable}
	exact, err := BuildElastic(m, stats, bounds, BuildOptions{Transport: TransportTCP})
	if err != nil {
		t.Fatal(err)
	}
	defer exact.Close()
	for _, c := range []struct {
		name string
		opts BuildOptions
	}{
		{"pooled", BuildOptions{Transport: TransportTCP, WireQuant: true}},
		// Gather path v2 with the hot-row cache on: int8 frames,
		// rows-mode requests and the zero-copy AppendGatherRows reply
		// encoder all run on one wire.
		{"rows-cache", BuildOptions{Transport: TransportTCP, WireQuant: true, RowCacheBytes: 1 << 19}},
	} {
		t.Run(c.name, func(t *testing.T) {
			quant, err := BuildElastic(m.Clone(), stats, bounds, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer quant.Close()
			for i := 0; i < 24; i++ {
				req := makeRequest(cfg, gen, uint64(2000+i))
				var got, want PredictReply
				if err := quant.Predict(bg, req, &got); err != nil {
					t.Fatal(err)
				}
				if err := exact.Predict(bg, req, &want); err != nil {
					t.Fatal(err)
				}
				for j := range want.Probs {
					if math.Abs(float64(got.Probs[j]-want.Probs[j])) > 1e-2 {
						t.Fatalf("req %d input %d: quantized %v drifted from float32 %v", i, j, got.Probs[j], want.Probs[j])
					}
				}
			}
		})
	}
}

// TestGatherRowsOverTCP runs gather path v2 (rows-mode requests, shard-
// side zero-copy reply encoding) over the binary TCP transport at full
// float32 precision: raw rows ride the wire exactly, and the frontend
// re-expansion accumulates in the monolith's order, so every reply must
// match the monolith bit for bit. The 1-byte cache budget holds no row,
// so every row crosses the wire.
func TestGatherRowsOverTCP(t *testing.T) {
	cfg := liveConfig()
	cfg.NumTables = 2 // fewer sockets
	m, stats, gen := buildFixture(t, cfg)
	mono := NewMonolith(m.Clone())
	ld, err := BuildElastic(m, stats, []int64{50, cfg.RowsPerTable},
		BuildOptions{Transport: TransportTCP, RowCacheBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()
	for i := 0; i < 8; i++ {
		req := makeRequest(cfg, gen, uint64(4000+i))
		var got, want PredictReply
		if err := ld.Predict(bg, req, &got); err != nil {
			t.Fatal(err)
		}
		if err := mono.Predict(bg, req, &want); err != nil {
			t.Fatal(err)
		}
		for j := range want.Probs {
			if math.Float32bits(got.Probs[j]) != math.Float32bits(want.Probs[j]) {
				t.Fatalf("req %d input %d: rows-mode TCP %v != monolith %v", i, j, got.Probs[j], want.Probs[j])
			}
		}
	}
}

// slowPredict delays each reply by the duration in its model name's
// request Dense[0] (milliseconds) and echoes that value back, so a test
// can force out-of-order completion on one pipelined connection.
type slowPredict struct{}

func (slowPredict) Predict(ctx context.Context, req *PredictRequest, reply *PredictReply) error {
	delay := time.Duration(req.Dense[0]) * time.Millisecond
	select {
	case <-time.After(delay):
	case <-ctx.Done():
		return ctx.Err()
	}
	reply.Probs = []float32{req.Dense[0]}
	return nil
}

// TestWirePipelinedOutOfOrder issues concurrent calls through one binary
// connection with inverted delays: the last request finishes first, so
// replies come back out of submission order and each must still land on
// its own call.
func TestWirePipelinedOutOfOrder(t *testing.T) {
	srv, err := NewRPCServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.RegisterPredict("Slow", slowPredict{}); err != nil {
		t.Fatal(err)
	}
	client, err := DialPredict(srv.Addr(), "Slow")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	replies := make([]PredictReply, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := &PredictRequest{BatchSize: 1, DenseDim: 1, Dense: []float32{float32((n - i) * 10)}}
			errs[i] = client.Predict(bg, req, &replies[i])
		}()
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("call %d: %v", i, errs[i])
		}
		if want := float32((n - i) * 10); len(replies[i].Probs) != 1 || replies[i].Probs[0] != want {
			t.Fatalf("call %d got %v, want [%v] — replies crossed", i, replies[i].Probs, want)
		}
	}
}

// TestWireCancelAbandonsCall cancels a call mid-flight and checks the
// abandon-on-cancel contract: the caller gets ctx.Err() promptly, the
// late reply is discarded without racing anyone, and the connection stays
// usable for subsequent calls.
func TestWireCancelAbandonsCall(t *testing.T) {
	srv, err := NewRPCServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.RegisterPredict("Slow", slowPredict{}); err != nil {
		t.Fatal(err)
	}
	client, err := DialPredict(srv.Addr(), "Slow")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	ctx, cancel := context.WithTimeout(bg, 30*time.Millisecond)
	defer cancel()
	var abandoned PredictReply
	req := &PredictRequest{BatchSize: 1, DenseDim: 1, Dense: []float32{2000}}
	start := time.Now()
	err = client.Predict(ctx, req, &abandoned)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled call returned %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("cancelled call did not return promptly")
	}

	var ok PredictReply
	if err := client.Predict(bg, &PredictRequest{BatchSize: 1, DenseDim: 1, Dense: []float32{1}}, &ok); err != nil {
		t.Fatalf("connection unusable after abandoned call: %v", err)
	}
	if len(ok.Probs) != 1 || ok.Probs[0] != 1 {
		t.Fatalf("post-cancel reply = %v", ok.Probs)
	}
}

// TestWireOversizeCallFailsAlone encodes a request past wire.MaxFrame on a
// connection with another call in flight. The server answers an oversized
// frame by dropping the connection, so the client must refuse to send it:
// that call fails naming the limit, the in-flight call completes, and the
// connection stays usable.
func TestWireOversizeCallFailsAlone(t *testing.T) {
	srv, err := NewRPCServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.RegisterPredict("Slow", slowPredict{}); err != nil {
		t.Fatal(err)
	}
	client, err := DialPredict(srv.Addr(), "Slow")
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	inflight := make(chan error, 1)
	var slow PredictReply
	go func() {
		inflight <- client.Predict(bg, &PredictRequest{BatchSize: 1, DenseDim: 1, Dense: []float32{200}}, &slow)
	}()
	time.Sleep(20 * time.Millisecond) // let the slow call reach the server (not required for correctness)

	// A fresh untouched allocation stands in for the encoded frame: the
	// fixed client never reads or writes it.
	err = client.conn.Call(bg,
		func([]byte) []byte { return make([]byte, 12+wire.MaxFrame+1) },
		func([]byte) error { return errors.New("oversized call got a reply") })
	if err == nil || !strings.Contains(err.Error(), "exceeds MaxFrame") {
		t.Fatalf("oversized call = %v, want a MaxFrame error", err)
	}
	if err := <-inflight; err != nil {
		t.Fatalf("call in flight beside the oversized one: %v", err)
	}
	if len(slow.Probs) != 1 || slow.Probs[0] != 200 {
		t.Fatalf("in-flight reply = %v", slow.Probs)
	}
	var ok PredictReply
	if err := client.Predict(bg, &PredictRequest{BatchSize: 1, DenseDim: 1, Dense: []float32{1}}, &ok); err != nil {
		t.Fatalf("connection unusable after oversized call: %v", err)
	}
}

// TestPredictIndexOutsideU32OverTCP sends a negative id and one past
// 2^32 over the predict wire, whose u32 indices carry both as the
// out-of-range sentinel: the frontend answers each with its index range
// error, and the same connection keeps serving exact predictions.
func TestPredictIndexOutsideU32OverTCP(t *testing.T) {
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
	for _, bad := range []int64{-1, 1 << 32} {
		req := *reqs["a"][0]
		req.Tables = slices.Clone(req.Tables)
		req.Tables[1].Indices = slices.Clone(req.Tables[1].Indices)
		req.Tables[1].Indices[0] = bad
		var reply PredictReply
		err := client.Predict(bg, &req, &reply)
		var remote wire.ServerError
		if !errors.As(err, &remote) || !strings.Contains(err.Error(), "index -1 outside table 1") {
			t.Fatalf("id %d: Predict = %v, want the frontend's out-of-range error", bad, err)
		}
		for _, good := range reqs["a"][:3] {
			var got, want PredictReply
			if err := client.Predict(bg, good, &got); err != nil {
				t.Fatalf("after id %d: %v", bad, err)
			}
			if err := monos["a"].Predict(bg, good, &want); err != nil {
				t.Fatal(err)
			}
			for j := range want.Probs {
				if math.Abs(float64(got.Probs[j]-want.Probs[j])) > 1e-4 {
					t.Fatalf("after id %d: prob %d = %v, monolith %v", bad, j, got.Probs[j], want.Probs[j])
				}
			}
		}
	}
}
