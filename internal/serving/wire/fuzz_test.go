package wire

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzWireCodec drives every decoder with arbitrary bytes. Invariants:
//
//   - no decoder may panic, whatever the input;
//   - a successful decode means the frame was canonical (the strict
//     trailing-byte checks), so re-encoding must reproduce the input
//     byte-for-byte (float32 enc only — int8 requantization is lossy
//     when the stored scale doesn't match the row maximum);
//   - decoders must not allocate for element counts the frame cannot
//     hold, which the re-encode check enforces indirectly: a decoded
//     message's payload re-encodes to exactly len(input) bytes.
func FuzzWireCodec(f *testing.F) {
	f.Add(AppendGatherRequest(nil, &GatherRequest{
		Table: 2, Shard: 1, Deadline: 99,
		Indices: []int64{5, 9, 1 << 40}, Offsets: []int32{0, 2},
	}))
	f.Add(AppendGatherReply(nil, &GatherReply{
		BatchSize: 2, Dim: 3, Pooled: []float32{1, -2, 3, 0.5, 0, -0.25},
	}, false))
	f.Add(AppendGatherReply(nil, &GatherReply{
		BatchSize: 2, Dim: 2, Pooled: []float32{1, -2, 3, 4},
	}, true))
	// Rows-mode request (empty offsets — gather path v2) and a
	// zero-copy-encoded rows frame: the row-at-a-time append path must
	// produce the same canonical bytes as the whole-reply encoder.
	f.Add(AppendGatherRequest(nil, &GatherRequest{
		Table: 1, Shard: 3, Deadline: 42, Indices: []int64{0, 7, 7, 1 << 20},
	}))
	zc := AppendGatherReplyHeader(nil, 2, 2, EncFloat32)
	zc = AppendGatherRow(zc, []float32{0.25, -1}, EncFloat32)
	zc = AppendGatherRow(zc, []float32{3, 4}, EncFloat32)
	whole := AppendGatherReplyEnc(nil, &GatherReply{
		BatchSize: 2, Dim: 2, Pooled: []float32{0.25, -1, 3, 4},
	}, EncFloat32)
	if !bytes.Equal(zc, whole) {
		f.Fatalf("row-at-a-time reply %x != whole-reply encoding %x", zc, whole)
	}
	f.Add(zc)
	// An enc-2 frame (the retired half-precision layout: 2 bytes per
	// element) must hit the unknown-encoding error, not decode.
	enc2 := append(AppendGatherReplyHeader(nil, 1, 2, 2), 0x00, 0x3c, 0x00, 0xc0)
	var old GatherReply
	if err := DecodeGatherReply(enc2, &old); err == nil || !strings.Contains(err.Error(), "unknown gather-reply encoding") {
		f.Fatalf("enc-2 gather reply %x: got %v, want the unknown-encoding error", enc2, err)
	}
	f.Add(enc2)
	f.Add(AppendPredictRequest(nil, &PredictRequest{
		Model: "rm1", BatchSize: 2, DenseDim: 2, Deadline: 7,
		Dense: []float32{1, 2, 3, 4},
		Tables: []TableBatch{
			{Indices: []int64{1, 2, 3}, Offsets: []int32{0, 2}},
			{Indices: []int64{9}, Offsets: []int32{0, 1}},
		},
	}))
	f.Add(AppendPredictReply(nil, &PredictReply{Probs: []float32{0.25, 0.75}}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		var greq GatherRequest
		if err := DecodeGatherRequest(data, &greq); err == nil {
			if out := AppendGatherRequest(nil, &greq); !bytes.Equal(out, data) {
				t.Fatalf("GatherRequest not canonical: %x -> %x", data, out)
			}
			FreeGatherRequest(&greq)
		}

		var grep GatherReply
		if err := DecodeGatherReply(data, &grep); err == nil {
			if len(data) >= 9 && data[8] == EncFloat32 {
				if out := AppendGatherReplyEnc(nil, &grep, data[8]); !bytes.Equal(out, data) {
					t.Fatalf("GatherReply not canonical: %x -> %x", data, out)
				}
			}
			FreeGatherReply(&grep)
		}

		var preq PredictRequest
		if err := DecodePredictRequest(data, &preq); err == nil {
			if out := AppendPredictRequest(nil, &preq); !bytes.Equal(out, data) {
				t.Fatalf("PredictRequest not canonical: %x -> %x", data, out)
			}
			FreePredictRequest(&preq)
		}

		var prep PredictReply
		if err := DecodePredictReply(data, &prep); err == nil {
			if out := AppendPredictReply(nil, &prep); !bytes.Equal(out, data) {
				t.Fatalf("PredictReply not canonical: %x -> %x", data, out)
			}
		}
	})
}

// FuzzAdminFrame drives the admin request decoder with arbitrary bytes.
// It must never panic; it must never allocate — the body it returns is
// the tail of the input, so a decoded request can never be larger than
// the frame that carried it; and anything it accepts must re-encode to
// the input byte-for-byte.
func FuzzAdminFrame(f *testing.F) {
	f.Add(AppendAdminRequest(nil, 1, 0, []byte(`{"APIVersion":1,"Name":"c"}`)))
	f.Add(AppendAdminRequest(nil, 3, 1<<62, nil))
	f.Add(AppendAdminRequest(nil, 0xff, -1, []byte{0xff, 0x00}))
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 0, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, data []byte) {
		op, deadline, body, err := DecodeAdminRequest(data)
		if err != nil {
			if len(data) >= adminHeaderLen {
				t.Fatalf("rejected a %d-byte frame: %v", len(data), err)
			}
			return
		}
		if len(body) != len(data)-adminHeaderLen || (len(body) > 0 && &body[0] != &data[adminHeaderLen]) {
			t.Fatalf("body (%d bytes) is not the tail of the %d-byte frame", len(body), len(data))
		}
		if out := AppendAdminRequest(nil, op, deadline, body); !bytes.Equal(out, data) {
			t.Fatalf("AdminRequest not canonical: %x -> %x", data, out)
		}
	})
}
