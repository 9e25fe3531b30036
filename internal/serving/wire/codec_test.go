package wire

import (
	"math"
	"math/rand"
	"testing"
)

// randGatherRequest builds a request with rng-driven geometry.
func randGatherRequest(rng *rand.Rand, nIdx, nOff int) *GatherRequest {
	req := &GatherRequest{
		Table:    rng.Intn(64),
		Shard:    rng.Intn(64),
		Deadline: rng.Int63(),
	}
	for i := 0; i < nIdx; i++ {
		req.Indices = append(req.Indices, rng.Int63n(idxInvalid))
	}
	for i := 0; i < nOff; i++ {
		req.Offsets = append(req.Offsets, rng.Int31())
	}
	return req
}

func eqI64(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func eqI32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func eqF32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

func TestGatherRequestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct{ nIdx, nOff int }{
		{0, 0}, // empty batch
		{1, 1}, // minimal
		{257, 32},
		{4096, 512}, // max-batch-ish
	}
	for _, tc := range cases {
		req := randGatherRequest(rng, tc.nIdx, tc.nOff)
		if tc.nIdx == 0 {
			req.Deadline = 0 // zero-deadline case rides the empty batch
		}
		b := AppendGatherRequest(nil, req)
		var got GatherRequest
		if err := DecodeGatherRequest(b, &got); err != nil {
			t.Fatalf("decode (%d idx, %d off): %v", tc.nIdx, tc.nOff, err)
		}
		if got.Table != req.Table || got.Shard != req.Shard || got.Deadline != req.Deadline ||
			!eqI64(got.Indices, req.Indices) || !eqI32(got.Offsets, req.Offsets) {
			t.Fatalf("round trip mismatch: %+v != %+v", got, req)
		}
		// Any truncation must error, never panic.
		for cut := 0; cut < len(b); cut++ {
			var tr GatherRequest
			if err := DecodeGatherRequest(b[:cut], &tr); err == nil {
				t.Fatalf("truncated frame (%d of %d bytes) decoded without error", cut, len(b))
			}
		}
	}
}

// TestIndexOutsideU32DecodesInvalid pins the u32 index encoding's edge:
// every index outside [0, 2^32−1) rides the wire as the sentinel and
// decodes to −1, in a gather and in a predict request alike, while the
// largest valid index survives unchanged.
func TestIndexOutsideU32DecodesInvalid(t *testing.T) {
	const maxValid = 1<<32 - 2
	in := []int64{-1, 1<<32 - 1, 1 << 40, maxValid, 0, -1 << 62}
	want := []int64{-1, -1, -1, maxValid, 0, -1}
	b := AppendGatherRequest(nil, &GatherRequest{Indices: in, Offsets: []int32{0}})
	var g GatherRequest
	if err := DecodeGatherRequest(b, &g); err != nil {
		t.Fatal(err)
	}
	if !eqI64(g.Indices, want) {
		t.Fatalf("gather indices %v decoded to %v, want %v", in, g.Indices, want)
	}
	b = AppendPredictRequest(nil, &PredictRequest{
		BatchSize: 1, Tables: []TableBatch{{Indices: in, Offsets: []int32{0}}},
	})
	var p PredictRequest
	if err := DecodePredictRequest(b, &p); err != nil {
		t.Fatal(err)
	}
	if !eqI64(p.Tables[0].Indices, want) {
		t.Fatalf("predict indices %v decoded to %v, want %v", in, p.Tables[0].Indices, want)
	}
	// Four bytes per index: the frame holds the header, 6 indices and 1 offset.
	if got, wantLen := len(AppendGatherRequest(nil, &g)), 4+4+8+4+4+6*4+4; got != wantLen {
		t.Fatalf("gather request is %d bytes, want %d", got, wantLen)
	}
}

func TestGatherReplyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, tc := range []struct{ bs, dim int }{{0, 0}, {1, 1}, {32, 32}, {256, 64}} {
		rep := &GatherReply{BatchSize: tc.bs, Dim: tc.dim, Pooled: make([]float32, tc.bs*tc.dim)}
		for i := range rep.Pooled {
			rep.Pooled[i] = float32(rng.NormFloat64())
		}
		b := AppendGatherReply(nil, rep, false)
		var got GatherReply
		if err := DecodeGatherReply(b, &got); err != nil {
			t.Fatalf("decode %dx%d: %v", tc.bs, tc.dim, err)
		}
		if got.BatchSize != tc.bs || got.Dim != tc.dim || !eqF32(got.Pooled, rep.Pooled) {
			t.Fatalf("round trip mismatch at %dx%d", tc.bs, tc.dim)
		}
		for cut := 0; cut < len(b); cut++ {
			var tr GatherReply
			if err := DecodeGatherReply(b[:cut], &tr); err == nil {
				t.Fatalf("truncated reply (%d of %d bytes) decoded without error", cut, len(b))
			}
		}
	}
}

// TestGatherReplyQuantRoundTrip checks the int8 encoding's error bound:
// each value must come back within scale/2 = maxabs/254 of the original,
// and all-zero rows must stay exactly zero.
func TestGatherReplyQuantRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	bs, dim := 16, 32
	rep := &GatherReply{BatchSize: bs, Dim: dim, Pooled: make([]float32, bs*dim)}
	for i := range rep.Pooled {
		rep.Pooled[i] = float32(rng.NormFloat64())
	}
	for i := 0; i < dim; i++ {
		rep.Pooled[5*dim+i] = 0 // one all-zero row (scale 0 path)
	}
	b := AppendGatherReply(nil, rep, true)
	if want := 4 + 4 + 1 + bs*(4+dim); len(b) != want {
		t.Fatalf("quantized encoding is %d bytes, want %d", len(b), want)
	}
	var got GatherReply
	if err := DecodeGatherReply(b, &got); err != nil {
		t.Fatal(err)
	}
	for row := 0; row < bs; row++ {
		var maxAbs float64
		for _, v := range rep.Pooled[row*dim : (row+1)*dim] {
			if a := math.Abs(float64(v)); a > maxAbs {
				maxAbs = a
			}
		}
		bound := maxAbs / 254 * 1.0001 // half a quantization step
		for i := row * dim; i < (row+1)*dim; i++ {
			if diff := math.Abs(float64(got.Pooled[i] - rep.Pooled[i])); diff > bound {
				t.Fatalf("row %d elem %d: |%v - %v| = %v > %v",
					row, i%dim, got.Pooled[i], rep.Pooled[i], diff, bound)
			}
		}
	}
}

func randPredictRequest(rng *rand.Rand, model string, bs, denseDim, nTables, nIdx int) *PredictRequest {
	req := &PredictRequest{
		Model:     model,
		BatchSize: bs,
		DenseDim:  denseDim,
		Deadline:  rng.Int63(),
		Dense:     make([]float32, bs*denseDim),
	}
	for i := range req.Dense {
		req.Dense[i] = float32(rng.NormFloat64())
	}
	for t := 0; t < nTables; t++ {
		tb := TableBatch{Offsets: make([]int32, bs)}
		for i := 0; i < nIdx; i++ {
			tb.Indices = append(tb.Indices, rng.Int63n(1_000_000))
		}
		req.Tables = append(req.Tables, tb)
	}
	return req
}

func TestPredictRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cases := []*PredictRequest{
		randPredictRequest(rng, "", 1, 0, 0, 0),        // empty tables, no dense features
		randPredictRequest(rng, "rm1", 32, 13, 4, 80),  // RM1-shaped
		randPredictRequest(rng, "x", 512, 13, 26, 400), // max-batch-ish
	}
	cases[0].Deadline = 0
	for ci, req := range cases {
		b := AppendPredictRequest(nil, req)
		var got PredictRequest
		if err := DecodePredictRequest(b, &got); err != nil {
			t.Fatalf("case %d: %v", ci, err)
		}
		if got.Model != req.Model || got.BatchSize != req.BatchSize ||
			got.DenseDim != req.DenseDim || got.Deadline != req.Deadline ||
			!eqF32(got.Dense, req.Dense) || len(got.Tables) != len(req.Tables) {
			t.Fatalf("case %d: header/dense mismatch", ci)
		}
		for ti := range req.Tables {
			if !eqI64(got.Tables[ti].Indices, req.Tables[ti].Indices) ||
				!eqI32(got.Tables[ti].Offsets, req.Tables[ti].Offsets) {
				t.Fatalf("case %d table %d mismatch", ci, ti)
			}
		}
		for cut := 0; cut < len(b); cut++ {
			var tr PredictRequest
			if err := DecodePredictRequest(b[:cut], &tr); err == nil {
				t.Fatalf("case %d: truncated frame (%d of %d bytes) decoded without error", ci, cut, len(b))
			}
		}
	}

	rep := &PredictReply{Probs: []float32{0.1, 0.9, 0.5}}
	b := AppendPredictReply(nil, rep)
	var got PredictReply
	if err := DecodePredictReply(b, &got); err != nil {
		t.Fatal(err)
	}
	if !eqF32(got.Probs, rep.Probs) {
		t.Fatal("predict reply mismatch")
	}
	for cut := 0; cut < len(b); cut++ {
		var tr PredictReply
		if err := DecodePredictReply(b[:cut], &tr); err == nil {
			t.Fatalf("truncated reply (%d of %d bytes) decoded without error", cut, len(b))
		}
	}
}

// TestDecodeRejectsOversizedCounts feeds headers whose declared element
// counts exceed the bytes present: the decoders must error before
// allocating for them.
func TestDecodeRejectsOversizedCounts(t *testing.T) {
	// GatherRequest claiming 2^31 indices in a 30-byte frame.
	b := AppendGatherRequest(nil, &GatherRequest{})
	le.PutUint32(b[16:], 1<<31-1)
	var greq GatherRequest
	if err := DecodeGatherRequest(b, &greq); err == nil {
		t.Fatal("oversized index count decoded without error")
	}
	// GatherReply claiming a huge batch.
	rb := AppendGatherReply(nil, &GatherReply{BatchSize: 1, Dim: 1, Pooled: []float32{1}}, false)
	le.PutUint32(rb[0:], 1<<31-1)
	var grep GatherReply
	if err := DecodeGatherReply(rb, &grep); err == nil {
		t.Fatal("oversized batch decoded without error")
	}
	// Unknown gather-reply encoding byte.
	rb2 := AppendGatherReply(nil, &GatherReply{BatchSize: 1, Dim: 1, Pooled: []float32{1}}, false)
	rb2[8] = 0x7f
	if err := DecodeGatherReply(rb2, &grep); err == nil {
		t.Fatal("unknown encoding decoded without error")
	}
}
