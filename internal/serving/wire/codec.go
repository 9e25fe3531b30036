package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// This file is the codec proper: append-style encoders and pooled
// decoders for the four serving messages (and the admin request header,
// whose body is opaque here). Everything is little-endian
// with fixed headers followed by raw element arrays — no reflection, no
// per-field tags — so encode/decode cost is a handful of bounds checks
// plus bulk 4/8-byte loads and stores. Decoders validate every count
// against the bytes actually present before allocating, so a malformed
// frame errors without over-allocating; decoded slices are drawn from the
// shared pools (pool.go) and handed to the caller, who recycles them via
// the Free helpers once merged.
//
// Payload layouts (after the transport's frame header):
//
//	GatherRequest  = u32 table | u32 shard | u64 deadline |
//	                 u32 nIdx | u32 nOff | nIdx × u64 | nOff × u32
//	GatherReply    = u32 batchSize | u32 dim | u8 enc | rows
//	                 enc 0: batchSize*dim × f32 (row-major)
//	                 enc 1: per row, f32 scale | dim × i8
//	PredictRequest = u16 modelLen | model | u32 batchSize | u32 denseDim |
//	                 u64 deadline | u32 nDense | u32 nTables |
//	                 nDense × f32 | per table (u32 nIdx | u32 nOff |
//	                 nIdx × u64 | nOff × u32)
//	PredictReply   = u32 n | n × f32
//	AdminRequest   = u8 op | i64 deadline (unix ns, 0 = none) | body
//	AdminReply     = body

// errShort reports a frame that ended before its declared contents.
var errShort = errors.New("wire: truncated frame")

var le = binary.LittleEndian

// reader is a bounds-checked cursor over one frame body.
type reader struct {
	data []byte
	off  int
}

func (r *reader) rem() int { return len(r.data) - r.off }

func (r *reader) u8() (byte, error) {
	if r.rem() < 1 {
		return 0, errShort
	}
	v := r.data[r.off]
	r.off++
	return v, nil
}

func (r *reader) u16() (int, error) {
	if r.rem() < 2 {
		return 0, errShort
	}
	v := le.Uint16(r.data[r.off:])
	r.off += 2
	return int(v), nil
}

func (r *reader) u32() (int, error) {
	if r.rem() < 4 {
		return 0, errShort
	}
	v := le.Uint32(r.data[r.off:])
	r.off += 4
	return int(v), nil
}

func (r *reader) u64() (uint64, error) {
	if r.rem() < 8 {
		return 0, errShort
	}
	v := le.Uint64(r.data[r.off:])
	r.off += 8
	return v, nil
}

// count reads a u32 element count and verifies the frame still holds at
// least n*size bytes before the caller allocates for it. size ≥ 1, so n
// is bounded by the frame length and n*size cannot overflow.
func (r *reader) count(size int) (int, error) {
	n, err := r.u32()
	if err != nil {
		return 0, err
	}
	if n > r.rem() || n*size > r.rem() {
		return 0, errShort
	}
	return n, nil
}

// bytes consumes n raw bytes (caller has already validated n).
func (r *reader) bytes(n int) []byte {
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func appendU32(b []byte, v int) []byte     { return le.AppendUint32(b, uint32(v)) }
func appendU64(b []byte, v uint64) []byte  { return le.AppendUint64(b, v) }
func appendF32(b []byte, v float32) []byte { return le.AppendUint32(b, math.Float32bits(v)) }

func appendFloat32s(b []byte, src []float32) []byte {
	for _, v := range src {
		b = le.AppendUint32(b, math.Float32bits(v))
	}
	return b
}

func appendInt64s(b []byte, src []int64) []byte {
	for _, v := range src {
		b = le.AppendUint64(b, uint64(v))
	}
	return b
}

func appendInt32s(b []byte, src []int32) []byte {
	for _, v := range src {
		b = le.AppendUint32(b, uint32(v))
	}
	return b
}

func decodeFloat32s(data []byte, dst []float32) {
	for i := range dst {
		dst[i] = math.Float32frombits(le.Uint32(data[4*i:]))
	}
}

func decodeInt64s(data []byte, dst []int64) {
	for i := range dst {
		dst[i] = int64(le.Uint64(data[8*i:]))
	}
}

func decodeInt32s(data []byte, dst []int32) {
	for i := range dst {
		dst[i] = int32(le.Uint32(data[4*i:]))
	}
}

// AppendGatherRequest encodes req onto b and returns the extended buffer.
func AppendGatherRequest(b []byte, req *GatherRequest) []byte {
	b = appendU32(b, req.Table)
	b = appendU32(b, req.Shard)
	b = appendU64(b, uint64(req.Deadline))
	b = appendU32(b, len(req.Indices))
	b = appendU32(b, len(req.Offsets))
	b = appendInt64s(b, req.Indices)
	b = appendInt32s(b, req.Offsets)
	return b
}

// DecodeGatherRequest decodes a gather request, drawing the index and
// offset slices from the shared pools (recycle with FreeGatherRequest).
func DecodeGatherRequest(data []byte, req *GatherRequest) error {
	r := reader{data: data}
	var err error
	if req.Table, err = r.u32(); err != nil {
		return err
	}
	if req.Shard, err = r.u32(); err != nil {
		return err
	}
	dl, err := r.u64()
	if err != nil {
		return err
	}
	req.Deadline = int64(dl)
	nIdx, err := r.count(8)
	if err != nil {
		return err
	}
	// The offset count is declared before the index payload, so validate
	// it against the bytes remaining after the indices.
	nOff, err := r.u32()
	if err != nil {
		return err
	}
	if nIdx*8+nOff*4 != r.rem() || nOff > r.rem() {
		return errShort
	}
	req.Indices = GetInt64(nIdx)
	decodeInt64s(r.bytes(nIdx*8), req.Indices)
	req.Offsets = GetInt32(nOff)
	decodeInt32s(r.bytes(nOff*4), req.Offsets)
	return nil
}

// AppendGatherReply encodes rep onto b. With quant set the rows ride
// int8-quantized (one float32 scale per row, value = scale * int8): 4x
// smaller for dim 32, at ≤ 1/254 of each row's max-magnitude error. The
// reply is self-describing (the encoding byte), so decoders need no
// negotiation state.
func AppendGatherReply(b []byte, rep *GatherReply, quant bool) []byte {
	enc := EncFloat32
	if quant {
		enc = EncInt8
	}
	return AppendGatherReplyEnc(b, rep, enc)
}

// AppendGatherReplyEnc encodes rep onto b with an explicit row encoding
// (EncFloat32 or EncInt8).
func AppendGatherReplyEnc(b []byte, rep *GatherReply, enc byte) []byte {
	b = AppendGatherReplyHeader(b, rep.BatchSize, rep.Dim, enc)
	if enc == EncFloat32 {
		return appendFloat32s(b, rep.Pooled)
	}
	dim := rep.Dim
	for row := 0; row+dim <= len(rep.Pooled); row += dim {
		b = AppendGatherRow(b, rep.Pooled[row:row+dim], enc)
	}
	return b
}

// AppendGatherReplyHeader opens a gather-reply payload: the fixed header
// before any rows. Zero-copy servers (RowSource) call this once, then
// AppendGatherRow per row, encoding straight from storage into the frame.
func AppendGatherReplyHeader(b []byte, batchSize, dim int, enc byte) []byte {
	b = appendU32(b, batchSize)
	b = appendU32(b, dim)
	return append(b, enc)
}

// AppendGatherRow encodes one row after an AppendGatherReplyHeader.
func AppendGatherRow(b []byte, row []float32, enc byte) []byte {
	switch enc {
	case EncFloat32:
		return appendFloat32s(b, row)
	default: // EncInt8
		var maxAbs float32
		for _, v := range row {
			if a := float32(math.Abs(float64(v))); a > maxAbs {
				maxAbs = a
			}
		}
		scale := maxAbs / 127
		b = appendF32(b, scale)
		if scale == 0 {
			for range row {
				b = append(b, 0)
			}
			return b
		}
		inv := 1 / scale
		for _, v := range row {
			q := int32(math.Round(float64(v) * float64(inv)))
			if q > 127 {
				q = 127
			} else if q < -127 {
				q = -127
			}
			b = append(b, byte(int8(q)))
		}
		return b
	}
}

// DecodeGatherReply decodes a gather reply, materializing float32 rows
// from either encoding into a pooled buffer (recycle with
// FreeGatherReply or PutFloat32 after merging).
func DecodeGatherReply(data []byte, rep *GatherReply) error {
	r := reader{data: data}
	var err error
	if rep.BatchSize, err = r.u32(); err != nil {
		return err
	}
	if rep.Dim, err = r.u32(); err != nil {
		return err
	}
	enc, err := r.u8()
	if err != nil {
		return err
	}
	bs, dim := rep.BatchSize, rep.Dim
	if bs > r.rem() || dim > r.rem() {
		return errShort
	}
	switch enc {
	case EncFloat32:
		if bs*dim*4 != r.rem() {
			return errShort
		}
		rep.Pooled = GetFloat32(bs * dim)
		decodeFloat32s(r.bytes(bs*dim*4), rep.Pooled)
	case EncInt8:
		if bs*(dim+4) != r.rem() {
			return errShort
		}
		rep.Pooled = GetFloat32(bs * dim)
		for row := 0; row < bs; row++ {
			scale := math.Float32frombits(le.Uint32(r.bytes(4)))
			q := r.bytes(dim)
			dst := rep.Pooled[row*dim : (row+1)*dim]
			for i := range dst {
				dst[i] = scale * float32(int8(q[i]))
			}
		}
	default:
		return fmt.Errorf("wire: unknown gather-reply encoding %d", enc)
	}
	return nil
}

// AppendPredictRequest encodes req onto b.
func AppendPredictRequest(b []byte, req *PredictRequest) []byte {
	b = le.AppendUint16(b, uint16(len(req.Model)))
	b = append(b, req.Model...)
	b = appendU32(b, req.BatchSize)
	b = appendU32(b, req.DenseDim)
	b = appendU64(b, uint64(req.Deadline))
	b = appendU32(b, len(req.Dense))
	b = appendU32(b, len(req.Tables))
	b = appendFloat32s(b, req.Dense)
	for i := range req.Tables {
		tb := &req.Tables[i]
		b = appendU32(b, len(tb.Indices))
		b = appendU32(b, len(tb.Offsets))
		b = appendInt64s(b, tb.Indices)
		b = appendInt32s(b, tb.Offsets)
	}
	return b
}

// DecodePredictRequest decodes a predict request, drawing every array
// from the shared pools (recycle with FreePredictRequest).
func DecodePredictRequest(data []byte, req *PredictRequest) error {
	r := reader{data: data}
	nameLen, err := r.u16()
	if err != nil {
		return err
	}
	if nameLen > r.rem() {
		return errShort
	}
	req.Model = string(r.bytes(nameLen))
	if req.BatchSize, err = r.u32(); err != nil {
		return err
	}
	if req.DenseDim, err = r.u32(); err != nil {
		return err
	}
	dl, err := r.u64()
	if err != nil {
		return err
	}
	req.Deadline = int64(dl)
	nDense, err := r.count(4)
	if err != nil {
		return err
	}
	nTables, err := r.u32()
	if err != nil {
		return err
	}
	// Each table carries at least its two u32 counts.
	if nTables > r.rem() || nDense*4+nTables*8 > r.rem() {
		return errShort
	}
	req.Dense = GetFloat32(nDense)
	decodeFloat32s(r.bytes(nDense*4), req.Dense)
	req.Tables = tablePool.get(nTables)
	for t := 0; t < nTables; t++ {
		nIdx, err := r.count(8)
		if err != nil {
			req.Tables = req.Tables[:t]
			FreePredictRequest(req)
			return err
		}
		nOff, err := r.u32()
		if err != nil || nOff > r.rem() || nIdx*8+nOff*4 > r.rem() {
			req.Tables = req.Tables[:t]
			FreePredictRequest(req)
			if err == nil {
				err = errShort
			}
			return err
		}
		tb := &req.Tables[t]
		tb.Indices = GetInt64(nIdx)
		decodeInt64s(r.bytes(nIdx*8), tb.Indices)
		tb.Offsets = GetInt32(nOff)
		decodeInt32s(r.bytes(nOff*4), tb.Offsets)
	}
	if r.rem() != 0 {
		FreePredictRequest(req)
		return errShort
	}
	return nil
}

// AppendPredictReply encodes rep onto b.
func AppendPredictReply(b []byte, rep *PredictReply) []byte {
	b = appendU32(b, len(rep.Probs))
	return appendFloat32s(b, rep.Probs)
}

// DecodePredictReply decodes a predict reply into a freshly allocated
// Probs slice (replies escape to callers, so they are not pooled).
func DecodePredictReply(data []byte, rep *PredictReply) error {
	r := reader{data: data}
	n, err := r.count(4)
	if err != nil {
		return err
	}
	if n*4 != r.rem() {
		return errShort
	}
	rep.Probs = make([]float32, n)
	decodeFloat32s(r.bytes(n*4), rep.Probs)
	return nil
}

// adminHeaderLen is the fixed part of an admin request: op + deadline.
const adminHeaderLen = 1 + 8

// AppendAdminRequest appends an admin request: the op code, the caller's
// deadline (unix nanoseconds, 0 = none) and the opaque body.
func AppendAdminRequest(b []byte, op byte, deadline int64, body []byte) []byte {
	b = append(b, op)
	b = appendU64(b, uint64(deadline))
	return append(b, body...)
}

// DecodeAdminRequest splits an admin request. body aliases data — nothing
// is allocated — so a caller that outlives data's buffer must copy it.
func DecodeAdminRequest(data []byte) (op byte, deadline int64, body []byte, err error) {
	if len(data) < adminHeaderLen {
		return 0, 0, nil, errShort
	}
	return data[0], int64(le.Uint64(data[1:])), data[adminHeaderLen:], nil
}
