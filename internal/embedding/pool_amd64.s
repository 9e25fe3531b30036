#include "textflag.h"

// func poolCols32(dst, data []float32, dim int, indices []int64)
//
// One 32-float chunk of the bag's sum at a time: X0-X7 hold columns
// c..c+31 for the whole bag, starting from +0. Per index, in bag order,
// the row's chunk is loaded into X8-X15 and added with the accumulator as
// the destination — each column's scalar add order, per lane — and the
// two cache lines of the same chunk of the row eight positions ahead are
// prefetched while that row's index is inside the slice. The chunk is
// stored to dst once, so dst's old contents are never read.
TEXT ·poolCols32(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), R8
	SHRQ $5, R8                   // chunks
	JZ   done
	MOVQ data_base+24(FP), SI     // chunk c of row 0
	MOVQ dim+48(FP), DX
	SHLQ $2, DX                   // row stride in bytes
	MOVQ indices_base+56(FP), R9
	MOVQ indices_len+64(FP), R10
	LEAQ -8(R10), R11             // positions i < n-8 have a row 8 ahead

chunk:
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	XORQ  CX, CX                  // bag position
	CMPQ  CX, R11
	JGE   tail

ahead:
	MOVQ       64(R9)(CX*8), AX   // indices[i+8]
	IMULQ      DX, AX
	PREFETCHT0 (SI)(AX*1)
	PREFETCHT0 64(SI)(AX*1)
	MOVQ       (R9)(CX*8), BX
	IMULQ      DX, BX
	ADDQ       SI, BX
	MOVUPS     (BX), X8
	MOVUPS     16(BX), X9
	MOVUPS     32(BX), X10
	MOVUPS     48(BX), X11
	MOVUPS     64(BX), X12
	MOVUPS     80(BX), X13
	MOVUPS     96(BX), X14
	MOVUPS     112(BX), X15
	ADDPS      X8, X0
	ADDPS      X9, X1
	ADDPS      X10, X2
	ADDPS      X11, X3
	ADDPS      X12, X4
	ADDPS      X13, X5
	ADDPS      X14, X6
	ADDPS      X15, X7
	INCQ       CX
	CMPQ       CX, R11
	JLT        ahead

tail:
	CMPQ CX, R10
	JGE  store

last:
	MOVQ   (R9)(CX*8), BX
	IMULQ  DX, BX
	ADDQ   SI, BX
	MOVUPS (BX), X8
	MOVUPS 16(BX), X9
	MOVUPS 32(BX), X10
	MOVUPS 48(BX), X11
	MOVUPS 64(BX), X12
	MOVUPS 80(BX), X13
	MOVUPS 96(BX), X14
	MOVUPS 112(BX), X15
	ADDPS  X8, X0
	ADDPS  X9, X1
	ADDPS  X10, X2
	ADDPS  X11, X3
	ADDPS  X12, X4
	ADDPS  X13, X5
	ADDPS  X14, X6
	ADDPS  X15, X7
	INCQ   CX
	CMPQ   CX, R10
	JLT    last

store:
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	MOVUPS X4, 64(DI)
	MOVUPS X5, 80(DI)
	MOVUPS X6, 96(DI)
	MOVUPS X7, 112(DI)
	ADDQ   $128, DI
	ADDQ   $128, SI
	DECQ   R8
	JNZ    chunk

done:
	RET
