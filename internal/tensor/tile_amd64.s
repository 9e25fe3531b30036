#include "textflag.h"

// func tile4x8(dst []float32, ldd int, w, panel, b []float32, relu bool)
//
// One lane per sample: X0/X1 hold output row 0's accumulators for samples
// 0-3/4-7, X2/X3 row 1's, X4/X5 row 2's, X6/X7 row 3's. Per column the two
// panel vectors (the eight samples' inputs) are loaded once and each row's
// weight is broadcast into all four lanes, then a separate MULPS and ADDPS
// fold the product into the accumulators — the scalar kernel's multiply,
// add and ascending column order, per lane. After the bias and clamp, two
// 4x4 transposes turn row-per-register into sample-per-register, so each
// sample's four outputs leave in one unaligned store.
TEXT ·tile4x8(SB), NOSPLIT, $0-105
	MOVQ dst_base+0(FP), DI
	MOVQ ldd+24(FP), R8
	SHLQ $2, R8                   // dst row stride in bytes
	MOVQ w_base+32(FP), R10       // weight row 0
	MOVQ panel_base+56(FP), SI
	MOVQ panel_len+64(FP), DX
	SHRQ $3, DX                   // n = len(panel)/8 columns
	SHLQ $2, DX                   // weight row stride = loop end, in bytes
	LEAQ (R10)(DX*1), R11         // weight row 1
	LEAQ (R11)(DX*1), R12         // weight row 2
	LEAQ (R12)(DX*1), R13         // weight row 3

	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	XORQ  CX, CX                  // column byte offset into each weight row
	TESTQ DX, DX
	JZ    bias

loop:
	MOVUPS (SI), X8
	MOVUPS 16(SI), X9

	MOVSS  (R10)(CX*1), X10
	SHUFPS $0, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	MULPS  X9, X11
	ADDPS  X10, X0
	ADDPS  X11, X1

	MOVSS  (R11)(CX*1), X12
	SHUFPS $0, X12, X12
	MOVAPS X12, X13
	MULPS  X8, X12
	MULPS  X9, X13
	ADDPS  X12, X2
	ADDPS  X13, X3

	MOVSS  (R12)(CX*1), X14
	SHUFPS $0, X14, X14
	MOVAPS X14, X15
	MULPS  X8, X14
	MULPS  X9, X15
	ADDPS  X14, X4
	ADDPS  X15, X5

	MOVSS  (R13)(CX*1), X10
	SHUFPS $0, X10, X10
	MOVAPS X10, X11
	MULPS  X8, X10
	MULPS  X9, X11
	ADDPS  X10, X6
	ADDPS  X11, X7

	ADDQ $32, SI
	ADDQ $4, CX
	CMPQ CX, DX
	JLT  loop

bias:
	MOVQ   b_base+80(FP), BX
	MOVSS  (BX), X10
	SHUFPS $0, X10, X10
	ADDPS  X10, X0
	ADDPS  X10, X1
	MOVSS  4(BX), X10
	SHUFPS $0, X10, X10
	ADDPS  X10, X2
	ADDPS  X10, X3
	MOVSS  8(BX), X10
	SHUFPS $0, X10, X10
	ADDPS  X10, X4
	ADDPS  X10, X5
	MOVSS  12(BX), X10
	SHUFPS $0, X10, X10
	ADDPS  X10, X6
	ADDPS  X10, X7

	MOVB  relu+104(FP), AX
	TESTB AX, AX
	JZ    store

	// MAXPS src, dst keeps dst only when dst > src, otherwise (src larger,
	// equal, or either NaN) it yields src. With dst = +0 and src = a that
	// is exactly "a < 0 ? 0 : a": NaN, +Inf and -0 pass through.
	XORPS  X15, X15
	MOVAPS X15, X8
	MAXPS  X0, X8
	MOVAPS X8, X0
	MOVAPS X15, X8
	MAXPS  X1, X8
	MOVAPS X8, X1
	MOVAPS X15, X8
	MAXPS  X2, X8
	MOVAPS X8, X2
	MOVAPS X15, X8
	MAXPS  X3, X8
	MOVAPS X8, X3
	MOVAPS X15, X8
	MAXPS  X4, X8
	MOVAPS X8, X4
	MOVAPS X15, X8
	MAXPS  X5, X8
	MOVAPS X8, X5
	MOVAPS X15, X8
	MAXPS  X6, X8
	MOVAPS X8, X6
	MOVAPS X15, X8
	MAXPS  X7, X8
	MOVAPS X8, X7

store:
	// Samples 0-3 from rows X0, X2, X4, X6.
	MOVAPS   X0, X8
	UNPCKLPS X2, X8               // r0s0 r1s0 r0s1 r1s1
	UNPCKHPS X2, X0               // r0s2 r1s2 r0s3 r1s3
	MOVAPS   X4, X9
	UNPCKLPS X6, X9               // r2s0 r3s0 r2s1 r3s1
	UNPCKHPS X6, X4               // r2s2 r3s2 r2s3 r3s3
	MOVAPS   X8, X10
	MOVLHPS  X9, X10              // sample 0
	MOVHLPS  X8, X9               // sample 1
	MOVAPS   X0, X11
	MOVLHPS  X4, X11              // sample 2
	MOVHLPS  X0, X4               // sample 3
	LEAQ     (DI)(R8*2), R9
	MOVUPS   X10, (DI)
	MOVUPS   X9, (DI)(R8*1)
	MOVUPS   X11, (R9)
	MOVUPS   X4, (R9)(R8*1)

	// Samples 4-7 from rows X1, X3, X5, X7.
	LEAQ     (R9)(R8*2), DI
	MOVAPS   X1, X8
	UNPCKLPS X3, X8
	UNPCKHPS X3, X1
	MOVAPS   X5, X9
	UNPCKLPS X7, X9
	UNPCKHPS X7, X5
	MOVAPS   X8, X10
	MOVLHPS  X9, X10
	MOVHLPS  X8, X9
	MOVAPS   X1, X11
	MOVLHPS  X5, X11
	MOVHLPS  X1, X5
	LEAQ     (DI)(R8*2), R9
	MOVUPS   X10, (DI)
	MOVUPS   X9, (DI)(R8*1)
	MOVUPS   X11, (R9)
	MOVUPS   X5, (R9)(R8*1)
	RET
