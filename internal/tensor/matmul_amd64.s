//go:build !purego

#include "textflag.h"

// Bit-exact vector lanes for matMulRange. Each ymm lane is a different
// output column, so a lane's sum is the Go body's sum for that column:
// it starts at +0 and takes, for p ascending, the product x[p]·w[p][j]
// rounded to float32 and then added and rounded again. That is a
// separate VMULPS and VADDPS per term; a fused multiply-add would skip
// the product's rounding, so this file uses none.
//
// Operand order matters only when two NaNs meet: x86 then returns the
// first source's payload. The Go body's compiled code multiplies with
// the weight as the first source and adds with the running sum as the
// first source, so the lanes do the same; the weight is loaded into a
// register first, because VMULPS takes its memory operand as the second
// source. Each body ends with VZEROUPPER, so no dirty upper ymm state
// slows the SSE code that runs after it.

// func matMulRowAVX2(d, x, w []float32, m int)
TEXT ·matMulRowAVX2(SB), NOSPLIT, $0-80
	MOVQ d_base+0(FP), DI
	MOVQ d_len+8(FP), CX   // columns left, a multiple of 8
	MOVQ x_base+24(FP), SI
	MOVQ x_len+32(FP), DX  // k, the terms per sum
	MOVQ w_base+48(FP), BX // w[0][j] for the next column j
	MOVQ m+72(FP), R8
	SHLQ $2, R8            // weight row stride in bytes

cols32:
	// 32 columns at a time in four accumulators, Y0–Y3.
	CMPQ   CX, $32
	JLT    cols8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	MOVQ   SI, R9
	MOVQ   BX, R10
	MOVQ   DX, R11
	TESTQ  R11, R11
	JZ     store32

terms32:
	VBROADCASTSS (R9), Y4
	VMOVUPS      (R10), Y5
	VMOVUPS      32(R10), Y6
	VMOVUPS      64(R10), Y7
	VMOVUPS      96(R10), Y8
	VMULPS       Y4, Y5, Y5 // Y5 = w·x, the weight first
	VMULPS       Y4, Y6, Y6
	VMULPS       Y4, Y7, Y7
	VMULPS       Y4, Y8, Y8
	VADDPS       Y5, Y0, Y0 // Y0 = sum + w·x, the sum first
	VADDPS       Y6, Y1, Y1
	VADDPS       Y7, Y2, Y2
	VADDPS       Y8, Y3, Y3
	ADDQ         $4, R9
	ADDQ         R8, R10
	DECQ         R11
	JNZ          terms32

store32:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, BX
	SUBQ    $32, CX
	JMP     cols32

cols8:
	// The remaining runs of 8 columns, one accumulator each.
	TESTQ  CX, CX
	JZ     done
	VXORPS Y0, Y0, Y0
	MOVQ   SI, R9
	MOVQ   BX, R10
	MOVQ   DX, R11
	TESTQ  R11, R11
	JZ     store8

terms8:
	VBROADCASTSS (R9), Y4
	VMOVUPS      (R10), Y5
	VMULPS       Y4, Y5, Y5
	VADDPS       Y5, Y0, Y0
	ADDQ         $4, R9
	ADDQ         R8, R10
	DECQ         R11
	JNZ          terms8

store8:
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, BX
	SUBQ    $8, CX
	JMP     cols8

done:
	VZEROUPPER
	RET

// func matMulRows2AVX2(d0, d1, x0, x1, w []float32, m int)
//
// Two rows at once: each weight vector is loaded once and multiplied by
// both rows' x[p], each product into its own row's accumulator. A lane's
// sum is still one column of one row, taking the same terms in the same
// order with the same operand order as matMulRowAVX2.
TEXT ·matMulRows2AVX2(SB), NOSPLIT, $0-128
	MOVQ d0_base+0(FP), DI
	MOVQ d1_base+24(FP), R12
	MOVQ d0_len+8(FP), CX  // columns left, a multiple of 8
	MOVQ x0_base+48(FP), SI
	MOVQ x1_base+72(FP), R13
	MOVQ x0_len+56(FP), DX // k, the terms per sum
	MOVQ w_base+96(FP), BX // w[0][j] for the next column j
	MOVQ m+120(FP), R8
	SHLQ $2, R8            // weight row stride in bytes

rcols32:
	// 2 rows × 32 columns in eight accumulators: Y0–Y3 row 0, Y4–Y7
	// row 1; Y8 and Y9 hold the rows' x[p].
	CMPQ   CX, $32
	JLT    rcols16
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	MOVQ   SI, R9
	MOVQ   R13, AX
	MOVQ   BX, R10
	MOVQ   DX, R11
	TESTQ  R11, R11
	JZ     rstore32

rterms32:
	VBROADCASTSS (R9), Y8
	VBROADCASTSS (AX), Y9
	VMOVUPS      (R10), Y10
	VMOVUPS      32(R10), Y12
	VMULPS       Y8, Y10, Y11 // Y11 = w·x0, the weight first
	VMULPS       Y9, Y10, Y10 // Y10 = w·x1
	VMULPS       Y8, Y12, Y13
	VMULPS       Y9, Y12, Y12
	VADDPS       Y11, Y0, Y0  // Y0 = sum + w·x0, the sum first
	VADDPS       Y10, Y4, Y4
	VADDPS       Y13, Y1, Y1
	VADDPS       Y12, Y5, Y5
	VMOVUPS      64(R10), Y10
	VMOVUPS      96(R10), Y12
	VMULPS       Y8, Y10, Y11
	VMULPS       Y9, Y10, Y10
	VMULPS       Y8, Y12, Y13
	VMULPS       Y9, Y12, Y12
	VADDPS       Y11, Y2, Y2
	VADDPS       Y10, Y6, Y6
	VADDPS       Y13, Y3, Y3
	VADDPS       Y12, Y7, Y7
	ADDQ         $4, R9
	ADDQ         $4, AX
	ADDQ         R8, R10
	DECQ         R11
	JNZ          rterms32

rstore32:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, (R12)
	VMOVUPS Y5, 32(R12)
	VMOVUPS Y6, 64(R12)
	VMOVUPS Y7, 96(R12)
	ADDQ    $128, DI
	ADDQ    $128, R12
	ADDQ    $128, BX
	SUBQ    $32, CX
	JMP     rcols32

rcols16:
	// At most one 2 × 16 tier: Y0–Y1 row 0, Y4–Y5 row 1.
	CMPQ   CX, $16
	JLT    rcols8
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	MOVQ   SI, R9
	MOVQ   R13, AX
	MOVQ   BX, R10
	MOVQ   DX, R11
	TESTQ  R11, R11
	JZ     rstore16

rterms16:
	VBROADCASTSS (R9), Y8
	VBROADCASTSS (AX), Y9
	VMOVUPS      (R10), Y10
	VMOVUPS      32(R10), Y12
	VMULPS       Y8, Y10, Y11
	VMULPS       Y9, Y10, Y10
	VMULPS       Y8, Y12, Y13
	VMULPS       Y9, Y12, Y12
	VADDPS       Y11, Y0, Y0
	VADDPS       Y10, Y4, Y4
	VADDPS       Y13, Y1, Y1
	VADDPS       Y12, Y5, Y5
	ADDQ         $4, R9
	ADDQ         $4, AX
	ADDQ         R8, R10
	DECQ         R11
	JNZ          rterms16

rstore16:
	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y4, (R12)
	VMOVUPS Y5, 32(R12)
	ADDQ    $64, DI
	ADDQ    $64, R12
	ADDQ    $64, BX
	SUBQ    $16, CX

rcols8:
	// The remaining run of 8 columns, if any: Y0 row 0, Y4 row 1.
	TESTQ  CX, CX
	JZ     rdone
	VXORPS Y0, Y0, Y0
	VXORPS Y4, Y4, Y4
	MOVQ   SI, R9
	MOVQ   R13, AX
	MOVQ   BX, R10
	MOVQ   DX, R11
	TESTQ  R11, R11
	JZ     rstore8

rterms8:
	VBROADCASTSS (R9), Y8
	VBROADCASTSS (AX), Y9
	VMOVUPS      (R10), Y10
	VMULPS       Y8, Y10, Y11
	VMULPS       Y9, Y10, Y10
	VADDPS       Y11, Y0, Y0
	VADDPS       Y10, Y4, Y4
	ADDQ         $4, R9
	ADDQ         $4, AX
	ADDQ         R8, R10
	DECQ         R11
	JNZ          rterms8

rstore8:
	VMOVUPS Y0, (DI)
	VMOVUPS Y4, (R12)
	ADDQ    $32, DI
	ADDQ    $32, R12
	ADDQ    $32, BX
	SUBQ    $8, CX
	JMP     rcols8

rdone:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
